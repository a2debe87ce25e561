package controller

import (
	"errors"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

func newCtl(t *testing.T, cfg nvm.Config) (*Controller, *nvm.Device) {
	t.Helper()
	dev := nvm.MustNewDevice(cfg)
	c, err := New(dev, Options{LeaseTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c, dev
}

func smallCfg() nvm.Config { return nvm.Config{Nodes: 1, PagesPerNode: 2048} }

// mkFile performs, through the session's address space, exactly the
// core-state writes a LibFS's create+write path performs: it installs a
// file with the given content as a child of the root directory and
// returns its ino and location. It leaves root write-mapped.
func mkFile(t *testing.T, s *Session, name string, content []byte) (core.Ino, core.FileLoc) {
	t.Helper()
	as := s.AddressSpace()
	rootInfo, err := s.MapFile(core.RootIno, core.RootLoc(), true)
	if err != nil {
		t.Fatalf("map root: %v", err)
	}
	// Ensure root has an index page and one dirent page.
	root := rootInfo.Inode
	var direntPage nvm.PageID
	if root.Head == nvm.NilPage {
		pages, err := s.AllocPages(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		zero := make([]byte, nvm.PageSize)
		for _, p := range pages {
			if err := as.Write(p, 0, zero); err != nil {
				t.Fatal(err)
			}
		}
		if err := core.SetIndexEntry(as, pages[0], 0, pages[1]); err != nil {
			t.Fatal(err)
		}
		root.Head = pages[0]
		if err := core.WriteInode(as, core.RootInodePage, core.SlotOffset(0), &root); err != nil {
			t.Fatal(err)
		}
		as.Fence()
		direntPage = pages[1]
	} else {
		p, err := core.IndexEntry(as, root.Head, 0)
		if err != nil {
			t.Fatal(err)
		}
		direntPage = p
	}
	// Find a free slot.
	slot := -1
	for i := 0; i < core.SlotsPerDirPage; i++ {
		ino, err := core.DirentIno(as, direntPage, i)
		if err != nil {
			t.Fatal(err)
		}
		if ino == 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		t.Fatal("root dirent page full")
	}
	// File content pages.
	var head nvm.PageID
	if len(content) > 0 {
		nData := (len(content) + nvm.PageSize - 1) / nvm.PageSize
		pages, err := s.AllocPages(0, 1+nData)
		if err != nil {
			t.Fatal(err)
		}
		zero := make([]byte, nvm.PageSize)
		if err := as.Write(pages[0], 0, zero); err != nil {
			t.Fatal(err)
		}
		head = pages[0]
		for i := 0; i < nData; i++ {
			lo := i * nvm.PageSize
			hi := lo + nvm.PageSize
			if hi > len(content) {
				hi = len(content)
			}
			if err := as.Write(pages[1+i], 0, content[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if err := as.Persist(pages[1+i], 0, hi-lo); err != nil {
				t.Fatal(err)
			}
			if err := core.SetIndexEntry(as, head, i, pages[1+i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	inos, err := s.AllocInos(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	uid, gid := s.Cred()
	in := core.Inode{
		Ino: inos[0], Type: core.TypeReg, Mode: 0o644, UID: uid, GID: gid,
		Size: uint64(len(content)), Head: head,
	}
	off := core.SlotOffset(slot)
	if err := core.WriteInodeBody(as, direntPage, off, &in); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteDirentName(as, direntPage, slot, name); err != nil {
		t.Fatal(err)
	}
	as.Fence()
	if err := core.CommitDirentIno(as, direntPage, slot, in.Ino); err != nil {
		t.Fatal(err)
	}
	return in.Ino, core.FileLoc{Page: direntPage, Slot: slot}
}

func TestRegisterMapsSuperblockReadOnly(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	s := c.Register(1000, 1000, 0, 0)
	as := s.AddressSpace()
	var buf [8]byte
	if err := as.Read(0, 0, buf[:]); err != nil {
		t.Fatalf("superblock read failed: %v", err)
	}
	if err := as.Write(0, 0, buf[:]); !errors.Is(err, mmu.ErrFault) {
		t.Fatalf("superblock write should fault, got %v", err)
	}
	// Root not mapped until requested.
	if err := as.Read(uint64ToPage(core.RootInodePage), 0, buf[:]); !errors.Is(err, mmu.ErrFault) {
		t.Fatalf("root page readable before MapFile: %v", err)
	}
}

func uint64ToPage(p nvm.PageID) nvm.PageID { return p }

func TestMapRootReadThenWrite(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	s := c.Register(1000, 1000, 0, 0)
	info, err := s.MapFile(core.RootIno, core.RootLoc(), false)
	if err != nil {
		t.Fatal(err)
	}
	if info.Inode.Type != core.TypeDir || info.Write {
		t.Fatalf("bad MapInfo %+v", info)
	}
	as := s.AddressSpace()
	var b [8]byte
	if err := as.Write(core.RootInodePage, 0, b[:]); !errors.Is(err, mmu.ErrFault) {
		t.Fatal("write through RO root mapping should fault")
	}
	// Upgrade to write.
	info, err = s.MapFile(core.RootIno, core.RootLoc(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Write {
		t.Fatal("upgrade did not yield write mapping")
	}
	if err := as.WriteU64(core.RootInodePage, 1024, 7); err != nil {
		t.Fatalf("write after upgrade failed: %v", err)
	}
}

func TestCreateShareReadAcrossLibFSes(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	content := []byte("shared through core state")
	ino, loc := mkFile(t, a, "shared.txt", content)
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatalf("unmap root: %v", err)
	}

	// B (different user, file is 0644 → read allowed) maps and reads.
	b := c.Register(2000, 2000, 0, 0)
	info, err := b.MapFile(ino, loc, false)
	if err != nil {
		t.Fatalf("B MapFile: %v", err)
	}
	if info.Inode.Size != uint64(len(content)) {
		t.Fatalf("size = %d", info.Inode.Size)
	}
	dataPage, err := core.IndexEntry(b.AddressSpace(), info.Inode.Head, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(content))
	if err := b.AddressSpace().Read(dataPage, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(content) {
		t.Fatalf("B read %q", buf)
	}
	// B must not be able to write (RO mapping).
	if err := b.AddressSpace().Write(dataPage, 0, buf); !errors.Is(err, mmu.ErrFault) {
		t.Fatal("B wrote through read mapping")
	}
	// B write-map must fail on permissions (0644, not owner).
	if _, err := b.MapFile(ino, loc, true); !errors.Is(err, ErrPermission) {
		t.Fatalf("B write map err = %v, want ErrPermission", err)
	}
	// The denied upgrade decided before it released anything: B's read
	// mapping is intact — still readable, still B's to unmap.
	if err := b.AddressSpace().Read(dataPage, 0, buf); err != nil {
		t.Fatalf("B read after denied upgrade: %v", err)
	}
	if string(buf) != string(content) {
		t.Fatalf("B read %q after denied upgrade", buf)
	}
	if err := b.UnmapFile(ino); err != nil {
		t.Fatalf("B unmap after denied upgrade: %v", err)
	}
}

func TestVerificationRejectsCorruptIndexChain(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "victim", []byte("data"))
	a.UnmapFile(core.RootIno)

	// A write-maps its file, then corrupts the index chain to point at
	// the superblock.
	info, err := a.MapFile(ino, loc, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SetIndexEntry(a.AddressSpace(), info.Inode.Head, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := core.SetIndexEntry(a.AddressSpace(), info.Inode.Head, 2, 1); err != nil { // reserved page!
		t.Fatal(err)
	}
	st0 := c.Stats().Snapshot()
	if err := a.UnmapFile(ino); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	st := c.Stats().Snapshot().Sub(st0)
	if st.Corruptions == 0 {
		t.Fatal("corruption not detected")
	}
	if st.Rollbacks == 0 {
		t.Fatal("no rollback performed")
	}
	// The file must be restored: B can map and read the original data.
	b := c.Register(2000, 2000, 0, 0)
	info2, err := b.MapFile(ino, loc, false)
	if err != nil {
		t.Fatalf("B map after rollback: %v", err)
	}
	dp, err := core.IndexEntry(b.AddressSpace(), info2.Inode.Head, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := b.AddressSpace().Read(dp, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "data" {
		t.Fatalf("restored content %q", buf)
	}
}

func TestWriterLeaseRevocation(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "pingpong", []byte("x"))
	a.UnmapFile(core.RootIno)
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	// Another user with write permission: chmod 666 first.
	if err := a.Chmod(ino, 0o666); err != nil {
		t.Fatal(err)
	}
	b := c.Register(2000, 2000, 0, 0)
	start := time.Now()
	if _, err := b.MapFile(ino, loc, true); err != nil {
		t.Fatalf("B write map: %v", err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Log("lease expired quickly (file may have been held briefly); acceptable")
	}
	// A's mapping was revoked: its next access faults.
	info, _ := b.MapFile(ino, loc, true)
	dp, _ := core.IndexEntry(b.AddressSpace(), info.Inode.Head, 0)
	if err := a.AddressSpace().Write(dp, 0, []byte("y")); !errors.Is(err, mmu.ErrFault) {
		t.Fatalf("A still has write access after revocation: %v", err)
	}
}

func TestTrustGroupSharesWithoutRevocation(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, GroupID(7))
	ino, loc := mkFile(t, a, "grouped", []byte("x"))
	a.UnmapFile(core.RootIno)
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	b := c.Register(1000, 1000, 0, GroupID(7))
	st0 := c.Stats().Snapshot()
	if _, err := b.MapFile(ino, loc, true); err != nil {
		t.Fatalf("group member write map: %v", err)
	}
	st := c.Stats().Snapshot().Sub(st0)
	if st.VerifyCount != 0 {
		t.Fatalf("verification ran inside a trust group (%d times)", st.VerifyCount)
	}
}

func TestChmodUpdatesShadowAndInode(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "f", []byte("x"))
	a.UnmapFile(core.RootIno)
	if err := a.Chmod(ino, 0o600); err != nil {
		t.Fatal(err)
	}
	// Non-owner chmod denied.
	b := c.Register(2000, 2000, 0, 0)
	if err := b.Chmod(ino, 0o777); !errors.Is(err, ErrPermission) {
		t.Fatalf("non-owner chmod: %v", err)
	}
	// 0600 means B cannot even read-map now.
	if _, err := b.MapFile(ino, loc, false); !errors.Is(err, ErrPermission) {
		t.Fatalf("B read map after 0600: %v", err)
	}
	// Chown requires root.
	if err := a.Chown(ino, 2000, 2000); !errors.Is(err, ErrPermission) {
		t.Fatalf("non-root chown: %v", err)
	}
	r := c.Register(0, 0, 0, 0)
	if err := r.Chown(ino, 2000, 2000); err != nil {
		t.Fatal(err)
	}
	if _, err := b.MapFile(ino, loc, true); err != nil {
		t.Fatalf("new owner write map: %v", err)
	}
}

func TestRemoveFileReleasesResources(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "doomed", make([]byte, 3*nvm.PageSize))
	a.UnmapFile(core.RootIno)
	// Register the file with the controller (verify) so it has state.
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	if err := a.UnmapFile(ino); err != nil {
		t.Fatal(err)
	}
	// Unlink: write-map parent, clear dirent, call RemoveFile.
	if _, err := a.MapFile(core.RootIno, core.RootLoc(), true); err != nil {
		t.Fatal(err)
	}
	if err := core.CommitDirentIno(a.AddressSpace(), loc.Page, loc.Slot, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveFile(ino, nil); err != nil {
		t.Fatal(err)
	}
	// The file is gone immediately.
	if _, err := a.MapFile(ino, loc, false); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("map removed file: %v", err)
	}
	// Its pages (1 index + 3 data) are parked on the remover — a
	// binding walk could have raced this LibFS's stores — and become
	// free when the session's teardown settles them.
	freeParked := c.FreePagesCount()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.FreePagesCount(); got < freeParked+4 {
		t.Fatalf("free pages after close: %d, want at least %d", got, freeParked+4)
	}
}

func TestRemoveFileRequiresClearedDirent(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "still-there", []byte("x"))
	a.UnmapFile(core.RootIno)
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	a.UnmapFile(ino)
	if _, err := a.MapFile(core.RootIno, core.RootLoc(), true); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveFile(ino, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("RemoveFile with live dirent: %v", err)
	}
}

func TestFreePagesValidation(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "mine", []byte("x"))
	a.UnmapFile(core.RootIno)
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	if err := a.UnmapFile(ino); err != nil {
		t.Fatal(err)
	}
	// B cannot free A's file pages.
	b := c.Register(2000, 2000, 0, 0)
	var victim nvm.PageID
	for _, fi := range c.Files() {
		if fi.Ino == ino {
			info, _ := b.MapFile(ino, loc, false)
			victim = info.Inode.Head
		}
	}
	if victim == 0 {
		t.Fatal("victim page not found")
	}
	if err := b.FreePages([]nvm.PageID{victim}); !errors.Is(err, ErrPermission) {
		t.Fatalf("B freed A's page: %v", err)
	}
}

func TestCommitPreventsRollbackPastCommit(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "committed", []byte("v1v1"))
	a.UnmapFile(core.RootIno)
	info, err := a.MapFile(ino, loc, true)
	if err != nil {
		t.Fatal(err)
	}
	as := a.AddressSpace()
	dp, _ := core.IndexEntry(as, info.Inode.Head, 0)
	// Legit update then commit.
	if err := as.Write(dp, 0, []byte("v2v2")); err != nil {
		t.Fatal(err)
	}
	as.Persist(dp, 0, 4)
	as.Fence()
	if err := a.Commit(ino); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Now corrupt and unmap → rollback must land on v2, not v1.
	if err := core.SetIndexEntry(as, info.Inode.Head, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.UnmapFile(ino); err != nil {
		t.Fatal(err)
	}
	b := c.Register(2000, 2000, 0, 0)
	info2, err := b.MapFile(ino, loc, false)
	if err != nil {
		t.Fatal(err)
	}
	dp2, _ := core.IndexEntry(b.AddressSpace(), info2.Inode.Head, 0)
	buf := make([]byte, 4)
	b.AddressSpace().Read(dp2, 0, buf)
	if string(buf) != "v2v2" {
		t.Fatalf("rollback lost committed state: %q", buf)
	}
}

func TestRemountScanRebuildsState(t *testing.T) {
	dev := nvm.MustNewDevice(smallCfg())
	c1, err := New(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := c1.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "persistent", []byte("survives remount"))
	a.UnmapFile(core.RootIno)
	// Force verification so the file is in the core state properly.
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	if err := a.UnmapFile(ino); err != nil {
		t.Fatal(err)
	}
	free1 := c1.FreePagesCount()

	// Remount.
	c2, err := New(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.FreePagesCount(); got != free1 {
		t.Fatalf("free pages after remount %d, want %d", got, free1)
	}
	files := c2.Files()
	found := false
	for _, fi := range files {
		if fi.Ino == ino && fi.Type == core.TypeReg && fi.Parent == core.RootIno {
			found = true
		}
	}
	if !found {
		t.Fatalf("file not rediscovered by scan: %+v", files)
	}
	// And its content is reachable through a fresh session.
	s := c2.Register(2000, 2000, 0, 0)
	info, err := s.MapFile(ino, loc, false)
	if err != nil {
		t.Fatal(err)
	}
	dp, _ := core.IndexEntry(s.AddressSpace(), info.Inode.Head, 0)
	buf := make([]byte, 16)
	s.AddressSpace().Read(dp, 0, buf)
	if string(buf) != "survives remount" {
		t.Fatalf("content after remount: %q", buf)
	}
}

func TestVerifyAllClean(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "ok", []byte("fine"))
	a.UnmapFile(core.RootIno)
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	a.UnmapFile(ino)
	checked, bad, first := c.VerifyAll()
	if checked < 2 || bad != 0 {
		t.Fatalf("VerifyAll: checked=%d bad=%d first=%q", checked, bad, first)
	}
}

func TestSessionCloseReturnsResources(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	free0 := c.FreePagesCount()
	a := c.Register(1000, 1000, 0, 0)
	if _, err := a.AllocPages(0, 32); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.FreePagesCount(); got != free0 {
		t.Fatalf("pages leaked on close: %d vs %d", got, free0)
	}
}
