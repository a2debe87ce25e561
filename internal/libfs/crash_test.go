package libfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/nvm"
)

// TestCrashRecoveryEndToEnd exercises the §4.4 story: synchronous,
// atomic metadata operations mean that everything an application
// completed before the power failure is still there afterwards, the
// verifier accepts every file, and a fresh controller can remount the
// device.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192, TrackPersistence: true})
	ctl, err := controller.New(dev, controller.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := ctl.Register(1000, 1000, 0, 0)
	fs, _ := New(sess, Config{CPUs: 2})
	c := fs.NewClient(0)

	// A realistic op mix.
	if err := c.Mkdir("/docs", 0o755); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("crash-consistent "), 300) // ~5KB, 2 pages
	for i := 0; i < 8; i++ {
		f, err := c.Create(fmt.Sprintf("/docs/note-%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := c.Unlink("/docs/note-3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/docs/note-5", "/docs/renamed"); err != nil {
		t.Fatal(err)
	}

	// Power failure.
	dev.Tracker().Crash()

	// Recovery: LibFS program (journal undo) then controller pass.
	if err := fs.Recover(); err != nil {
		t.Fatalf("libfs recover: %v", err)
	}
	checked, rolledBack, err := ctl.Recover(map[controller.LibFSID]func() error{
		sess.ID(): fs.Recover,
	})
	if err != nil {
		t.Fatalf("controller recover: %v", err)
	}
	t.Logf("recovery: checked=%d rolledBack=%d", checked, rolledBack)

	// Every completed operation must be visible with intact data.
	names, err := c.ReadDir("/docs")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"note-0": true, "note-1": true, "note-2": true, "note-4": true,
		"note-6": true, "note-7": true, "renamed": true,
	}
	if len(names) != len(want) {
		t.Fatalf("post-crash listing %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected entry %q", n)
		}
		f, err := c.Open("/docs/"+n, false)
		if err != nil {
			t.Fatalf("open %s: %v", n, err)
		}
		got := make([]byte, len(payload))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("read %s: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload of %s corrupted after crash", n)
		}
	}

	// The whole tree still passes the integrity verifier.
	if _, bad, first := ctl.VerifyAll(); bad != 0 {
		t.Fatalf("verifier found %d bad files after crash: %s", bad, first)
	}

	// And a cold remount over the same device sees the same tree.
	ctl2, err := controller.New(dev, controller.Options{})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	fs2, _ := New(ctl2.Register(1000, 1000, 0, 0), Config{CPUs: 2})
	names2, err := fs2.NewClient(0).ReadDir("/docs")
	if err != nil {
		t.Fatal(err)
	}
	if len(names2) != len(want) {
		t.Fatalf("remount listing %v", names2)
	}
}

// TestCrashMidCreateInvisible replays the create protocol by hand and
// crashes before the commit store persists: the entry must not exist
// afterwards, and the tree must verify clean.
func TestCrashMidCreateInvisible(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192, TrackPersistence: true})
	ctl, _ := controller.New(dev, controller.Options{})
	sess := ctl.Register(1000, 1000, 0, 0)
	fs, _ := New(sess, Config{CPUs: 2})
	c := fs.NewClient(0).(*Client)

	// One committed file so the root has pages.
	if f, err := c.Create("/committed", 0o644); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}

	// Hand-run the create steps for a second file, stopping before the
	// ino commit (the same sequence createEntry performs).
	parent := fs.root
	if err := fs.ensureMapped(parent, true); err != nil {
		t.Fatal(err)
	}
	page, slot, err := fs.claimSlot(0, parent)
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.allocIno(0)
	in := core.Inode{Ino: ino, Type: core.TypeReg, Mode: 0o644, UID: 1000, GID: 1000}
	if err := core.WriteInodeBody(fs.as, page, core.SlotOffset(slot), &in); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteDirentName(fs.as, page, slot, "phantom"); err != nil {
		t.Fatal(err)
	}
	fs.as.Fence()
	// Write the ino word but crash before it persists.
	if err := fs.as.WriteU64(page, core.SlotOffset(slot), uint64(ino)); err != nil {
		t.Fatal(err)
	}
	dev.Tracker().Crash()

	ctl.Recover(map[controller.LibFSID]func() error{sess.ID(): fs.Recover})
	fs.Recover()

	names, err := fs.NewClient(0).ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "phantom" {
			t.Fatal("uncommitted create visible after crash")
		}
	}
	if _, bad, first := ctl.VerifyAll(); bad != 0 {
		t.Fatalf("verifier: %d bad (%s)", bad, first)
	}
}

// TestRenameCrashPointSweep drives the undo-journaled rename (§4.4)
// into a crash at every possible store boundary: for each k, the k-th
// NVM store onward fails, the "machine" loses unpersisted state, and
// recovery must leave exactly one of the two names alive with intact
// content.
func TestRenameCrashPointSweep(t *testing.T) {
	for k := int64(0); ; k++ {
		dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192, TrackPersistence: true})
		ctl, err := controller.New(dev, controller.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sess := ctl.Register(1000, 1000, 0, 0)
		fs, _ := New(sess, Config{CPUs: 2})
		c := fs.NewClient(0)
		f, err := c.Create("/old", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("R"), 1000)
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		// Warm the journal page so the sweep hits the rename itself.
		if err := c.Rename("/old", "/warm"); err != nil {
			t.Fatal(err)
		}
		if err := c.Rename("/warm", "/old"); err != nil {
			t.Fatal(err)
		}

		fp := nvm.NewFaultPlan()
		fp.InjectWriteFault(nvm.AllPages, k, -1)
		dev.SetFaultPlan(fp)
		renameErr := c.Rename("/old", "/new")
		dev.SetFaultPlan(nil)
		if renameErr == nil && k > 0 {
			// The rename completed before the store fault fired: the sweep
			// has covered every store boundary.
			t.Logf("sweep covered %d crash points", k)
			return
		}

		// Power failure at this point, then recovery.
		dev.Tracker().Crash()
		if err := fs.Recover(); err != nil {
			t.Fatalf("k=%d: recover: %v", k, err)
		}
		ctl.Recover(map[controller.LibFSID]func() error{sess.ID(): fs.Recover})

		oldSt, oldErr := c.Stat("/old")
		newSt, newErr := c.Stat("/new")
		oldLive := oldErr == nil
		newLive := newErr == nil
		if oldLive == newLive {
			t.Fatalf("k=%d: after crash old=%v new=%v (want exactly one)", k, oldErr, newErr)
		}
		name := "/old"
		st := oldSt
		if newLive {
			name = "/new"
			st = newSt
		}
		if st.Size != int64(len(payload)) {
			t.Fatalf("k=%d: survivor %s has size %d", k, name, st.Size)
		}
		g, err := c.Open(name, false)
		if err != nil {
			t.Fatalf("k=%d: open survivor: %v", k, err)
		}
		got := make([]byte, len(payload))
		if _, err := g.ReadAt(got, 0); err != nil {
			t.Fatalf("k=%d: read survivor: %v", k, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("k=%d: survivor content corrupted", k)
		}
		if _, bad, first := ctl.VerifyAll(); bad != 0 {
			t.Fatalf("k=%d: verifier rejects post-crash state (%d bad): %s", k, bad, first)
		}
		if k > 200 {
			t.Fatal("sweep did not terminate; rename issues >200 stores?")
		}
	}
}

// TestRemountBadChainIsCorrupt: a file whose index chain was made to
// leave the device while the file system was down fails alone. The
// remount succeeds, the file answers fsapi.ErrCorrupt, and its sibling
// reads back.
func TestRemountBadChainIsCorrupt(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 4096})
	ctl, err := controller.New(dev, controller.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := New(ctl.Register(1000, 1000, 0, 0), Config{CPUs: 2})
	c := fs.NewClient(0)
	payload := bytes.Repeat([]byte("isolated "), 1000) // three data pages
	for _, name := range []string{"/good", "/bad"} {
		f, err := c.Create(name, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	ctl.Close()

	// The bad file's first index page links to a page past the device.
	mem := core.Direct(dev, 0)
	root := core.RootLoc()
	rin, err := core.ReadDirentInode(mem, root.Page, root.Slot)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := core.IndexEntry(mem, rin.Head, 0)
	if err != nil {
		t.Fatal(err)
	}
	linked := false
	for slot := 0; slot < core.SlotsPerDirPage && !linked; slot++ {
		if name, err := core.ReadDirentName(mem, dp, slot); err != nil || name != "bad" {
			continue
		}
		in, err := core.ReadDirentInode(mem, dp, slot)
		if err != nil {
			t.Fatal(err)
		}
		linked = mem.WriteU64(in.Head, core.IndexEntriesPerPage*8, 1<<30) == nil
	}
	if !linked {
		t.Fatal("no dirent named bad in the root's first dirent page")
	}

	ctl2, err := controller.New(dev, controller.Options{})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer ctl2.Close()
	fs2, _ := New(ctl2.Register(1000, 1000, 0, 0), Config{CPUs: 2})
	c2 := fs2.NewClient(0)
	got := make([]byte, len(payload))
	if f, err := c2.Open("/bad", false); err == nil {
		_, err = f.ReadAt(got, 0)
		if !errors.Is(err, fsapi.ErrCorrupt) {
			t.Fatalf("read of /bad: %v, want fsapi.ErrCorrupt", err)
		}
	} else if !errors.Is(err, fsapi.ErrCorrupt) {
		t.Fatalf("open of /bad: %v, want fsapi.ErrCorrupt", err)
	}
	f, err := c2.Open("/good", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read of /good: %v (content equal: %v)", err, bytes.Equal(got, payload))
	}
}
