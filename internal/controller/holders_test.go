package controller

import (
	"errors"
	"testing"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// A file's holders are one set: a trust group's stacked write holders are
// one holder to every other group, its checkpoint spans the group's whole
// tenure, and a page parked on the file leaves every mapping of it before
// the allocator hands it out. Each test below is one hole the set closed.

// stackedWorld is the scoped world with a2, a second session in a's trust
// group, and the file write-mapped by a.
func stackedWorld(t *testing.T) (*scopedWorld, *Session) {
	t.Helper()
	w := newScopedWorld(t)
	if _, err := w.a.MapFile(w.ino, w.loc, true); err != nil {
		t.Fatal(err)
	}
	return w, w.c.Register(1000, 1000, 0, w.a.Group())
}

// TestStackedWriterExclusivity: after a releases while a2 still holds the
// file write-mapped, b's write map waits out the group's lease and then
// revokes a2 — it does not map beside it.
func TestStackedWriterExclusivity(t *testing.T) {
	w, a2 := stackedWorld(t)
	if _, err := a2.MapFile(w.ino, w.loc, true); err != nil {
		t.Fatal(err)
	}
	if err := w.a.UnmapFile(w.ino); err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.MapFile(w.ino, w.loc, true); err != nil {
		t.Fatal(err)
	}
	if n := w.c.Stats().Snapshot().LeaseExpiries; n != 1 {
		t.Errorf("b's map revoked %d leases, want 1", n)
	}
	for _, p := range w.targets[1:] {
		if perm := a2.AddressSpace().PermOf(p); perm != mmu.PermNone {
			t.Errorf("a2 still maps page %d %v beside b's write grant", p, perm)
		}
	}
	if err := a2.UnmapFile(w.ino); !errors.Is(err, ErrRevoked) {
		t.Errorf("a2's unmap: %v, want ErrRevoked", err)
	}
}

// TestStackedWriterRollback: a stores a valid index entry, a2 stacks its
// write grant and scribbles one naming a page of another file. The
// rollback at a2's release restores the checkpoint cut at a's grant, so
// it undoes both holders' stores, not only a2's.
func TestStackedWriterRollback(t *testing.T) {
	w, a2 := stackedWorld(t)
	c, index := w.c, w.targets[1:3]
	pages, err := w.a.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SetIndexEntry(w.a.AddressSpace(), index[0], 3, pages[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.MapFile(w.ino, w.loc, true); err != nil {
		t.Fatal(err)
	}
	if err := core.SetIndexEntry(a2.AddressSpace(), index[1], 5, w.targets[0]); err != nil {
		t.Fatal(err)
	}
	if err := a2.UnmapFile(w.ino); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().Snapshot().Rollbacks; n != 1 {
		t.Fatalf("%d rollbacks, want 1", n)
	}
	for _, e := range []struct {
		page nvm.PageID
		slot int
		who  string
	}{{index[0], 3, "a's entry"}, {index[1], 5, "a2's scribble"}} {
		if got, err := core.IndexEntry(c.mem, e.page, e.slot); err != nil || got != 0 {
			t.Errorf("%s survived the rollback: index page %d entry %d = %d (%v)", e.who, e.page, e.slot, got, err)
		}
	}
	if err := w.a.UnmapFile(w.ino); err != nil {
		t.Fatal(err)
	}
	if checked, bad, first := c.VerifyAll(); bad != 0 {
		t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
	}
}

// TestParkedPageTeardown: a names a pool page in the index and a2's grant
// takes it in, parked on a. a drops the entry and closes: the page leaves
// a2's mapping before the allocator hands it to b.
func TestParkedPageTeardown(t *testing.T) {
	w, a2 := stackedWorld(t)
	index := w.targets[1]
	pages, err := w.a.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := pages[0]
	if err := core.SetIndexEntry(w.a.AddressSpace(), index, 3, p); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.MapFile(w.ino, w.loc, false); err != nil {
		t.Fatal(err)
	}
	if a2.AddressSpace().PermOf(p) == mmu.PermNone {
		t.Fatalf("a2's grant did not take in page %d", p)
	}
	if err := core.SetIndexEntry(w.a.AddressSpace(), index, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.a.Close(); err != nil {
		t.Fatal(err)
	}
	for got := nvm.PageID(0); got != p; {
		pages, err := w.b.AllocPages(0, 1)
		if err != nil {
			t.Fatalf("b never got page %d: %v", p, err)
		}
		got = pages[0]
	}
	if perm := a2.AddressSpace().PermOf(p); perm != mmu.PermNone {
		t.Fatalf("a2 maps page %d %v, now b's", p, perm)
	}
}

// TestWaitOnRetiredFile: a write-maps the file and the root and clears
// the file's dirent (an unlink's commit); b's map waits out the lease,
// whose revocation retires the file. b gets ErrUnknownFile and no mapping,
// so once a closes and its parked pages go to the allocator, b reaches
// none of them.
func TestWaitOnRetiredFile(t *testing.T) {
	w := newScopedWorld(t)
	for _, r := range []MapReq{{w.ino, w.loc, true}, {core.RootIno, core.RootLoc(), true}} {
		if _, err := w.a.MapFile(r.Ino, r.Loc, r.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.CommitDirentIno(w.a.AddressSpace(), w.loc.Page, w.loc.Slot, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.MapFile(w.ino, w.loc, true); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("b's map of the retired file: %v, want ErrUnknownFile", err)
	}
	if err := w.a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range w.targets[1:] {
		if perm := w.b.AddressSpace().PermOf(p); perm != mmu.PermNone {
			t.Errorf("b maps page %d %v of the retired file", p, perm)
		}
	}
}
