package controller

import (
	"bytes"
	"errors"
	"testing"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// TestRemovedFileParksUnreachable: a removal parks the file's pages on the
// remover with no MMU reach. Here the remover is a session of another
// trust group that may write the root but not the file: after its
// verified unlink and RemoveFiles it can neither read nor write what was
// the victim's data, and the victim's pages are as the victim left them.
func TestRemovedFileParksUnreachable(t *testing.T) {
	c, dev := newCtl(t, smallCfg())
	v := c.Register(1000, 1000, 0, 1)
	a := c.Register(2000, 2000, 0, 2)
	ino, loc := mkFile(t, v, "victim", bytes.Repeat([]byte("v"), 2*nvm.PageSize))
	if err := v.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	if err := v.Chmod(ino, 0o600); err != nil {
		t.Fatal(err)
	}
	index, data := filePages(t, c, loc)
	pages := append(index, data...)
	before := make([][]byte, len(pages))
	for i, p := range pages {
		before[i] = bytes.Clone(dev.Page(p))
	}

	if _, err := a.MapFile(core.RootIno, core.RootLoc(), true); err != nil {
		t.Fatal(err)
	}
	if err := core.CommitDirentIno(a.AddressSpace(), loc.Page, loc.Slot, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RemoveFiles([]Removal{{Ino: ino}}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for _, p := range pages {
		if err := a.AddressSpace().Read(p, 0, buf); !errors.Is(err, mmu.ErrFault) {
			t.Fatalf("the remover's read of former victim page %d: %v, want a fault", p, err)
		}
		if err := a.AddressSpace().Write(p, 0, []byte("PWNED")); !errors.Is(err, mmu.ErrFault) {
			t.Fatalf("the remover's store to former victim page %d: %v, want a fault", p, err)
		}
	}
	for i, p := range pages {
		if !bytes.Equal(dev.Page(p), before[i]) {
			t.Fatalf("former victim page %d changed", p)
		}
	}
	if checked, bad, first := c.VerifyAll(); bad != 0 {
		t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
	}
}
