package libfs

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/nvm"
)

// Aux reuse by structure generation (ISSUE 23): ensureMapped keeps a
// regular file's auxiliary state when the controller hands back the
// generation it was built under. That is sound only if aux never runs
// ahead of the core state — it is mutated after the store it mirrors has
// landed — and never stays behind it under an unchanged generation — an
// index store that landed costs the file its generation.

// auxBlocks bounds the block range the aux comparison scans: three
// index pages' worth.
const auxBlocks = 3 * core.IndexEntriesPerPage

// checkAuxFresh rebuilds the file's aux from the core state into a
// scratch node and requires the live node to match it: chain, size and
// every block's page.
func checkAuxFresh(t *testing.T, fs *FS, n *node, when string) {
	t.Helper()
	in, err := fs.readDirentInode(n.loc())
	if err != nil {
		t.Fatalf("%s: reading the inode: %v", when, err)
	}
	fresh := newNode(n.ino)
	if err := fs.buildAux(fresh, &in); err != nil {
		t.Fatalf("%s: fresh buildAux: %v", when, err)
	}
	if !slices.Equal(n.chain, fresh.chain) {
		t.Fatalf("%s: chain %v, core state says %v", when, n.chain, fresh.chain)
	}
	if got, want := atomic.LoadInt64(&n.size), atomic.LoadInt64(&fresh.size); got != want {
		t.Fatalf("%s: size %d, core state says %d", when, got, want)
	}
	for b := uint64(0); b < auxBlocks; b++ {
		if got, want := n.radix.Get(b), fresh.radix.Get(b); got != want {
			t.Fatalf("%s: block %d -> page %d, core state says %d", when, b, got, want)
		}
	}
}

// TestAuxReuseSweep interrupts an append that grows the index chain, a
// hole fill, a truncate and a plain overwrite at every one of their
// stores (an injected store failure: the operation stops there with
// whatever landed before it), takes the mapping away, and checks that
// the aux the next map ends up with — rebuilt or reused — is exactly
// what a fresh build from the core state gives. The overwrite stores to
// no index page and always reuses; the others link or unlink blocks
// first thing, and rebuild.
func TestAuxReuseSweep(t *testing.T) {
	page := make([]byte, nvm.PageSize)
	const fileBlocks = core.IndexEntriesPerPage - 1 // one short of the first index page's end
	ops := map[string]func(h fsapi.File) error{
		"overwrite": func(h fsapi.File) error {
			_, err := h.WriteAt(make([]byte, 2*nvm.PageSize), 9*nvm.PageSize+17)
			return err
		},
		"append": func(h fsapi.File) error { // crosses into a second index page
			_, err := h.Append(make([]byte, 3*nvm.PageSize))
			return err
		},
		"hole-fill": func(h fsapi.File) error {
			_, err := h.WriteAt(page, 5*nvm.PageSize)
			return err
		},
		"truncate": func(h fsapi.File) error { return h.Truncate((fileBlocks-4)*nvm.PageSize + 100) },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			reused, rebuilt := 0, 0
			for k := int64(0); ; k++ {
				if k > 200 {
					t.Fatal("sweep did not terminate: the operation issues more than 200 stores?")
				}
				r := newFaultRig(t, 4096)
				h, err := r.c.Create("/f", 0o644)
				if err != nil {
					t.Fatal(err)
				}
				// Blocks 0..3, a hole, then up to fileBlocks.
				for _, w := range []struct{ off, n int64 }{{0, 4}, {8, fileBlocks - 8}} {
					if _, err := h.WriteAt(make([]byte, w.n*nvm.PageSize), w.off*nvm.PageSize); err != nil {
						t.Fatal(err)
					}
				}
				n := h.(*Handle).n
				// Adoption, then handovers until the controller vouches for
				// the index and the aux carries its generation.
				if err := r.sess.UnmapFile(core.RootIno); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if _, err := h.ReadAt(page[:1], 0); err != nil {
						t.Fatal(err)
					}
					if err := r.sess.UnmapFile(n.ino); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := h.ReadAt(page[:1], 0); err != nil {
					t.Fatal(err)
				}
				if n.auxGen == 0 {
					t.Fatal("steady state not reached: the aux carries no generation")
				}
				before := n.radix

				fp := nvm.NewFaultPlan()
				fp.InjectWriteFault(nvm.AllPages, k, 1)
				r.dev.SetFaultPlan(fp)
				opErr := op(h)
				r.dev.SetFaultPlan(nil)
				if opErr != nil && !errors.Is(opErr, fsapi.ErrIO) {
					t.Fatalf("k=%d: %v", k, opErr)
				}
				// Take the mapping away (the share-handover shape: the next
				// access faults and re-maps).
				if err := r.sess.UnmapFile(n.ino); err != nil && !errors.Is(err, controller.ErrBadRequest) {
					t.Fatalf("k=%d: unmap: %v", k, err)
				}
				if _, err := h.ReadAt(page[:1], 0); err != nil {
					t.Fatalf("k=%d: read after the handover: %v", k, err)
				}
				if n.radix == before {
					reused++
				} else {
					rebuilt++
				}
				checkAuxFresh(t, r.fs, n, fmt.Sprintf("k=%d (op error: %v)", k, opErr))
				if _, bad, first := r.ctl.VerifyAll(); bad != 0 {
					t.Fatalf("k=%d: VerifyAll: %d bad: %s", k, bad, first)
				}
				if fp.Faults() == 0 {
					break // the operation finished without reaching store k
				}
			}
			if name == "overwrite" && (reused == 0 || rebuilt != 0) || name != "overwrite" && rebuilt == 0 {
				t.Fatalf("sweep saw %d reuses and %d rebuilds", reused, rebuilt)
			}
			t.Logf("%d positions reused the aux, %d rebuilt it", reused, rebuilt)
		})
	}
}

// TestAuxReuseStackedWriters: two LibFSes of one trust group hold the
// file for writing together. The second is vouched nothing — the first
// could be storing to the index right now — and while B holds it, A's
// re-map is vouched nothing either: A rebuilds, and sees B's append.
func TestAuxReuseStackedWriters(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 4096})
	ctl, err := controller.New(dev, controller.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fss [2]*FS
	var hs [2]fsapi.File
	for i := range fss {
		if fss[i], err = New(ctl.Register(1000, 1000, 0, 7), Config{CPUs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := fss[0], fss[1]
	if hs[0], err = a.NewClient(0).Create("/f", 0o666); err != nil {
		t.Fatal(err)
	}
	block := make([]byte, nvm.PageSize)
	for i := 0; i < 6; i++ {
		if _, err := hs[0].Append(block); err != nil {
			t.Fatal(err)
		}
	}
	na := hs[0].(*Handle).n
	if err := a.Session().UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	// Two lone handovers: A's aux ends up carrying a generation.
	for i := 0; i < 3; i++ {
		if _, err := hs[0].WriteAt(block, 0); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := a.Session().UnmapFile(na.ino); err != nil {
				t.Fatal(err)
			}
		}
	}
	if na.auxGen == 0 {
		t.Fatal("a lone writer's aux carries no generation")
	}

	// B stacks its write mapping on A's.
	if hs[1], err = b.NewClient(0).Open("/f", true); err != nil {
		t.Fatal(err)
	}
	nb := hs[1].(*Handle).n
	if nb.auxGen != 0 {
		t.Fatalf("stacked writer was vouched generation %d, want 0", nb.auxGen)
	}
	// A's mapping goes away, B appends, A re-maps while B still holds.
	if err := a.Session().UnmapFile(na.ino); err != nil {
		t.Fatal(err)
	}
	before := na.radix
	if _, err := hs[1].Append(block); err != nil {
		t.Fatal(err)
	}
	if _, err := hs[0].WriteAt(block, 0); err != nil {
		t.Fatal(err)
	}
	if na.auxGen != 0 || na.radix == before {
		t.Fatalf("re-map under a co-holder: generation %d, aux reused %v; want 0 and a rebuild", na.auxGen, na.radix == before)
	}
	if got := hs[0].Size(); got != 7*nvm.PageSize {
		t.Fatalf("A sees size %d after B's append, want %d", got, 7*nvm.PageSize)
	}
	checkAuxFresh(t, a, na, "A after B's append")
	for _, fs := range fss {
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, bad, first := ctl.VerifyAll(); bad != 0 {
		t.Fatalf("VerifyAll: %d bad: %s", bad, first)
	}
}
