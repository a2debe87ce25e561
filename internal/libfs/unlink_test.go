package libfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/nvm"
)

// unlinkRig mounts one LibFS on a device roomy enough for a file of two
// index pages.
func unlinkRig(t *testing.T) (*FS, *controller.Controller) {
	t.Helper()
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(ctl.Register(1000, 1000, 0, 0), Config{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fs, ctl
}

// sortedPages returns a sorted copy of pages, failing on a duplicate.
func sortedPages(t *testing.T, pages []nvm.PageID, what string) []nvm.PageID {
	t.Helper()
	s := slices.Clone(pages)
	slices.Sort(s)
	if len(slices.Compact(slices.Clone(s))) != len(s) {
		t.Fatalf("%s lists a page twice: %v", what, pages)
	}
	return s
}

// unlinkChecked unlinks path on cpu 0 and checks the page list the
// unlink handed the controller: the walk of the core state taken just
// before gives the same set, and the controller recycles exactly the
// pages the walk would have had recycled — all of them for a file still
// in this LibFS's pool, none for one it verified (it then releases the
// file from its own record and reads no list). wantAux says whether the
// list must come from the aux. The deferred removal is drained here,
// so each unlink's list is the one RemoveFiles sees.
func unlinkChecked(t *testing.T, fs *FS, path string, wantAux, verified bool) {
	t.Helper()
	c := fs.NewClient(0)
	victim, err := fs.resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	victim.ilock.Lock()
	aux, ok := victim.auxPages()
	walk, werr := fs.filePages(victim)
	victim.ilock.Unlock()
	if ok != wantAux {
		t.Fatalf("%s: aux list available = %v, want %v", path, ok, wantAux)
	}
	if werr != nil {
		t.Fatalf("%s: walk: %v", path, werr)
	}
	walk = sortedPages(t, walk, path+" walk")
	if ok && !slices.Equal(sortedPages(t, aux, path+" aux"), walk) {
		t.Fatalf("%s: aux lists %v, the walk %v", path, sortedPages(t, aux, "aux"), walk)
	}
	if err := c.Unlink(path); err != nil {
		t.Fatalf("unlink %s: %v", path, err)
	}
	cl := &fs.percpu[0]
	cl.mu.Lock()
	dead := cl.dead
	cl.dead = nil
	cl.mu.Unlock()
	if len(dead) != 1 {
		t.Fatalf("%s: %d deferred removals queued, want 1", path, len(dead))
	}
	if got := sortedPages(t, dead[0].Pages, path+" unlink list"); !slices.Equal(got, walk) {
		t.Fatalf("%s: unlink handed over %v, the walk %v", path, got, walk)
	}
	recycled, err := fs.sess.RemoveFiles(dead)
	if err != nil {
		t.Fatalf("%s: RemoveFiles: %v", path, err)
	}
	want := walk
	if verified {
		want = nil
	}
	if got := sortedPages(t, recycled, path+" recycled"); !slices.Equal(got, want) {
		t.Fatalf("%s: controller recycled %v, want %v", path, got, want)
	}
	if err := fs.freePages(0, recycled); err != nil {
		t.Fatal(err)
	}
}

// TestUnlinkPageListMatchesWalk checks the page list unlink takes from a
// write-mapped file's aux against the walk of its core state, over
// files shaped by random appends, sparse writes and truncates, one of
// them more than 511 blocks long (two index pages). A victim resolved
// but never opened has no aux and walks, as does one opened only for
// reading; a file the controller verified still lists its aux, and
// nothing of it is recycled.
func TestUnlinkPageListMatchesWalk(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		fs, ctl := unlinkRig(t)
		c := fs.NewClient(0)
		rng := rand.New(rand.NewSource(32))
		buf := make([]byte, 32*nvm.PageSize)
		rng.Read(buf)
		const files = 12
		for i := 0; i < files; i++ {
			f, err := c.Create(fmt.Sprintf("/f%d", i), 0o644)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 8; op++ {
				size := f.Size()
				switch rng.Intn(4) {
				case 0, 1: // append, ragged
					_, err = f.Append(buf[:rng.Intn(len(buf)-1)+1])
				case 2: // sparse write past the end
					gap := int64(rng.Intn(40)+1) * nvm.PageSize
					_, err = f.WriteAt(buf[:rng.Intn(3*nvm.PageSize)+1], size+gap+int64(rng.Intn(nvm.PageSize)))
				case 3:
					if size > 0 {
						err = f.Truncate(rng.Int63n(size))
					}
				}
				if err != nil {
					t.Fatalf("f%d op %d: %v", i, op, err)
				}
			}
			f.Close()
		}
		// Two index pages: 520 blocks appended, a sparse block at 700,
		// then a truncate that keeps the second page's blocks in part.
		big, err := c.Create("/big", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := big.Append(buf[:26*nvm.PageSize-(i%3)*100]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := big.WriteAt(buf[:nvm.PageSize], 700*nvm.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := big.Truncate(600*nvm.PageSize + 17); err != nil {
			t.Fatal(err)
		}
		if n := len(big.(*Handle).n.chain); n != 2 {
			t.Fatalf("big file has %d index pages, want 2", n)
		}
		big.Close()

		unlinkChecked(t, fs, "/big", true, false)
		for _, i := range rng.Perm(files) {
			unlinkChecked(t, fs, fmt.Sprintf("/f%d", i), true, false)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		if _, bad, first := ctl.VerifyAll(); bad != 0 {
			t.Fatalf("VerifyAll: %d bad: %s", bad, first)
		}
	})

	t.Run("never-opened", func(t *testing.T) {
		fs, _ := unlinkRig(t)
		c := fs.NewClient(0)
		f, err := c.Create("/cold", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 3*nvm.PageSize), 5*nvm.PageSize); err != nil {
			t.Fatal(err)
		}
		f.Close()
		// Forget the node: the next lookup resolves a fresh one with no
		// aux and no mapping of its own, as after a remount.
		fs.dropNode(f.(*Handle).n.ino)
		unlinkChecked(t, fs, "/cold", false, false)
		if _, err := c.Stat("/cold"); err != fsapi.ErrNotExist {
			t.Fatalf("stat after unlink: %v", err)
		}
	})

	t.Run("read-mapped", func(t *testing.T) {
		fs, _ := unlinkRig(t)
		c := fs.NewClient(0)
		f, err := c.Create("/r", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append(make([]byte, 2*nvm.PageSize)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		// A fresh node opened for reading: its aux is built from the
		// core state, but the file is not write-mapped, so unlink walks.
		fs.dropNode(f.(*Handle).n.ino)
		if f, err = c.Open("/r", false); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if n := f.(*Handle).n; n.radix == nil || n.mapState.Load() != 1 {
			t.Fatalf("read open left aux %v, map state %d; want built and 1", n.radix != nil, n.mapState.Load())
		}
		unlinkChecked(t, fs, "/r", false, true)
	})

	t.Run("verified", func(t *testing.T) {
		fs, ctl := unlinkRig(t)
		c := fs.NewClient(0)
		f, err := c.Create("/v", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append(make([]byte, 4*nvm.PageSize)); err != nil {
			t.Fatal(err)
		}
		// Unmapping the root makes the controller verify the tree and
		// adopt the file; the next write faults and re-maps it for
		// writing, building its aux from the core state.
		if err := fs.Session().UnmapFile(core.RootIno); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, nvm.PageSize), 9*nvm.PageSize); err != nil {
			t.Fatal(err)
		}
		f.Close()
		unlinkChecked(t, fs, "/v", true, true)
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		if _, bad, first := ctl.VerifyAll(); bad != 0 {
			t.Fatalf("VerifyAll: %d bad: %s", bad, first)
		}
	})
}
