package controller

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// TestRunHelpers pins the normal form the run helpers keep, and the set
// operations a file's page set (fileState.pages) is compared with —
// membership, equality, difference — against a model hash set.
func TestRunHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randomSet := func() ([]pageRun, map[nvm.PageID]bool) {
		set := map[nvm.PageID]bool{}
		var runs []pageRun
		for k := rng.Intn(6); k > 0; k-- { // overlapping, adjacent, out of order
			start, n := nvm.PageID(rng.Intn(60)), 1+rng.Intn(8)
			runs = append(runs, pageRun{start: start, n: n})
			for i := 0; i < n; i++ {
				set[start+nvm.PageID(i)] = true
			}
		}
		return normalizeRuns(runs), set
	}
	checkHolds := func(runs []pageRun, set map[nvm.PageID]bool) {
		t.Helper()
		for i, r := range runs {
			if r.n <= 0 || (i > 0 && runs[i-1].end() >= r.start) {
				t.Fatalf("not in normal form: %v", runs)
			}
		}
		if runsLen(runs) != len(set) || !slices.Equal(runs, runsOfSet(set)) {
			t.Fatalf("runs %v do not hold the set %v", runs, set)
		}
	}
	for iter := 0; iter < 300; iter++ {
		runs, set := randomSet()
		for step := 0; step < 20; step++ {
			p := nvm.PageID(rng.Intn(70))
			if rng.Intn(2) == 0 {
				runs, set[p] = runsAdd(runs, p), true
			} else {
				runs = runsRemove(runs, p)
				delete(set, p)
			}
			checkHolds(runs, set)
			for q := nvm.PageID(0); q < 72; q++ {
				if (runsFind(runs, q) >= 0) != set[q] {
					t.Fatalf("runsFind(%v, %d) disagrees with the set", runs, q)
				}
			}
		}
		// Difference and equality against a second set, mostly unrelated,
		// sometimes one page away, sometimes the same.
		other, otherSet := randomSet()
		switch rng.Intn(4) {
		case 0:
			other, otherSet = slices.Clone(runs), set
		case 1:
			p := nvm.PageID(rng.Intn(70))
			other, otherSet = runsAdd(slices.Clone(runs), p), map[nvm.PageID]bool{p: true}
			for q := range set {
				otherSet[q] = true
			}
		}
		same := len(set) == len(otherSet)
		diff, rdiff := map[nvm.PageID]bool{}, map[nvm.PageID]bool{}
		for q := range set {
			if !otherSet[q] {
				diff[q], same = true, false
			}
		}
		for q := range otherSet {
			if !set[q] {
				rdiff[q] = true
			}
		}
		before, beforeOther := slices.Clone(runs), slices.Clone(other)
		checkHolds(runsDiff(nil, runs, other), diff)
		checkHolds(runsDiff(nil, other, runs), rdiff)
		if slices.Equal(runs, other) != same {
			t.Fatalf("run equality of %v and %v is %v, the sets say %v", runs, other, !same, same)
		}
		if !slices.Equal(runs, before) || !slices.Equal(other, beforeOther) {
			t.Fatal("runsDiff modified an operand")
		}
	}
}

// TestGrantIgnoresPagesBeyondDevice: a file whose index — untrusted core
// state, scribbled by the group member that write-maps it — names page
// ids past the end of the device is granted without them: nothing
// panics, no table grows an entry, the grantee maps exactly the pages
// that exist, releases them all, and once the sessions close no write
// reference is left. After a read grant the writer's unmap ends in the
// verdict it always had: the corruption detected and rolled back,
// VerifyAll clean. (A second write grant re-cuts the checkpoint over
// the scribbled index, so that file ends quarantined — and the grant
// used to index writeRefs out of range before that.)
func TestGrantIgnoresPagesBeyondDevice(t *testing.T) {
	for _, write := range []bool{false, true} {
		t.Run(fmt.Sprintf("write=%v", write), func(t *testing.T) {
			c, dev := newCtl(t, smallCfg())
			total := dev.NumPages()
			a := c.Register(1000, 1000, 0, GroupID(7))
			b := c.Register(1000, 1000, 0, GroupID(7))
			ino, loc := mkFile(t, a, "victim", []byte("data"))
			if err := a.UnmapFile(core.RootIno); err != nil {
				t.Fatal(err)
			}
			info, err := a.MapFile(ino, loc, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range []nvm.PageID{0, 3, 1 << 40} {
				if err := core.SetIndexEntry(a.AddressSpace(), info.Inode.Head, 1+i, total+k); err != nil {
					t.Fatal(err)
				}
			}
			mapped0 := b.AddressSpace().Mapped()
			if _, err := b.MapFile(ino, loc, write); err != nil {
				t.Fatalf("group member map: %v", err)
			}
			// The dirent page, the index page and the one real data page.
			if got := b.AddressSpace().Mapped() - mapped0; got != 3 {
				t.Fatalf("grantee maps %d new pages, want 3", got)
			}
			if got := runsLen(b.ls.mapped[ino].runs); got != 3 {
				t.Fatalf("mapping holds %d pages, want 3", got)
			}
			data, err := core.IndexEntry(a.AddressSpace(), info.Inode.Head, 0)
			if err != nil {
				t.Fatal(err)
			}
			st0 := c.Stats().Snapshot()
			if err := b.UnmapFile(ino); err != nil {
				t.Fatalf("group member unmap: %v", err)
			}
			for _, p := range []nvm.PageID{loc.Page, info.Inode.Head, data} {
				if perm := b.AddressSpace().PermOf(p); perm != mmu.PermNone {
					t.Fatalf("grantee still maps page %d (%v) after unmap", p, perm)
				}
			}
			if err := a.UnmapFile(ino); err != nil {
				t.Fatalf("writer unmap: %v", err)
			}
			if !write {
				if st := c.Stats().Snapshot().Sub(st0); st.Corruptions != 1 || st.Rollbacks != 1 {
					t.Fatalf("unmap verdict: %d corruptions, %d rollbacks, want 1 and 1", st.Corruptions, st.Rollbacks)
				}
				if checked, bad, first := c.VerifyAll(); bad != 0 {
					t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
				}
			}
			for _, s := range []*Session{a, b} {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			c.tabMu.Lock()
			for p, n := range c.writeRefsAll() {
				if n != 0 {
					t.Errorf("page %d: write reference left behind", p)
				}
			}
			c.tabMu.Unlock()
		})
	}
}

// TestReapDropsRefTakenAfterRevoke: a reap revokes the address space
// first, and the verification it then commits can still take a page
// reference — for a page that left the file but was never in the dead
// session's mapping (a same-group writer's append, parked on the reaped
// session). The reap must drop that reference with the parked page, or
// the page returns to the allocator counted as write-mapped for good and
// no seal or scrub ever looks at it again.
func TestReapDropsRefTakenAfterRevoke(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, GroupID(7))
	b := c.Register(1000, 1000, 0, GroupID(7))
	ino, loc := mkFile(t, a, "victim", []byte("data"))
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	info, err := a.MapFile(ino, loc, true)
	if err != nil {
		t.Fatal(err)
	}
	// B appends page q and hands the file back: q is the file's now, and
	// A's mapping, granted before the append, does not hold it.
	if _, err := b.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	pages, err := b.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, bas := pages[0], b.AddressSpace()
	if err := bas.Write(q, 0, make([]byte, nvm.PageSize)); err != nil {
		t.Fatal(err)
	}
	bas.Persist(q, 0, nvm.PageSize)
	if err := core.SetIndexEntry(bas, info.Inode.Head, 1, q); err != nil {
		t.Fatal(err)
	}
	if err := core.UpdateInodeSizeMtime(bas, loc, 2*nvm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.UnmapFile(ino); err != nil {
		t.Fatalf("appender unmap: %v", err)
	}
	if runsFind(a.ls.mapped[ino].runs, q) >= 0 || c.pageOwnerAt(q) != ino {
		t.Fatalf("setup: page %d should be the file's and outside A's mapping", q)
	}
	// A truncates the append away and dies.
	aas := a.AddressSpace()
	if err := core.SetIndexEntry(aas, info.Inode.Head, 1, nvm.NilPage); err != nil {
		t.Fatal(err)
	}
	if err := core.UpdateInodeSizeMtime(aas, loc, 4, 2); err != nil {
		t.Fatal(err)
	}
	a.Abandon()
	st0 := c.Stats().Snapshot()
	if err := c.Reap(a.ID()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats().Snapshot().Sub(st0); st.Corruptions != 0 || st.ReapVerifies != 1 {
		t.Fatalf("reap: %d corruptions, %d verifies, want a clean verification", st.Corruptions, st.ReapVerifies)
	}
	if c.pageOwnerAt(q) != 0 {
		t.Fatalf("page %d still bound after the reap", q)
	}
	c.tabMu.Lock()
	for p, n := range c.writeRefsAll() {
		if n != 0 {
			t.Errorf("page %d: %d write references left behind by the reap", p, n)
		}
	}
	c.tabMu.Unlock()
	if got := a.ls.as.Mapped(); got != 0 {
		t.Errorf("reaped address space still maps %d pages", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeRefsAll is writeRefsAt of every page of the device (tabMu held,
// or the controller quiet).
func (c *Controller) writeRefsAll() []int32 {
	out := make([]int32, len(c.writeRefs))
	for p := range out {
		out[p] = c.writeRefsAt(nvm.PageID(p))
	}
	return out
}

// runsOfSet is the model's view of a page set as normal-form runs.
func runsOfSet(set map[nvm.PageID]bool) []pageRun {
	runs := make([]pageRun, 0, len(set))
	for p := range set {
		runs = append(runs, pageRun{start: p, n: 1})
	}
	return normalizeRuns(runs)
}
