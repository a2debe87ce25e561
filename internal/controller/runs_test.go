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

// Coverage for run grants (ISSUE 16): the reference counts kept in the
// page-table words, driven run by run, against the per-page hash-map
// bookkeeping they replaced — kept here as the reference model.

// refModel is the global half of the old bookkeeping.
type refModel struct {
	total     nvm.PageID
	writeRefs map[nvm.PageID]int32
	cleanOpen map[nvm.PageID]bool
}

// sessModel is the per-session half: pageRefs and wmapped as they were,
// plus what the MMU held (permission and dirty bit per page).
type sessModel struct {
	refs    map[nvm.PageID]int
	wmapped map[nvm.PageID]bool
	perm    map[nvm.PageID]mmu.Perm
	dirty   map[nvm.PageID]bool
}

func newSessModel(total nvm.PageID) *sessModel {
	s := &sessModel{
		refs: map[nvm.PageID]int{}, wmapped: map[nvm.PageID]bool{},
		perm: map[nvm.PageID]mmu.Perm{}, dirty: map[nvm.PageID]bool{},
	}
	// Register's static mappings: the superblock and the checksum table.
	s.perm[0] = mmu.PermRead
	for p := core.ChecksumBase(total); p < total; p++ {
		s.perm[p] = mmu.PermRead
	}
	return s
}

// ref is the old refPageLocked; ids beyond the device are ignored.
func (m *refModel) ref(s *sessModel, p nvm.PageID, perm mmu.Perm) {
	if p >= m.total {
		return
	}
	s.refs[p]++
	if s.perm[p] < perm || s.refs[p] == 1 {
		s.perm[p] = perm
	}
	if perm == mmu.PermWrite && !s.wmapped[p] {
		s.wmapped[p] = true
		m.writeRefs[p]++
	}
}

// unref is the old unrefPageLocked with its dropWriteRef.
func (m *refModel) unref(s *sessModel, p nvm.PageID) {
	if p >= m.total {
		return
	}
	if n := s.refs[p]; n > 1 {
		s.refs[p] = n - 1
		return
	}
	delete(s.refs, p)
	stored := s.dirty[p]
	delete(s.dirty, p)
	delete(s.perm, p)
	if s.wmapped[p] {
		delete(s.wmapped, p)
		if stored {
			m.cleanOpen[p] = false
		}
		if m.writeRefs[p] > 0 {
			m.writeRefs[p]--
		}
	}
}

// revoke is the old dropWriteRefs followed by AddressSpace.Revoke.
func (m *refModel) revoke(s *sessModel) {
	for p := range s.wmapped {
		m.cleanOpen[p] = false
		if m.writeRefs[p] > 0 {
			m.writeRefs[p]--
		}
		delete(s.wmapped, p)
	}
	clear(s.perm)
	clear(s.dirty)
}

// modelMapping is one grant: the runs the controller holds, and the
// page list the old code held.
type modelMapping struct {
	runs  []pageRun
	pages []nvm.PageID
}

type modelSession struct {
	ls       *libfsState
	model    *sessModel
	mappings []*modelMapping
	pool     []nvm.PageID // single references: pool and parked pages
}

// TestRunTablesMatchMapModel drives random grants (overlapping runs, a
// dirent page shared by every grant, read and write, runs that leave
// the device), releases, pool references, pool→file transfers, parks,
// stores, record opens and revocations (with a reference taken on the
// revoked space, as a reap's commit does) through three sessions, and
// after every step requires the same permissions, writeRefs and
// cleanOpen — and so the same dirty-bit harvest — from both.
func TestRunTablesMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runTableModel(t, seed) })
	}
}

func runTableModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c, dev := newCtl(t, smallCfg())
	total := dev.NumPages()
	model := &refModel{total: total, writeRefs: map[nvm.PageID]int32{}, cleanOpen: map[nvm.PageID]bool{}}
	// Two windows of pages: low ones, and the device's tail so runs cross
	// into the checksum table and off the end.
	windows := [][2]nvm.PageID{{0, 72}, {total - 24, total + 8}}
	const dirent = nvm.PageID(40)

	fresh := func() *modelSession {
		s := c.Register(1000, 1000, 0, 0)
		return &modelSession{ls: s.ls, model: newSessModel(total)}
	}
	sess := []*modelSession{fresh(), fresh(), fresh()}

	randRun := func() (nvm.PageID, int) {
		w := windows[rng.Intn(len(windows))]
		return w[0] + nvm.PageID(rng.Intn(int(w[1]-w[0]))), 1 + rng.Intn(12)
	}
	perms := []mmu.Perm{mmu.PermRead, mmu.PermWrite}
	check := func(step int, what string) {
		t.Helper()
		c.tabMu.Lock()
		defer c.tabMu.Unlock()
		for _, w := range windows {
			for p := w[0]; p < min(w[1], total); p++ {
				if got, want := c.writeRefs[p], model.writeRefs[p]; got != want {
					t.Fatalf("step %d (%s): writeRefs[%d] = %d, model %d", step, what, p, got, want)
				}
				if got, want := c.cleanOpen[p], model.cleanOpen[p]; got != want {
					t.Fatalf("step %d (%s): cleanOpen[%d] = %v, model %v", step, what, p, got, want)
				}
				for i, s := range sess {
					if got, want := s.ls.as.PermOf(p), s.model.perm[p]; got != want {
						t.Fatalf("step %d (%s): session %d PermOf(%d) = %v, model %v", step, what, i, p, got, want)
					}
				}
			}
		}
		for i, s := range sess {
			if got, want := s.ls.as.Mapped(), len(s.model.perm); got != want {
				t.Fatalf("step %d (%s): session %d maps %d pages, model %d", step, what, i, got, want)
			}
		}
	}

	for step := 0; step < 1500; step++ {
		s := sess[rng.Intn(len(sess))]
		what := ""
		switch op := rng.Intn(10); op {
		case 0, 1: // grant: the shared dirent page plus a few runs in walk order
			what = "grant"
			perm := perms[rng.Intn(2)]
			m := &modelMapping{}
			walk := []nvm.PageID{dirent}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				start, n := randRun()
				for i := 0; i < n; i++ {
					walk = append(walk, start+nvm.PageID(i))
				}
			}
			for _, p := range walk {
				if p < total { // grantRuns drops impossible ids
					m.runs = appendPage(m.runs, p)
				}
				if !slices.Contains(m.pages, p) {
					m.pages = append(m.pages, p)
				}
			}
			m.runs = normalizeRuns(m.runs)
			s.ls.refRunsLocked(m.runs, perm)
			for _, p := range m.pages {
				model.ref(s.model, p, perm)
			}
			s.mappings = append(s.mappings, m)
		case 2: // release a mapping
			what = "release"
			if len(s.mappings) == 0 {
				continue
			}
			i := rng.Intn(len(s.mappings))
			m := s.mappings[i]
			s.mappings = slices.Delete(s.mappings, i, i+1)
			s.ls.unrefRunsLocked(m.runs)
			for _, p := range m.pages {
				model.unref(s.model, p)
			}
		case 3: // a pool page
			what = "pool ref"
			p, _ := randRun()
			s.ls.refPageLocked(p, mmu.PermWrite)
			model.ref(s.model, p, mmu.PermWrite)
			s.pool = append(s.pool, p)
		case 4: // free a pool page
			what = "pool unref"
			if len(s.pool) == 0 {
				continue
			}
			i := rng.Intn(len(s.pool))
			p := s.pool[i]
			s.pool = slices.Delete(s.pool, i, i+1)
			s.ls.unrefPageLocked(p)
			model.unref(s.model, p)
		case 5: // commitReportLocked binds a pool page: its ref moves onto the mapping
			what = "transfer"
			if len(s.pool) == 0 || len(s.mappings) == 0 {
				continue
			}
			i := rng.Intn(len(s.pool))
			p := s.pool[i]
			s.pool = slices.Delete(s.pool, i, i+1)
			m := s.mappings[rng.Intn(len(s.mappings))]
			if inRuns, inPages := runsFind(m.runs, p) >= 0, slices.Contains(m.pages, p); inRuns != (inPages && p < total) {
				t.Fatalf("step %d: page %d in runs %v, in page list %v", step, p, inRuns, inPages)
			} else if !inPages {
				if p < total {
					m.runs = normalizeRuns(appendPage(m.runs, p))
				}
				m.pages = append(m.pages, p)
			} else {
				s.ls.unrefPageLocked(p)
				model.unref(s.model, p)
			}
		case 6: // a page leaves its file: the mapping's ref becomes the parked ref
			what = "park"
			if len(s.mappings) == 0 {
				continue
			}
			m := s.mappings[rng.Intn(len(s.mappings))]
			if len(m.pages) == 0 {
				continue
			}
			p := m.pages[rng.Intn(len(m.pages))]
			m.runs = runsRemove(m.runs, p)
			m.pages = slices.DeleteFunc(m.pages, func(q nvm.PageID) bool { return q == p })
			s.pool = append(s.pool, p)
		case 7: // a store through the address space
			what = "store"
			p, _ := randRun()
			err := s.ls.as.WriteU64(p, 0, uint64(step))
			if want := s.model.perm[p] == mmu.PermWrite; (err == nil) != want {
				t.Fatalf("step %d: store to %d err %v, model writable %v", step, p, err, want)
			}
			if err == nil {
				s.model.dirty[p] = true
			}
		case 8: // openSegment moved a run's records sealed→open
			what = "open records"
			start, n := randRun()
			c.tabMu.Lock()
			for p := start; p < min(start+nvm.PageID(n), total); p++ {
				c.cleanOpen[p], model.cleanOpen[p] = true, true
			}
			c.tabMu.Unlock()
		case 9: // teardown: revoke, then the releases a reap still makes
			if rng.Intn(4) != 0 {
				continue
			}
			what = "revoke"
			c.revokeSpaceLocked(s.ls)
			model.revoke(s.model)
			check(step, what)
			// A reap's commit can park a page the session never held:
			// a reference taken on the revoked space, dropped below.
			if p, _ := randRun(); s.model.refs[p] == 0 {
				s.ls.refPageLocked(p, mmu.PermWrite)
				model.ref(s.model, p, mmu.PermWrite)
				s.pool = append(s.pool, p)
				check(step, "ref after revoke")
			}
			for _, m := range s.mappings {
				s.ls.unrefRunsLocked(m.runs)
				for _, p := range m.pages {
					model.unref(s.model, p)
				}
			}
			for _, p := range s.pool {
				s.ls.unrefPageLocked(p)
				model.unref(s.model, p)
			}
			check(step, "releases after revoke")
			*s = *fresh()
		}
		check(step, what)
	}
	// Everything released: no write reference may be left behind.
	for _, s := range sess {
		c.revokeSpaceLocked(s.ls)
		model.revoke(s.model)
	}
	check(-1, "final revoke")
	for p, n := range model.writeRefs {
		if n != 0 {
			t.Fatalf("page %d: %d write references leaked", p, n)
		}
	}
}

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
			for p, n := range c.writeRefs {
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
	for p, n := range c.writeRefs {
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

// runsOfSet is the model's view of a page set as normal-form runs.
func runsOfSet(set map[nvm.PageID]bool) []pageRun {
	runs := make([]pageRun, 0, len(set))
	for p := range set {
		runs = append(runs, pageRun{start: p, n: 1})
	}
	return normalizeRuns(runs)
}
