package mmu

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// modelPT is the reference model of the page table: the flat table of
// one word per 4 KiB page that was the implementation before the second
// page size, its mapping calls kept as they were written (minus the
// atomics: the model runs on one goroutine). Whatever the two-size table
// does with granules, its callers must see exactly this.
type modelPT struct {
	perms  []uint32
	mapped int
}

func (m *modelPT) clip(p nvm.PageID, count int) (lo, hi uint64) {
	lo, n := uint64(p), uint64(len(m.perms))
	if count <= 0 || lo >= n {
		return 0, 0
	}
	return lo, min(lo+uint64(count), n)
}

func (m *modelPT) Map(p nvm.PageID, count int, perm Perm) {
	lo, hi := m.clip(p, count)
	for i := lo; i < hi; i++ {
		old := m.perms[i]
		if old&ptePerm == 0 {
			m.mapped++
		}
		m.perms[i] = old&^ptePerm | uint32(perm)
	}
}

func (m *modelPT) Unmap(p nvm.PageID, count int) {
	lo, hi := m.clip(p, count)
	for i := lo; i < hi; i++ {
		if m.perms[i]&ptePerm != 0 {
			m.mapped--
		}
		m.perms[i] = 0
	}
}

func (m *modelPT) Ref(p nvm.PageID, count int, perm Perm, raised func(nvm.PageID)) {
	lo, hi := m.clip(p, count)
	for i := lo; i < hi; i++ {
		old := m.perms[i]
		word := old + pteRef
		was := Perm(old & ptePerm)
		if was < perm {
			word = word&^ptePerm | uint32(perm)
		}
		m.perms[i] = word
		if was < perm {
			if was == PermNone {
				m.mapped++
			}
			raised(nvm.PageID(i))
		}
	}
}

func (m *modelPT) Unref(p nvm.PageID, count int, unmapped func(p nvm.PageID, was Perm, dirty bool)) {
	lo, hi := m.clip(p, count)
	for i := lo; i < hi; i++ {
		old, word := m.perms[i], uint32(0)
		if old >= 2*pteRef {
			word = old - pteRef // other references remain
		}
		m.perms[i] = word
		if was := Perm(old & ptePerm); word == 0 && was != PermNone {
			m.mapped--
			unmapped(nvm.PageID(i), was, old&pteDirty != 0)
		}
	}
}

func (m *modelPT) UnmapAll(unmapped func(p nvm.PageID, was Perm, dirty bool)) {
	for i, old := range m.perms {
		m.perms[i] = 0
		if was := Perm(old & ptePerm); was != PermNone {
			m.mapped--
			unmapped(nvm.PageID(i), was, old&pteDirty != 0)
		}
	}
}

func (m *modelPT) HarvestDirty(pages []nvm.PageID, fn func(p nvm.PageID, was Perm, dirty bool)) {
	for _, p := range pages {
		if uint64(p) >= uint64(len(m.perms)) {
			continue
		}
		old := m.perms[p]
		m.perms[p] = old &^ pteDirty
		fn(p, Perm(old&ptePerm), old&pteDirty != 0)
	}
}

func (m *modelPT) PermOf(p nvm.PageID) Perm { return Perm(m.perms[p] & ptePerm) }

// store is touch(p, PermWrite): the check, and the dirty bit if it passes.
func (m *modelPT) store(p nvm.PageID) bool {
	if uint64(p) >= uint64(len(m.perms)) || Perm(m.perms[p]&ptePerm) < PermWrite {
		return false
	}
	m.perms[p] |= pteDirty
	return true
}

// report is one page of a raised, unmapped or harvest report.
type report struct {
	p     nvm.PageID
	was   Perm
	dirty bool
}

func sortReports(r []report) []report {
	slices.SortFunc(r, func(a, b report) int {
		return cmp.Or(cmp.Compare(a.p, b.p), cmp.Compare(a.was, b.was), cmp.Compare(b2u(a.dirty), b2u(b.dirty)))
	})
	return r
}

// modelPages is the device size of the model runs: six granules and a
// ragged seventh, small enough that one byte names a page and some bytes
// name none.
const modelPages = 200

// step encodes one operation of FuzzPageTableModel's input.
func step(op, start, n byte, write bool) []byte {
	flag := byte(0)
	if write {
		flag = 1
	}
	return []byte{op, start, n - 1, flag}
}

const (
	opRef = iota
	opUnref
	opMap
	opUnmap
	opHarvest
	opUnmapAll
	opStore
	opRefPages   // a run taken page by page
	opUnrefPages // a run released page by page
	opSplitStore // a store landing between the two halves of a split
	opCount
)

// checkLevels asserts the two-size table's own invariant: a granule is
// held by its large word or by its page words, and small counts the latter.
func checkLevels(t *testing.T, as *AddressSpace) {
	t.Helper()
	for g := range as.large {
		used := uint8(0)
		for i := g << granuleShift; i < min((g+1)<<granuleShift, len(as.perms)); i++ {
			if as.perms[i].Load() != 0 {
				used++
			}
		}
		if used != as.small[g] || used != 0 && as.large[g].Load() != 0 {
			t.Fatalf("granule %d: %d page words in use, small says %d, large word %#x", g, used, as.small[g], as.large[g].Load())
		}
	}
}

// runModel drives the two-size table and the reference model through the
// operations data encodes (four bytes each) and fails on the first step
// after which they can be told apart: by any page's PermOf, by Mapped, by
// whether a store faulted, or by what a call reported — the pages it
// raised, the pages it unmapped with their permissions and dirty flags.
func runModel(t *testing.T, dev *nvm.Device, data []byte) {
	as := NewAddressSpace(dev, 0)
	m := &modelPT{perms: make([]uint32, modelPages)}

	var got, want []report
	gotRaised := func(start nvm.PageID, n int) {
		for i := 0; i < n; i++ {
			got = append(got, report{p: start + nvm.PageID(i)})
		}
	}
	wantRaised := func(p nvm.PageID) { want = append(want, report{p: p}) }
	wantRel := func(p nvm.PageID, was Perm, d bool) { want = append(want, report{p, was, d}) }
	gotRel := perPage(func(p nvm.PageID, was Perm, d bool) { got = append(got, report{p, was, d}) })

	for n := 0; len(data) >= 4 && n < 256; n, data = n+1, data[4:] {
		op, start, count := data[0]%opCount, nvm.PageID(data[1]), int(data[2]&0x7f)+1
		perm := PermRead + Perm(data[3]&1)
		got, want = got[:0], want[:0]
		desc := func() string {
			return fmt.Sprintf("step %d: op %d start %d count %d perm %v", n, op, start, count, perm)
		}
		switch op {
		case opRef:
			as.Ref(start, count, perm, gotRaised)
			m.Ref(start, count, perm, wantRaised)
		case opUnref:
			as.Unref(start, count, gotRel)
			m.Unref(start, count, wantRel)
		case opMap:
			as.Map(start, count, perm)
			m.Map(start, count, perm)
		case opUnmap:
			as.Unmap(start, count)
			m.Unmap(start, count)
		case opHarvest:
			pages := []nvm.PageID{start, start + 1, start + granulePages + 1, start + nvm.PageID(count)}
			as.HarvestDirty(pages, func(p nvm.PageID, was Perm, d bool) { got = append(got, report{p, was, d}) })
			m.HarvestDirty(pages, wantRel)
		case opUnmapAll:
			as.UnmapAll(gotRel)
			m.UnmapAll(wantRel)
		case opStore:
			if err, ok := as.WriteU64(start, 0, uint64(n)), m.store(start); (err == nil) != ok {
				t.Fatalf("%s: store returned %v, the model says allowed=%v", desc(), err, ok)
			}
		case opRefPages:
			for i := 0; i < count; i++ {
				as.Ref(start+nvm.PageID(i), 1, perm, gotRaised)
			}
			m.Ref(start, count, perm, wantRaised)
		case opUnrefPages:
			for i := 0; i < count; i++ {
				as.Unref(start+nvm.PageID(i), 1, gotRel)
			}
			m.Unref(start, count, wantRel)
		case opSplitStore:
			g := uint64(start) >> granuleShift
			if g >= uint64(len(as.large)) || as.large[g].Load() == 0 {
				continue
			}
			w := as.splitInstall(g)
			if err, ok := as.WriteU64(start, 0, uint64(n)), m.store(start); (err == nil) != ok {
				t.Fatalf("%s: store inside a split returned %v, the model says allowed=%v", desc(), err, ok)
			}
			as.splitRetire(g, w)
		}
		if !slices.Equal(sortReports(got), sortReports(want)) {
			t.Fatalf("%s: reported %+v, the model reports %+v", desc(), got, want)
		}
		if as.Mapped() != m.mapped {
			t.Fatalf("%s: Mapped() = %d, the model has %d", desc(), as.Mapped(), m.mapped)
		}
		for p := nvm.PageID(0); p < modelPages; p++ {
			if as.PermOf(p) != m.PermOf(p) {
				t.Fatalf("%s: PermOf(%d) = %v, the model has %v", desc(), p, as.PermOf(p), m.PermOf(p))
			}
		}
		checkLevels(t, as)
	}
	got, want = got[:0], want[:0]
	as.Revoke(gotRel)
	m.UnmapAll(wantRel)
	if !slices.Equal(sortReports(got), sortReports(want)) || as.Mapped() != 0 {
		t.Fatalf("final Revoke reported %+v (mapped %d), the model reports %+v", got, as.Mapped(), want)
	}
}

// FuzzPageTableModel: no sequence of mapping calls and stores, over runs
// of any alignment and length, taken as runs and released as pages or
// the reverse, tells the two-size page table from the per-page model.
func FuzzPageTableModel(f *testing.F) {
	cat := func(steps ...[]byte) []byte { return slices.Concat(steps...) }
	// A run inside one granule.
	f.Add(cat(step(opRef, 35, 20, true), step(opStore, 40, 1, true), step(opUnref, 35, 20, true)))
	// A run spanning three granules with ragged ends, released as taken.
	f.Add(cat(step(opRef, 20, 90, true), step(opStore, 64, 1, true), step(opStore, 21, 1, true),
		step(opHarvest, 64, 2, true), step(opStore, 65, 1, true), step(opUnref, 20, 90, true)))
	// A single-page Unref in the middle of a large granule: it splits.
	f.Add(cat(step(opRef, 32, 64, true), step(opStore, 50, 1, true), step(opUnref, 48, 1, true),
		step(opStore, 49, 1, true), step(opUnref, 32, 64, true), step(opUnref, 32, 64, true)))
	// Promote after full release: taken as a run, released as pages, taken again.
	f.Add(cat(step(opRef, 64, 32, false), step(opUnrefPages, 64, 32, false), step(opRef, 64, 32, true),
		step(opRefPages, 64, 32, true), step(opUnref, 64, 32, true), step(opUnrefPages, 64, 32, true)))
	// A second reference raises a large mapping; a store races its split.
	f.Add(cat(step(opMap, 96, 32, false), step(opRef, 96, 32, true), step(opSplitStore, 100, 1, true),
		step(opUnref, 96, 32, true), step(opUnmap, 90, 10, true), step(opUnmapAll, 0, 1, true)))
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: modelPages}) // what the stores land in; never read
	f.Fuzz(func(t *testing.T, data []byte) { runModel(t, dev, data) })
}

// BenchmarkRefUnrefRun is one grant and release of a run at the MMU
// layer alone — Ref then Unref with callbacks that keep a per-page table,
// as the controller's do — for a 2 MiB and a 32 MiB run, aligned to the
// granule and off by four pages.
func BenchmarkRefUnrefRun(b *testing.B) {
	const maxPages = 8192
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: maxPages + 2*granulePages})
	refs := make([]int32, dev.NumPages())
	raised := func(start nvm.PageID, n int) {
		for i := range refs[start : int(start)+n] {
			refs[int(start)+i]++
		}
	}
	unmapped := func(start nvm.PageID, n int, _ Perm, dirty uint32) {
		for i := range refs[start : int(start)+n] {
			refs[int(start)+i] -= 1 + int32(dirty>>i&1)
		}
	}
	telemetry.Default().Enable()
	defer telemetry.Default().Disable()
	for _, pages := range []int{512, maxPages} {
		for _, off := range []nvm.PageID{0, 4} {
			b.Run(fmt.Sprintf("%d/off%d", pages, off), func(b *testing.B) {
				as := NewAddressSpace(dev, 0)
				words := mPTWords.Load()
				for i := 0; i < b.N; i++ {
					as.Ref(granulePages+off, pages, PermWrite, raised)
					as.Unref(granulePages+off, pages, unmapped)
				}
				b.ReportMetric(float64(mPTWords.Load()-words)/float64(b.N), "pt-words/op")
			})
		}
	}
}
