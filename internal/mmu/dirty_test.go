package mmu

import (
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// dirty reads page p's dirty bit straight from the page table — a test
// privilege; the package exports no reader, only the controller's
// Unref and Revoke.
func dirty(as *AddressSpace, p nvm.PageID) bool {
	return as.perms[p].Load()&pteDirty != 0 || as.large[p>>granuleShift].Load()>>(p%granulePages)&1 != 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// perPage adapts a per-page release report to the run-wise callback of
// Unref, UnmapAll and Revoke.
func perPage(fn func(p nvm.PageID, was Perm, dirty bool)) func(nvm.PageID, int, Perm, uint32) {
	return func(start nvm.PageID, n int, was Perm, mask uint32) {
		for i := 0; i < n; i++ {
			fn(start+nvm.PageID(i), was, mask>>i&1 != 0)
		}
	}
}

// eachPage is perPage for Ref's raised callback.
func eachPage(fn func(p nvm.PageID)) func(nvm.PageID, int) {
	return func(start nvm.PageID, n int) {
		for i := 0; i < n; i++ {
			fn(start + nvm.PageID(i))
		}
	}
}

// harvest releases pages [p, p+n) the way the controller does (Unref;
// a page installed by Map holds no second reference) and returns the
// ones reported stored to, ascending.
func harvest(as *AddressSpace, p nvm.PageID, n int) (stored []nvm.PageID) {
	as.Unref(p, n, perPage(func(q nvm.PageID, _ Perm, d bool) {
		if d {
			stored = append(stored, q)
		}
	}))
	return stored
}

// TestDirtyBitStoreEntryPoints: every store entry point sets the bit on
// every page it touches, and on no other.
func TestDirtyBitStoreEntryPoints(t *testing.T) {
	page := make([]byte, nvm.PageSize)
	stores := []struct {
		name  string
		store func(as *AddressSpace) error
		want  []nvm.PageID // pages 4..7 are write-mapped
	}{
		{"Write", func(as *AddressSpace) error { return as.Write(4, 8, page[:16]) }, []nvm.PageID{4}},
		{"WriteRange/one page", func(as *AddressSpace) error { return as.WriteRange(5, 0, page[:64]) }, []nvm.PageID{5}},
		{"WriteRange/boundary", func(as *AddressSpace) error {
			return as.WriteRange(4, nvm.PageSize-8, make([]byte, nvm.PageSize+16))
		}, []nvm.PageID{4, 5, 6}},
		{"WriteU64", func(as *AddressSpace) error { return as.WriteU64(6, 16, 42) }, []nvm.PageID{6}},
		{"WriteU128", func(as *AddressSpace) error { return as.WriteU128(7, 32, [16]byte{1}) }, []nvm.PageID{7}},
		{"View.Write", func(as *AddressSpace) error { return as.View(1).Write(5, 0, page[:8]) }, []nvm.PageID{5}},
		{"View.WriteRange", func(as *AddressSpace) error { return as.View(1).WriteRange(6, 100, page) }, []nvm.PageID{6, 7}},
	}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			as := newAS(t)
			as.Map(4, 4, PermWrite)
			if err := tc.store(as); err != nil {
				t.Fatal(err)
			}
			want := map[nvm.PageID]bool{}
			for _, p := range tc.want {
				want[p] = true
			}
			for p := nvm.PageID(0); p < 12; p++ {
				if got := dirty(as, p); got != want[p] {
					t.Errorf("page %d dirty = %v, want %v", p, got, want[p])
				}
			}
		})
	}
}

// TestDirtyBitLoadsAndFaultsLeaveClean: loads, flushes and stores that
// fault never set the bit — including the pages a faulting span store
// would have covered before the page it faulted on.
func TestDirtyBitLoadsAndFaultsLeaveClean(t *testing.T) {
	as := newAS(t)
	as.Map(4, 2, PermWrite)
	as.Map(6, 1, PermRead)
	buf := make([]byte, 2*nvm.PageSize)

	if err := as.Read(4, 0, buf[:8]); err != nil {
		t.Fatal(err)
	}
	if err := as.ReadRange(4, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := as.View(1).ReadRange(4, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := as.ReadU64(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := as.Persist(4, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := as.PersistRange(4, 0, len(buf)); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		as.Write(6, 0, buf[:8]),                   // read-only
		as.Write(9, 0, buf[:8]),                   // unmapped
		as.WriteU64(6, 0, 1),                      // read-only
		as.WriteRange(5, 0, buf),                  // second page read-only
		as.View(0).WriteRange(5, 0, buf),          // likewise through a view
		as.WriteRange(4, 0, make([]byte, 3*4096)), // third page read-only
	} {
		if !errors.Is(err, ErrFault) {
			t.Fatalf("store err = %v, want ErrFault", err)
		}
	}
	for p := nvm.PageID(0); p < 12; p++ {
		if dirty(as, p) {
			t.Errorf("page %d dirty after loads and faulting stores", p)
		}
	}
}

// TestDirtyBitSurvivesRemapAndUnmapCollects: re-Map of a mapped page
// (read→write upgrade, same-permission remap, downgrade) keeps the bit;
// the release reports it and clears it, a plain Unmap just clears it; a
// fresh mapping starts clean.
func TestDirtyBitSurvivesRemapAndUnmapCollects(t *testing.T) {
	as := newAS(t)
	as.Map(4, 1, PermRead)
	as.Map(4, 1, PermWrite) // upgrade
	if dirty(as, 4) {
		t.Fatal("upgrade alone dirtied the page")
	}
	if err := as.WriteU64(4, 0, 7); err != nil {
		t.Fatal(err)
	}
	as.Map(4, 1, PermWrite) // same-permission remap
	if !dirty(as, 4) {
		t.Fatal("same-permission remap lost the dirty bit")
	}
	as.Map(4, 1, PermRead) // downgrade
	if !dirty(as, 4) {
		t.Fatal("downgrade lost the dirty bit")
	}
	if as.PermOf(4) != PermRead {
		t.Fatalf("PermOf = %v, want r (dirty bit must not leak into the permission)", as.PermOf(4))
	}
	if as.Mapped() != 1 {
		t.Fatalf("Mapped = %d, want 1", as.Mapped())
	}

	as.Map(5, 1, PermWrite) // clean neighbour
	if d := harvest(as, 5, 1); d != nil {
		t.Fatalf("release of a never-stored page reported dirty: %v", d)
	}
	if d := harvest(as, 4, 2); !slices.Equal(d, []nvm.PageID{4}) {
		t.Fatalf("release reported dirty pages %v, want [4]", d)
	}
	if dirty(as, 4) || as.PermOf(4) != PermNone || as.Mapped() != 0 {
		t.Fatal("release left state behind")
	}
	as.Map(4, 1, PermWrite)
	if dirty(as, 4) || harvest(as, 4, 1) != nil {
		t.Fatal("fresh mapping of a previously dirty page is not clean")
	}
	as.Ref(4, 2, PermWrite, nil)
	as.Ref(4, 1, PermRead, nil)
	if err := as.WriteU64(4, 0, 7); err != nil {
		t.Fatal(err)
	}
	as.Unmap(4, 2) // whatever the reference counts
	if dirty(as, 4) || as.Mapped() != 0 || as.perms[4].Load() != 0 {
		t.Fatal("Unmap left state behind")
	}
}

// TestDirtyBitNoStoreEscapesUnmap hammers stores against concurrent
// map/unmap windows: whenever a store passed its permission check inside
// a window, the release that closed the window must have reported dirty.
// (A store is attributed to a window when the round counter — bumped
// between one release and the next Map — reads the same before and
// after it.)
func TestDirtyBitNoStoreEscapesUnmap(t *testing.T) {
	const rounds = 100000
	as := newAS(t)
	var (
		round  atomic.Int64
		stored [rounds]atomic.Bool
		stop   atomic.Bool
		wg     sync.WaitGroup
		ready  sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		ready.Add(1)
		go func(w int) {
			defer wg.Done()
			ready.Done()
			view := as.View(w % 2)
			buf := make([]byte, 2*nvm.PageSize)
			for i := 0; !stop.Load(); i++ {
				r := round.Load()
				var err error
				switch i % 3 {
				case 0:
					err = as.WriteU64(4, 8*w, uint64(i))
				case 1:
					err = view.Write(4, 64, buf[:32])
				default:
					err = as.WriteRange(4, nvm.PageSize/2, buf[:nvm.PageSize]) // pages 4 and 5
				}
				if err == nil && round.Load() == r && r < rounds {
					stored[r].Store(true)
				}
			}
		}(w)
	}
	ready.Wait()
	collected := make([]bool, rounds)
	for r := 0; r < rounds; r++ {
		as.Map(4, 2, PermWrite)
		for spin := 0; spin < (r%8)*40; spin++ {
			as.PermOf(4)
		}
		collected[r] = slices.Contains(harvest(as, 4, 2), 4) // every store form touches page 4
		round.Add(1)
		if r%64 == 0 {
			runtime.Gosched() // a loaded host must not starve the writers
		}
	}
	stop.Store(true)
	wg.Wait()
	hits := 0
	for r := range collected {
		if stored[r].Load() {
			hits++
			if !collected[r] {
				t.Fatalf("round %d: a store landed but the release reported the pages clean", r)
			}
		}
	}
	if hits == 0 {
		t.Skip("no store landed inside a window; nothing was exercised")
	}
	t.Logf("%d of %d windows saw a store", hits, rounds)
}

// TestRunUnmapReturnsExactlyStoredPages: releasing a run names the pages
// that were stored to — no clean neighbour, no page outside the run —
// each with the permission it had, and only once its last reference goes.
func TestRunUnmapReturnsExactlyStoredPages(t *testing.T) {
	as := newAS(t)
	as.Map(8, 16, PermWrite)
	as.Map(40, 2, PermWrite) // outside the run below, dirty, must not be reported
	stored := []nvm.PageID{9, 12, 13, 23}
	for _, p := range append([]nvm.PageID{40}, stored...) {
		if err := as.WriteU64(p, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := harvest(as, 8, 16); !slices.Equal(got, stored) {
		t.Fatalf("released run's dirty pages = %v, want %v", got, stored)
	}
	if as.Mapped() != 2 || !dirty(as, 40) {
		t.Fatalf("the release reached outside its run: mapped %d", as.Mapped())
	}
	if got := harvest(as, 0, 1<<30); !slices.Equal(got, []nvm.PageID{40}) { // clipped at the device
		t.Fatalf("clipped release's dirty pages = %v, want [40]", got)
	}

	as.Ref(8, 16, PermWrite, nil)
	as.Ref(10, 2, PermRead, nil) // a second reference keeps 10 and 11 mapped, still rw
	for _, p := range []nvm.PageID{10, 15} {
		if err := as.WriteU64(p, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	type rel struct {
		p     nvm.PageID
		was   Perm
		dirty bool
	}
	var got []rel
	collect := perPage(func(p nvm.PageID, was Perm, d bool) { got = append(got, rel{p, was, d}) })
	as.Unref(8, 16, collect)
	if len(got) != 14 || as.Mapped() != 2 || as.PermOf(10) != PermWrite {
		t.Fatalf("Unref unmapped %d pages, %d left mapped, page 10 %v", len(got), as.Mapped(), as.PermOf(10))
	}
	for _, r := range got {
		if r.p == 10 || r.p == 11 || r.was != PermWrite || r.dirty != (r.p == 15) {
			t.Fatalf("Unref reported %+v", r)
		}
	}
	got = got[:0]
	as.Unref(10, 2, collect)
	if want := []rel{{10, PermWrite, true}, {11, PermWrite, false}}; !slices.Equal(got, want) {
		t.Fatalf("last Unref reported %+v, want %+v", got, want)
	}
	as.Unref(10, 2, collect) // no reference left: nothing to drop, nothing reported
	if len(got) != 2 || as.Mapped() != 0 {
		t.Fatalf("Unref of unreferenced pages reported %+v, mapped %d", got[2:], as.Mapped())
	}
}

// TestRefRaisesAndCounts: Ref maps with at least the wanted permission,
// reports the pages it raised, and the mapped count follows runs.
func TestRefRaisesAndCounts(t *testing.T) {
	as := newAS(t)
	var raised []nvm.PageID
	note := eachPage(func(p nvm.PageID) { raised = append(raised, p) })
	as.Ref(4, 4, PermRead, note)
	as.Ref(6, 4, PermWrite, note) // 6,7 upgraded; 8,9 fresh
	as.Ref(4, 6, PermRead, note)  // nothing raised: write stays write
	if want := []nvm.PageID{4, 5, 6, 7, 6, 7, 8, 9}; !slices.Equal(raised, want) {
		t.Fatalf("raised = %v, want %v", raised, want)
	}
	if as.Mapped() != 6 || as.PermOf(5) != PermRead || as.PermOf(7) != PermWrite || as.PermOf(9) != PermWrite {
		t.Fatalf("mapped %d, perms %v %v %v", as.Mapped(), as.PermOf(5), as.PermOf(7), as.PermOf(9))
	}
	as.Ref(60, 100, PermWrite, note) // pages 60..63 exist, the rest is clipped
	if as.Mapped() != 10 {
		t.Fatalf("mapped after clipped Ref = %d, want 10", as.Mapped())
	}
	n := 0
	as.Revoke(func(_ nvm.PageID, pages int, was Perm, _ uint32) {
		if was == PermWrite {
			n += pages
		}
	})
	if n != 8 || as.Mapped() != 0 {
		t.Fatalf("Revoke reported %d write pages (want 8), %d left mapped", n, as.Mapped())
	}
}

// TestRunUnrefHarvestsEveryStore is TestDirtyBitNoStoreEscapesUnmap for
// the reference-counted run calls the controller uses: stores race
// Ref/Unref windows over a 16-page run, and a store that passed its
// check inside a window must show in what that window's Unref reported
// for the page.
func TestRunUnrefHarvestsEveryStore(t *testing.T) {
	const (
		rounds = 40000
		first  = nvm.PageID(8)
		pages  = 16
	)
	as := newAS(t)
	var (
		round  atomic.Int64
		stored [rounds][pages]atomic.Bool
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, nvm.PageSize)
			for i := w; !stop.Load(); i += 3 {
				r := round.Load()
				p := first + nvm.PageID(i%pages)
				var err error
				span := 1
				if i%5 == 0 && p+1 < first+pages {
					span = 2
					err = as.WriteRange(p, nvm.PageSize/2, buf)
				} else {
					err = as.WriteU64(p, 8*w, uint64(i))
				}
				if err == nil && round.Load() == r && r < rounds {
					for k := 0; k < span; k++ {
						stored[r][int(p-first)+k].Store(true)
					}
				}
			}
		}(w)
	}
	harvested := make([][pages]bool, rounds)
	for r := 0; r < rounds; r++ {
		as.Ref(first, pages, PermWrite, nil)
		for spin := 0; spin < (r%8)*40; spin++ {
			as.PermOf(first)
		}
		as.Unref(first, pages, perPage(func(p nvm.PageID, _ Perm, d bool) { harvested[r][p-first] = d }))
		round.Add(1)
		if r%64 == 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	hits := 0
	for r := range harvested {
		for i := range harvested[r] {
			if stored[r][i].Load() {
				hits++
				if !harvested[r][i] {
					t.Fatalf("round %d: a store to page %d landed but Unref reported it clean", r, first+nvm.PageID(i))
				}
			}
		}
	}
	if hits == 0 {
		t.Skip("no store landed inside a window; nothing was exercised")
	}
	t.Logf("%d page-stores landed inside %d windows", hits, rounds)
}

// TestHarvestDirtyRacingStore is the rule verification scoped by dirty
// metadata rests on (DESIGN.md §5a): a page's facts survive only if
// every store to it since the walk that produced them would have cleared
// them. HarvestDirty clears the bit of a page that stays mapped, so a
// store whose permission check has passed but whose bytes have not
// landed must be on one side or the other of it: drained by the harvest
// (it runs inside the shootdown barrier, as Revoke does: the bit it
// reports is the store's, and the bytes are on the media when it is
// reported), or — checking after the harvest — setting the bit again for
// the release-time harvest. Never "bit clear, bytes land later, facts
// kept". The store is held in flight by a slow-I/O window on the device,
// which opens after the permission check.
func TestHarvestDirtyRacingStore(t *testing.T) { harvestRacingStore(t, 5, 1, 5) }

// TestHarvestDirtyRacingStoreLarge is the same rule for a page inside a
// large mapping, whose dirty bit the harvest clears in the granule's word
// (and the granule stays large: the release reports all 32 pages at once).
func TestHarvestDirtyRacingStoreLarge(t *testing.T) {
	telemetry.Default().Enable()
	defer telemetry.Default().Disable()
	installs, splits := mLargeInstalls.Load(), mSplits.Load()
	harvestRacingStore(t, 32, granulePages, 37)
	if installs, splits = mLargeInstalls.Load()-installs, mSplits.Load()-splits; installs != 2 || splits != 0 {
		t.Fatalf("%d large installs and %d splits, want the script's 2 grants large and no split", installs, splits)
	}
}

// harvestRacingStore runs the racing-store script on page p of the run
// [start, start+n), mapped by one Ref and released as it was taken.
func harvestRacingStore(t *testing.T, start nvm.PageID, n int, p nvm.PageID) {
	as := newAS(t)
	dev := as.Device()
	as.Ref(start, n, PermWrite, nil)
	fp := nvm.NewFaultPlan()
	fp.DelayOp(p, 50*time.Millisecond, 1)
	dev.SetFaultPlan(fp)

	done := make(chan error, 1)
	go func() { done <- as.WriteU64(p, 64, 0xfeedface) }()
	for !dirty(as, p) || fp.Faults() == 0 { // checked, and inside the slow window: in flight
		runtime.Gosched()
	}
	calls := 0
	as.HarvestDirty([]nvm.PageID{p, 1 << 40}, func(q nvm.PageID, was Perm, d bool) {
		calls++
		if q != p || was != PermWrite || !d {
			t.Errorf("harvest reported page %d perm %v dirty %v, want page %d rw dirty", q, was, d, p)
		}
		if got := binary.LittleEndian.Uint64(dev.Page(p)[64:]); got != 0xfeedface {
			t.Errorf("harvest reported the bit with the store's bytes still in flight (media holds %#x)", got)
		}
	})
	if calls != 1 {
		t.Fatalf("harvest reported %d pages, want 1 (ids beyond the device are skipped)", calls)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if dirty(as, p) || as.PermOf(p) != PermWrite {
		t.Fatalf("after the harvest: dirty %v perm %v, want clean and still rw", dirty(as, p), as.PermOf(p))
	}

	// The other side: a store that checks after the harvest marks the
	// page again, and the release collects it.
	if err := as.WriteU64(p, 72, 1); err != nil {
		t.Fatal(err)
	}
	if got := harvest(as, start, n); !slices.Equal(got, []nvm.PageID{p}) {
		t.Fatalf("release after a post-harvest store reported %v stored to, want [%d]", got, p)
	}
	// And a page nobody stored to since stays clean through both.
	as.Ref(start, n, PermWrite, nil)
	as.HarvestDirty([]nvm.PageID{p}, func(_ nvm.PageID, _ Perm, d bool) {
		if d {
			t.Error("harvest of an untouched page reported it dirty")
		}
	})
	if got := harvest(as, start, n); len(got) != 0 {
		t.Fatalf("release of an untouched page reported %v stored to", got)
	}
}

// TestStoreRacesSplitAndUnref is TestRunUnrefHarvestsEveryStore on the
// large path: writers store through View.WriteRange into a granule the
// controller side keeps taking whole and then treating unevenly — a
// page released out of its middle, a second reference on a few pages, a
// harvest — so that it splits under the stores, or releasing whole, so
// that it does not. Between two windows nothing of the granule is
// mapped. A store that began and returned nil inside one window must be
// in what that window's releases and harvests reported for its pages
// (whichever level its dirty bit was set on, and whichever side of the
// split); one that began after the window's last Unref returned, and
// ended before the next window's Ref, must have faulted.
func TestStoreRacesSplitAndUnref(t *testing.T) {
	const (
		rounds = 20000
		first  = nvm.PageID(granulePages)
	)
	as := newAS(t)
	var (
		phase  atomic.Int64 // odd while window phase/2 is open, even between windows
		stored [rounds][granulePages]atomic.Bool
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, buf := as.View(w&1), make([]byte, nvm.PageSize)
			for i := w; !stop.Load(); i += 3 {
				p, off, span := first+nvm.PageID(i%granulePages), 0, 1
				if i%5 == 0 && p+1 < first+granulePages {
					off, span = nvm.PageSize/2, 2
				}
				ph := phase.Load()
				err := v.WriteRange(p, off, buf)
				if err != nil || phase.Load() != ph {
					continue
				}
				if ph&1 == 0 {
					t.Errorf("a store to page %d began after window %d's last Unref returned and was allowed", p, ph/2-1)
					return
				}
				for k := 0; k < span && ph/2 < rounds; k++ {
					stored[ph/2][int(p-first)+k].Store(true)
				}
			}
		}(w)
	}
	harvested := make([][granulePages]bool, rounds)
	for r := 0; r < rounds; r++ {
		note := perPage(func(p nvm.PageID, _ Perm, d bool) { harvested[r][p-first] = harvested[r][p-first] || d })
		phase.Add(1)
		as.Ref(first, granulePages, PermWrite, nil)
		for spin := 0; spin < (r%8)*40; spin++ {
			as.PermOf(first)
		}
		mid := first + nvm.PageID(r%granulePages)
		switch r % 4 {
		case 0: // released as taken: stays large
			as.Unref(first, granulePages, note)
		case 1: // one page out of the middle, then the two sides
			as.Unref(mid, 1, note)
			as.Unref(first, int(mid-first), note)
			as.Unref(mid+1, int(first+granulePages-mid-1), note)
		case 2: // a second reference on part of it outlives the first
			as.Ref(mid, 4, PermRead, nil)
			as.Unref(first, granulePages, note)
			as.Unref(mid, 4, note)
		case 3: // harvested while large, then released page by page
			as.HarvestDirty([]nvm.PageID{mid}, func(p nvm.PageID, _ Perm, d bool) { note(p, 1, PermWrite, b2u(d)) })
			for p := first; p < first+granulePages; p++ {
				as.Unref(p, 1, note)
			}
		}
		if as.Mapped() != 0 {
			t.Fatalf("round %d: %d pages still mapped after the window's releases", r, as.Mapped())
		}
		phase.Add(1)
		if r%64 == 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	hits := 0
	for r := range harvested {
		for i := range harvested[r] {
			if stored[r][i].Load() {
				hits++
				if !harvested[r][i] {
					t.Fatalf("round %d (shape %d): a store to page %d landed but no release or harvest reported it", r, r%4, first+nvm.PageID(i))
				}
			}
		}
	}
	if hits == 0 {
		t.Skip("no store landed inside a window; nothing was exercised")
	}
	t.Logf("%d page-stores landed inside %d windows", hits, rounds)
}
