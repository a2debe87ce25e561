package mmu

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"trio/internal/nvm"
)

// dirty reads page p's dirty bit straight from the page table — a test
// privilege; the package exports no reader, only the controller's Unmap.
func dirty(as *AddressSpace, p nvm.PageID) bool {
	return as.perms[p].Load()&pteDirty != 0
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
// Unmap returns it and clears it; a fresh mapping starts clean.
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
	as.MapPages([]nvm.PageID{4}, PermRead) // downgrade
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
	if as.Unmap(5, 1) {
		t.Fatal("Unmap of a never-stored page reported dirty")
	}
	if !as.Unmap(4, 2) {
		t.Fatal("Unmap did not return the dirty bit")
	}
	if dirty(as, 4) || as.PermOf(4) != PermNone || as.Mapped() != 0 {
		t.Fatal("Unmap left state behind")
	}
	as.Map(4, 1, PermWrite)
	if dirty(as, 4) || as.Unmap(4, 1) {
		t.Fatal("fresh mapping of a previously dirty page is not clean")
	}
}

// TestDirtyBitNoStoreEscapesUnmap hammers stores against concurrent
// map/unmap windows: whenever a store passed its permission check inside
// a window, that window's Unmap must have returned dirty. (A store is
// attributed to a window when the round counter — bumped between one
// Unmap and the next Map — reads the same before and after it.)
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
		collected[r] = as.Unmap(4, 2)
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
				t.Fatalf("round %d: a store landed but Unmap reported the pages clean", r)
			}
		}
	}
	if hits == 0 {
		t.Skip("no store landed inside a window; nothing was exercised")
	}
	t.Logf("%d of %d windows saw a store", hits, rounds)
}
