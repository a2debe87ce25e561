package alloc

import (
	"sync"
	"testing"
	"testing/quick"

	"trio/internal/nvm"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	a := NewPageAlloc(8, 108, 4) // 100 pages
	if a.Free() != 100 {
		t.Fatalf("Free = %d, want 100", a.Free())
	}
	pages, err := a.AllocPages(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 10 {
		t.Fatalf("got %d pages", len(pages))
	}
	seen := map[nvm.PageID]bool{}
	for _, p := range pages {
		if p < 8 || p >= 108 {
			t.Fatalf("page %d outside managed range", p)
		}
		if seen[p] {
			t.Fatalf("page %d allocated twice", p)
		}
		seen[p] = true
	}
	if a.Free() != 90 {
		t.Fatalf("Free = %d, want 90", a.Free())
	}
	a.FreePages(pages)
	if a.Free() != 100 {
		t.Fatalf("Free after FreePages = %d, want 100", a.Free())
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := NewPageAlloc(0, 16, 2)
	if _, err := a.AllocPages(0, 17); err == nil {
		t.Fatal("over-allocation should fail")
	}
	// Failed allocation must not leak pages.
	if a.Free() != 16 {
		t.Fatalf("Free = %d after failed alloc, want 16", a.Free())
	}
	pages, err := a.AllocPages(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocPages(1, 1); err == nil {
		t.Fatal("empty allocator should fail")
	}
	a.FreePages(pages[:8])
	if _, err := a.AllocPages(1, 8); err != nil {
		t.Fatalf("allocation after partial free failed: %v", err)
	}
}

func TestAllocCoalescing(t *testing.T) {
	a := NewPageAlloc(0, 64, 1)
	pages, err := a.AllocPages(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Free in shuffled order; extents must coalesce back to one.
	order := []int{3, 1, 0, 2}
	quarter := 16
	for _, q := range order {
		a.FreePages(pages[q*quarter : (q+1)*quarter])
	}
	if got := a.Extents(); got != 1 {
		t.Fatalf("extents after full free = %d, want 1", got)
	}
}

func TestAllocCrossShardStealing(t *testing.T) {
	a := NewPageAlloc(0, 40, 4) // 10 pages per shard
	// CPU 0 asks for 25 pages — more than its shard holds.
	pages, err := a.AllocPages(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 25 {
		t.Fatalf("got %d pages", len(pages))
	}
}

func TestAllocOnNodePrefersNode(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 4, PagesPerNode: 64})
	a := NewPageAlloc(1, dev.NumPages(), 4)
	pages, err := a.AllocPagesOnNode(dev, 0, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	onNode := 0
	for _, p := range pages {
		if dev.NodeOf(p) == 2 {
			onNode++
		}
	}
	if onNode < 12 {
		t.Fatalf("only %d/16 pages on requested node", onNode)
	}
}

func TestAllocConcurrentNoDoubleAllocation(t *testing.T) {
	a := NewPageAlloc(0, 4096, 8)
	var mu sync.Mutex
	seen := map[nvm.PageID]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		cpu := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				pages, err := a.AllocPages(cpu, 4)
				if err != nil {
					t.Errorf("alloc failed: %v", err)
					return
				}
				mu.Lock()
				for _, p := range pages {
					if seen[p] {
						t.Errorf("page %d allocated twice", p)
					}
					seen[p] = true
				}
				mu.Unlock()
				if i%2 == 0 {
					mu.Lock()
					for _, p := range pages {
						delete(seen, p)
					}
					mu.Unlock()
					a.FreePages(pages)
				}
			}
		}()
	}
	wg.Wait()
}

func TestPropertyAllocConservation(t *testing.T) {
	// Alloc/free sequences never change the total page population.
	f := func(sizes []uint8) bool {
		a := NewPageAlloc(0, 512, 4)
		var held [][]nvm.PageID
		total := 0
		for _, sz := range sizes {
			n := int(sz%16) + 1
			if pages, err := a.AllocPages(n, n); err == nil {
				held = append(held, pages)
				total += n
			}
			if len(held) > 4 {
				a.FreePages(held[0])
				total -= len(held[0])
				held = held[1:]
			}
			if a.Free() != 512-total {
				return false
			}
		}
		for _, h := range held {
			a.FreePages(h)
		}
		return a.Free() == 512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocAlignedGranules: a request of whole granules is carved as
// aligned granules, from whichever shard holds them; the unaligned head
// and tail the carves leave serve small requests, Free() stays exact, and
// freed granules coalesce back with their neighbours.
func TestAllocAlignedGranules(t *testing.T) {
	const gp = nvm.GranulePages
	a := NewPageAlloc(2, 2+6*gp, 2) // shards [2, 98) and [98, 194)
	pages, err := a.AllocPages(0, 3*gp)
	if err != nil {
		t.Fatal(err)
	}
	granules := map[nvm.PageID]int{}
	for _, p := range pages {
		granules[p/gp]++
	}
	if len(granules) != 3 {
		t.Fatalf("%d pages span %d granules, want 3 whole ones", len(pages), len(granules))
	}
	for g, n := range granules {
		if n != gp {
			t.Fatalf("granule %d holds %d of the pages, want all %d", g, n, gp)
		}
	}
	if got, want := a.Free(), 6*gp-3*gp; got != want {
		t.Fatalf("Free = %d after the carve, want %d", got, want)
	}
	// Of the 96 pages left, [160, 192) is the one whole granule; the
	// other 64 are heads and tails, and stay allocatable.
	last, err := a.AllocPages(1, gp)
	if err != nil {
		t.Fatal(err)
	}
	if last[0] != 5*gp || last[gp-1] != 6*gp-1 {
		t.Fatalf("the last granule request got [%d..%d], want [%d, %d)", last[0], last[gp-1], 5*gp, 6*gp)
	}
	rest, err := a.AllocPages(0, 2*gp)
	if err != nil {
		t.Fatalf("heads and tails: %v", err)
	}
	if a.Free() != 0 {
		t.Fatalf("Free = %d with every page out", a.Free())
	}
	if _, err := a.AllocPages(0, 1); err == nil {
		t.Fatal("allocation from an empty allocator succeeded")
	}
	seen := map[nvm.PageID]bool{}
	for _, p := range append(append(append([]nvm.PageID(nil), pages...), rest...), last...) {
		if p < 2 || p >= 2+6*gp || seen[p] {
			t.Fatalf("page %d out of range or handed out twice", p)
		}
		seen[p] = true
	}
	// Granules freed in any order coalesce with the heads and tails.
	a.FreePages(pages[gp:])
	a.FreePages(rest)
	a.FreePages(last)
	a.FreePages(pages[:gp])
	if a.Free() != 6*gp || a.Extents() != 2 {
		t.Fatalf("after freeing everything: Free %d, %d extents, want %d and one per shard", a.Free(), a.Extents(), 6*gp)
	}
	// A request the trees cannot serve whole still succeeds, as any
	// request does.
	b := NewPageAlloc(5, 5+gp, 1)
	if got, err := b.AllocPages(0, gp); err != nil || len(got) != gp {
		t.Fatalf("unaligned %d pages for a granule request: %d pages, %v", gp, len(got), err)
	}
}

func TestInoAllocUnique(t *testing.T) {
	a := NewInoAlloc(2, 4)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cpu := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ino := a.Alloc(cpu)
				if ino < 2 {
					t.Errorf("ino %d below firstFree", ino)
					return
				}
				mu.Lock()
				if seen[ino] {
					t.Errorf("ino %d issued twice", ino)
				}
				seen[ino] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 4000 {
		t.Fatalf("issued %d unique inos, want 4000", len(seen))
	}
}

func TestReserveSplitsExtents(t *testing.T) {
	a := NewPageAlloc(0, 32, 1)
	if !a.Reserve(10) {
		t.Fatal("Reserve(10) failed on free page")
	}
	if a.Reserve(10) {
		t.Fatal("double Reserve succeeded")
	}
	if a.Free() != 31 {
		t.Fatalf("Free = %d, want 31", a.Free())
	}
	// Page 10 must never come back from AllocPages.
	pages, err := a.AllocPages(0, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if p == 10 {
			t.Fatal("reserved page allocated")
		}
	}
	if a.Reserve(99) {
		t.Fatal("Reserve outside range succeeded")
	}
}
