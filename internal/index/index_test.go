package index

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestRadixBasic(t *testing.T) {
	r := NewRadix()
	if r.Len() != 0 {
		t.Fatal("fresh radix not empty")
	}
	if r.Get(0) != 0 {
		t.Fatal("Get on empty radix != 0")
	}
	r.Put(0, 100)
	r.Put(511, 200)
	r.Put(512, 300)       // crosses leaf boundary
	r.Put(1<<18, 400)     // crosses level-1 boundary
	r.Put(MaxBlocks-1, 5) // last representable key
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	for _, c := range []struct{ k, v uint64 }{{0, 100}, {511, 200}, {512, 300}, {1 << 18, 400}, {MaxBlocks - 1, 5}} {
		if got := r.Get(c.k); got != c.v {
			t.Errorf("Get(%d) = %d, want %d", c.k, got, c.v)
		}
	}
	if got := r.MaxKey(); got != MaxBlocks-1 {
		t.Errorf("MaxKey = %d", got)
	}
}

func TestRadixOverwriteAndDelete(t *testing.T) {
	r := NewRadix()
	r.Put(7, 1)
	r.Put(7, 2)
	if r.Len() != 1 || r.Get(7) != 2 {
		t.Fatalf("overwrite: len=%d get=%d", r.Len(), r.Get(7))
	}
	r.Delete(7)
	if r.Len() != 0 || r.Get(7) != 0 {
		t.Fatalf("delete: len=%d get=%d", r.Len(), r.Get(7))
	}
}

func TestRadixRangeOrdered(t *testing.T) {
	r := NewRadix()
	keys := []uint64{900, 3, 512, 77, 1 << 12}
	for _, k := range keys {
		r.Put(k, k+1)
	}
	var got []uint64
	r.Range(func(k, v uint64) bool {
		if v != k+1 {
			t.Errorf("Range val for %d = %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("Range visited %d keys, want %d", len(got), len(keys))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Range out of order: %v", got)
		}
	}
}

func TestRadixOutOfRangePanics(t *testing.T) {
	r := NewRadix()
	if r.Get(MaxBlocks) != 0 {
		t.Error("Get beyond range should return 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Put beyond range should panic")
		}
	}()
	r.Put(MaxBlocks, 1)
}

func TestRadixConcurrent(t *testing.T) {
	r := NewRadix()
	var wg sync.WaitGroup
	const perG = 2000
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := uint64(g*perG + i)
				r.Put(k, k+1)
				if got := r.Get(k); got != k+1 {
					t.Errorf("Get(%d) = %d during concurrent insert", k, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 4*perG {
		t.Fatalf("Len = %d, want %d", r.Len(), 4*perG)
	}
}

func TestMapBasic(t *testing.T) {
	m := NewMap[int]()
	if _, ok := m.Get("a"); ok {
		t.Fatal("Get on empty map returned ok")
	}
	if !m.Put("a", 1) {
		t.Fatal("first Put not reported as insert")
	}
	if m.Put("a", 2) {
		t.Fatal("overwrite reported as insert")
	}
	if v, ok := m.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete("a") || m.Delete("a") {
		t.Fatal("Delete semantics wrong")
	}
}

func TestMapPutIfAbsent(t *testing.T) {
	m := NewMap[int]()
	if !m.PutIfAbsent("x", 1) {
		t.Fatal("PutIfAbsent on absent key failed")
	}
	if m.PutIfAbsent("x", 2) {
		t.Fatal("PutIfAbsent on present key succeeded")
	}
	if v, _ := m.Get("x"); v != 1 {
		t.Fatalf("value clobbered: %d", v)
	}
}

func TestMapGrowthPreservesEntries(t *testing.T) {
	m := NewMap[int]()
	const n = 5000 // forces several doublings from 64 buckets
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("key-%d", i), i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := m.Get(fmt.Sprintf("key-%d", i))
		if !ok || v != i {
			t.Fatalf("key-%d = %d,%v after growth", i, v, ok)
		}
	}
}

func TestMapRange(t *testing.T) {
	m := NewMap[int]()
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	seen := map[string]bool{}
	m.Range(func(k string, v int) bool {
		seen[k] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("Range saw %d keys, want 100", len(seen))
	}
	// Early stop.
	count := 0
	m.Range(func(k string, v int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestMapConcurrentMixed(t *testing.T) {
	m := NewMap[uint64]()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("g%d-%d", g, i)
				m.Put(k, uint64(i))
				if v, ok := m.Get(k); !ok || v != uint64(i) {
					t.Errorf("lost own write %s", k)
					return
				}
				if i%3 == 0 {
					m.Delete(k)
				}
			}
		}()
	}
	wg.Wait()
	want := 4 * 3000 * 2 / 3
	if m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
}

func TestPropertyMapModelEquivalence(t *testing.T) {
	f := func(keys []string, dels []string) bool {
		m := NewMap[int]()
		ref := map[string]int{}
		for i, k := range keys {
			m.Put(k, i)
			ref[k] = i
		}
		for _, k := range dels {
			if m.Delete(k) != (func() bool { _, ok := ref[k]; return ok })() {
				return false
			}
			delete(ref, k)
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := m.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRadixModelEquivalence(t *testing.T) {
	f := func(ops []uint32) bool {
		r := NewRadix()
		ref := map[uint64]uint64{}
		maxKey := uint64(0)
		for i, op := range ops {
			k := uint64(op) % 4096
			if op%3 == 0 {
				// A third of the keys land around the inline head's edge,
				// so single puts, deletes and runs hit both sides of it.
				k %= 2 * radixInline
			}
			switch {
			case op%5 == 0:
				r.Delete(k)
				delete(ref, k)
			case op%7 == 0:
				// Bulk fill: a run of up to 700 values — so it crosses one
				// leaf boundary or two — with holes (zeros, which delete),
				// over whatever keys are already there.
				vals := make([]uint64, 1+op>>12%700)
				for j := range vals {
					if (op>>8+uint32(j))%9 != 0 {
						vals[j] = uint64(i)<<16 + uint64(j) + 1
						ref[k+uint64(j)] = vals[j]
						maxKey = max(maxKey, k+uint64(j))
					} else {
						delete(ref, k+uint64(j))
					}
				}
				r.PutRun(k, vals)
			default:
				r.Put(k, uint64(i)+1)
				ref[k] = uint64(i) + 1
				maxKey = max(maxKey, k)
			}
		}
		if r.Len() != len(ref) || r.MaxKey() != maxKey {
			return false
		}
		for k, v := range ref {
			if r.Get(k) != v {
				return false
			}
		}
		// Range reports every mapping once, in ascending key order — also
		// across the head → tree edge.
		n, last := 0, int64(-1)
		r.Range(func(k, v uint64) bool {
			n++
			ok := ref[k] == v && int64(k) > last
			last = int64(k)
			return ok
		})
		return n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRadixInlineHeadEdge pins the split between the inline head and the
// tree: a small file allocates no node, a run across the edge lands on
// both sides, and Len/MaxKey settle once whichever side a key is on.
func TestRadixInlineHeadEdge(t *testing.T) {
	r := NewRadix()
	for k := uint64(0); k < radixInline; k++ {
		r.Put(k, 100+k)
	}
	if r.root.Load() != nil {
		t.Fatalf("a %d-block file allocated the tree", radixInline)
	}
	if r.Len() != radixInline || r.MaxKey() != radixInline-1 {
		t.Fatalf("Len %d MaxKey %d, want %d and %d", r.Len(), r.MaxKey(), radixInline, radixInline-1)
	}

	// A run that starts in the head and ends two leaves into the tree.
	const start, runLen = radixInline - 3, 600
	vals := make([]uint64, runLen)
	for j := range vals {
		vals[j] = 5000 + uint64(j)
	}
	r.PutRun(start, vals)
	if want := start + runLen; r.Len() != want || r.MaxKey() != uint64(want-1) {
		t.Fatalf("Len %d MaxKey %d, want %d and %d", r.Len(), r.MaxKey(), want, want-1)
	}
	for k := uint64(0); k < start+runLen+4; k++ {
		var want uint64
		switch {
		case k < start:
			want = 100 + k
		case k < start+runLen:
			want = 5000 + k - start
		}
		if got := r.Get(k); got != want {
			t.Fatalf("Get(%d) = %d, want %d", k, got, want)
		}
	}
	// The run is one extent although it lives on both sides of the edge.
	if ext := r.GetRange(start, runLen, nil); len(ext) != 1 || ext[0] != (Extent{Block: start, Page: 5000, Count: runLen}) {
		t.Fatalf("extents %+v, want the one run", ext)
	}

	// Deletes on both sides of the edge; MaxKey is a high-water mark.
	r.Delete(radixInline - 1)
	r.Delete(radixInline)
	r.Delete(radixInline) // already gone: must not count twice
	if want := start + runLen - 2; r.Len() != want || r.MaxKey() != start+runLen-1 {
		t.Fatalf("after deletes: Len %d MaxKey %d, want %d and %d", r.Len(), r.MaxKey(), want, start+runLen-1)
	}
	// A hole that ends exactly at the edge, and one that begins there.
	r.PutRun(radixInline-3, []uint64{0, 0, 0, 77})
	want := []Extent{
		{Block: 0, Page: 100, Count: radixInline - 3},
		{Block: radixInline - 3, Page: 0, Count: 3},
		{Block: radixInline, Page: 77, Count: 1},
		{Block: radixInline + 1, Page: 5000 + radixInline + 1 - start, Count: 4},
	}
	got := r.GetRange(0, radixInline+5, nil)
	if len(got) != len(want) {
		t.Fatalf("extents %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("extent %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRadixPutRunConcurrent: bulk fills of disjoint runs that share
// leaves race each other and lookups; every value lands exactly once.
// The first run starts three blocks short of the inline head's end, so
// the head → tree edge is written while a reader walks across it.
func TestRadixPutRunConcurrent(t *testing.T) {
	r := NewRadix()
	const workers, perWorker, runLen = 4, 64, 100
	const base = radixInline - 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]uint64, runLen)
			for i := 0; i < perWorker; i++ {
				start := uint64(base + (i*workers+w)*runLen)
				for j := range vals {
					vals[j] = start + uint64(j) + 1
				}
				r.PutRun(start, vals)
				if got := r.Get(start + runLen/2); got != start+runLen/2+1 {
					t.Errorf("Get(%d) = %d right after its PutRun", start+runLen/2, got)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			// Whatever the snapshot, a mapped block holds its own value.
			for it := r.Extents(0, 4*radixInline); it.Next(); {
				if e := it.Ext; e.Page != 0 && e.Page != e.Block+1 {
					t.Errorf("extent %+v while filling", e)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	const total = workers * perWorker * runLen
	if r.Len() != total || r.MaxKey() != base+total-1 {
		t.Fatalf("Len %d MaxKey %d, want %d and %d", r.Len(), r.MaxKey(), total, base+total-1)
	}
	for k := uint64(0); k < base+total; k++ {
		want := k + 1
		if k < base {
			want = 0
		}
		if r.Get(k) != want {
			t.Fatalf("Get(%d) = %d, want %d", k, r.Get(k), want)
		}
	}
}
