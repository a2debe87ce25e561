package index

import (
	"math/rand"
	"testing"
)

// collect materializes the extents of [start, start+count).
func collect(r *Radix, start uint64, count int) []Extent {
	return r.GetRange(start, count, nil)
}

// checkAgainstGet verifies that the extents of [start, start+count)
// reproduce exactly what per-block Get returns.
func checkAgainstGet(t *testing.T, r *Radix, start uint64, count int) {
	t.Helper()
	ext := collect(r, start, count)
	pos := start
	for _, e := range ext {
		if e.Block != pos {
			t.Fatalf("extent starts at %d, want %d (extents %+v)", e.Block, pos, ext)
		}
		if e.Count <= 0 {
			t.Fatalf("empty extent %+v", e)
		}
		for i := 0; i < e.Count; i++ {
			want := r.Get(e.Block + uint64(i))
			var got uint64
			if e.Page != 0 {
				got = e.Page + uint64(i)
			}
			if got != want {
				t.Fatalf("block %d: extent says %d, Get says %d", e.Block+uint64(i), got, want)
			}
		}
		pos = e.Block + uint64(e.Count)
	}
	if pos != start+uint64(count) {
		t.Fatalf("extents cover [%d, %d), want [%d, %d)", start, pos, start, start+uint64(count))
	}
}

func TestExtentsCoalescesContiguousRun(t *testing.T) {
	r := NewRadix()
	for b := uint64(0); b < 64; b++ {
		r.Put(b, 1000+b)
	}
	ext := collect(r, 0, 64)
	if len(ext) != 1 {
		t.Fatalf("contiguous run yields %d extents: %+v", len(ext), ext)
	}
	if ext[0] != (Extent{Block: 0, Page: 1000, Count: 64}) {
		t.Fatalf("extent %+v", ext[0])
	}
}

func TestExtentsSplitsDiscontiguousPages(t *testing.T) {
	r := NewRadix()
	// Blocks contiguous, pages not: 0→10, 1→11, 2→20, 3→21.
	r.Put(0, 10)
	r.Put(1, 11)
	r.Put(2, 20)
	r.Put(3, 21)
	ext := collect(r, 0, 4)
	if len(ext) != 2 || ext[0].Count != 2 || ext[1].Page != 20 {
		t.Fatalf("extents %+v", ext)
	}
	checkAgainstGet(t, r, 0, 4)
}

func TestExtentsHoles(t *testing.T) {
	r := NewRadix()
	// [mapped 0..3] [hole 4..9] [mapped 10..11] — plus leading/trailing holes.
	for b := uint64(0); b < 4; b++ {
		r.Put(b, 100+b)
	}
	r.Put(10, 500)
	r.Put(11, 501)
	ext := collect(r, 0, 16)
	want := []Extent{
		{Block: 0, Page: 100, Count: 4},
		{Block: 4, Page: 0, Count: 6},
		{Block: 10, Page: 500, Count: 2},
		{Block: 12, Page: 0, Count: 4},
	}
	if len(ext) != len(want) {
		t.Fatalf("extents %+v, want %+v", ext, want)
	}
	for i := range want {
		if ext[i] != want[i] {
			t.Fatalf("extent[%d] = %+v, want %+v", i, ext[i], want[i])
		}
	}
	checkAgainstGet(t, r, 0, 16)
	// Sub-ranges starting mid-extent and mid-hole.
	checkAgainstGet(t, r, 2, 5)
	checkAgainstGet(t, r, 5, 3)
	checkAgainstGet(t, r, 11, 8)
}

func TestExtentsLeafBoundary(t *testing.T) {
	r := NewRadix()
	// A physically contiguous run crossing the 512-block leaf boundary
	// must still coalesce into one extent.
	for b := uint64(500); b < 530; b++ {
		r.Put(b, 9000+b)
	}
	ext := collect(r, 500, 30)
	if len(ext) != 1 || ext[0].Count != 30 {
		t.Fatalf("run across leaf boundary: %+v", ext)
	}
	// And one crossing the level-1 boundary (block 1<<18).
	lvl := uint64(1) << 18
	for b := lvl - 8; b < lvl+8; b++ {
		r.Put(b, 40000+b)
	}
	ext = collect(r, lvl-8, 16)
	if len(ext) != 1 || ext[0].Count != 16 {
		t.Fatalf("run across level boundary: %+v", ext)
	}
	checkAgainstGet(t, r, 400, 300)
}

func TestExtentsEmptyAndBeyondRange(t *testing.T) {
	r := NewRadix()
	ext := collect(r, 0, 10)
	if len(ext) != 1 || ext[0].Page != 0 || ext[0].Count != 10 {
		t.Fatalf("empty radix extents: %+v", ext)
	}
	if got := collect(r, 5, 0); len(got) != 0 {
		t.Fatalf("zero-count range yields %+v", got)
	}
	// Blocks at/after MaxBlocks read as holes instead of panicking.
	r.Put(MaxBlocks-2, 7)
	ext = collect(r, MaxBlocks-3, 6)
	pos := uint64(MaxBlocks - 3)
	total := 0
	for _, e := range ext {
		if e.Block != pos {
			t.Fatalf("extents %+v", ext)
		}
		pos += uint64(e.Count)
		total += e.Count
	}
	if total != 6 {
		t.Fatalf("extents cover %d blocks, want 6: %+v", total, ext)
	}
	if r.Get(MaxBlocks-2) != 7 {
		t.Fatal("lost mapping")
	}
}

func TestExtentsHoleSkipsAbsentSubtrees(t *testing.T) {
	r := NewRadix()
	r.Put(0, 1)
	far := uint64(3) << 18 // three level-0 buckets away
	r.Put(far, 2)
	ext := collect(r, 0, int(far)+1)
	want := []Extent{
		{Block: 0, Page: 1, Count: 1},
		{Block: 1, Page: 0, Count: int(far) - 1},
		{Block: far, Page: 2, Count: 1},
	}
	if len(ext) != len(want) {
		t.Fatalf("extents %+v, want %+v", ext, want)
	}
	for i := range want {
		if ext[i] != want[i] {
			t.Fatalf("extent[%d] = %+v, want %+v", i, ext[i], want[i])
		}
	}
}

func TestExtentsRandomizedAgainstGet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRadix()
	const span = 4096
	for i := 0; i < 2000; i++ {
		b := uint64(rng.Intn(span))
		if rng.Intn(4) == 0 {
			r.Delete(b)
		} else {
			// Values sometimes contiguous with neighbours, sometimes not.
			r.Put(b, uint64(rng.Intn(64))*1024+b)
		}
	}
	for i := 0; i < 200; i++ {
		start := uint64(rng.Intn(span))
		count := 1 + rng.Intn(span-int(start))
		checkAgainstGet(t, r, start, count)
	}
	// The same around the inline head's edge: a run laid across it, a
	// hole ending exactly at it, then random churn on both sides, with
	// every range starting in or just past the head.
	run := make([]uint64, 600)
	for j := range run {
		run[j] = 1<<20 + uint64(j)
	}
	r.PutRun(radixInline-3, run)
	r.PutRun(radixInline-5, []uint64{0, 0, 0, 0, 0}) // hole [edge-5, edge)
	checkAgainstGet(t, r, 0, 700)
	for i := 0; i < 400; i++ {
		b := uint64(rng.Intn(3 * radixInline))
		if rng.Intn(3) == 0 {
			r.Delete(b)
		} else {
			r.Put(b, uint64(rng.Intn(4))*1024+b)
		}
		start := uint64(rng.Intn(2 * radixInline))
		checkAgainstGet(t, r, start, 1+rng.Intn(700))
	}
}

func BenchmarkRadixRangeLookup(b *testing.B) {
	r := NewRadix()
	const blocks = 256 // 1 MiB of file at 4 KiB blocks
	for blk := uint64(0); blk < blocks; blk++ {
		r.Put(blk, 4096+blk)
	}
	b.Run("per-block-get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for blk := uint64(0); blk < blocks; blk++ {
				if r.Get(blk) == 0 {
					b.Fatal("lost mapping")
				}
			}
		}
	})
	b.Run("extent-iter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for it := r.Extents(0, blocks); it.Next(); {
				n += it.Ext.Count
			}
			if n != blocks {
				b.Fatalf("covered %d blocks", n)
			}
		}
	})
}
