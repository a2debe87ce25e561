// Package alloc implements the DRAM-resident NVM page allocator and
// inode-number allocator (paper §4.5): free space is kept in red-black
// trees of extents, sharded per CPU so that allocation scales, exactly
// as in NOVA/WineFS — with the difference that in Trio the allocator
// state is auxiliary: it can always be rebuilt by scanning which pages
// the existing files reference.
package alloc

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"trio/internal/nvm"
	"trio/internal/rbtree"
	"trio/internal/telemetry"
)

// PageAlloc hands out NVM pages from a fixed range [lo, hi). The range
// is split into one shard per CPU; a CPU allocates from its home shard
// and steals from neighbours when empty. Freed pages return to the
// shard owning their address so extents re-coalesce.
//
// In front of each shard sits a small per-CPU magazine — a bounded
// stack of ready pages refilled in bulk from the shard's extent tree —
// so the common small allocation is a mutex-protected pop instead of a
// tree carve. Magazine pages still count as free (Free() is exact);
// the slow path raids other CPUs' magazines before declaring
// exhaustion, so magazines never strand the last pages.
type PageAlloc struct {
	lo, hi nvm.PageID
	per    int // shard width in pages; last shard takes the remainder
	shards []allocShard
	mags   []magazine
	free   atomic.Int64
}

type allocShard struct {
	mu sync.Mutex
	// extents maps extent start -> page count.
	extents rbtree.Tree[uint64]
	lo, hi  nvm.PageID
	_       [32]byte // soften false sharing between shard locks
}

// Magazine geometry: capacity bounds how many pages a CPU can hoard;
// the refill size amortizes one tree carve over that many fast pops.
const (
	magCap    = 64
	magRefill = 32
)

// magazine holds single free pages in DESCENDING page order, so tail
// pops hand out ascending — physically contiguous when the refill came
// from one extent — page runs, which the datapath coalesces into range
// operations.
type magazine struct {
	mu    sync.Mutex
	pages []nvm.PageID
	_     [32]byte
}

// NewPageAlloc creates an allocator over [lo, hi) with the given shard
// (CPU) count.
func NewPageAlloc(lo, hi nvm.PageID, cpus int) *PageAlloc {
	if cpus <= 0 {
		cpus = 1
	}
	if hi < lo {
		hi = lo
	}
	total := int(hi - lo)
	if total < cpus {
		cpus = 1
	}
	a := &PageAlloc{lo: lo, hi: hi, shards: make([]allocShard, cpus), mags: make([]magazine, cpus)}
	per := total / cpus
	a.per = per
	start := lo
	for i := range a.shards {
		end := start + nvm.PageID(per)
		if i == cpus-1 {
			end = hi
		}
		s := &a.shards[i]
		s.lo, s.hi = start, end
		if end > start {
			s.extents.Insert(uint64(start), uint64(end-start))
		}
		start = end
	}
	a.free.Store(int64(total))
	return a
}

// Free reports the number of free pages.
func (a *PageAlloc) Free() int { return int(a.free.Load()) }

// shardOf routes an address to the shard owning it in O(1): shards are
// fixed-width (the last takes the remainder), so the index is a
// division. Out-of-range addresses fall to the last shard, matching the
// old linear scan's fallback.
func (a *PageAlloc) shardOf(p nvm.PageID) *allocShard {
	last := len(a.shards) - 1
	if a.per == 0 || p < a.lo {
		return &a.shards[last]
	}
	i := int(p-a.lo) / a.per
	if i > last {
		i = last
	}
	return &a.shards[i]
}

// takeLocked carves up to n pages out of s; s.mu must be held.
func (s *allocShard) takeLocked(n int, out []nvm.PageID) []nvm.PageID {
	for n > 0 {
		start, count, ok := s.extents.Min()
		if !ok {
			break
		}
		take := n
		if take > int(count) {
			take = int(count)
		}
		s.extents.Delete(start)
		if int(count) > take {
			s.extents.Insert(start+uint64(take), count-uint64(take))
		}
		for i := 0; i < take; i++ {
			out = append(out, nvm.PageID(start)+nvm.PageID(i))
		}
		n -= take
	}
	return out
}

// pop moves up to n pages from the magazine to out. Tail pops of the
// descending store yield ascending page IDs.
func (m *magazine) pop(n int, out []nvm.PageID) []nvm.PageID {
	m.mu.Lock()
	take := n
	if k := len(m.pages); take > k {
		take = k
	}
	for i := 0; i < take; i++ {
		out = append(out, m.pages[len(m.pages)-1-i])
	}
	m.pages = m.pages[:len(m.pages)-take]
	m.mu.Unlock()
	return out
}

// refill tops the magazine up from the home shard's extent tree. The
// pages stay counted as free — they just move closer to the CPU.
func (a *PageAlloc) refill(home int) {
	m := &a.mags[home]
	m.mu.Lock()
	want := magRefill - len(m.pages)
	m.mu.Unlock()
	if want <= 0 {
		return
	}
	s := &a.shards[home]
	grab := make([]nvm.PageID, 0, want)
	s.mu.Lock()
	grab = s.takeLocked(want, grab)
	s.mu.Unlock()
	if len(grab) == 0 {
		return
	}
	mMagRefills.IncOn(home)
	m.mu.Lock()
	// grab is ascending; push reversed to keep the descending invariant.
	for i := len(grab) - 1; i >= 0; i-- {
		if len(m.pages) >= magCap {
			grab = grab[:i+1]
			break
		}
		m.pages = append(m.pages, grab[i])
		grab = grab[:i]
	}
	m.mu.Unlock()
	if len(grab) > 0 {
		// Didn't fit (racing refills); hand the rest back to the tree.
		s.mu.Lock()
		for _, p := range grab {
			s.insertLocked(uint64(p), 1)
		}
		s.mu.Unlock()
	}
}

// takeGranulesLocked carves up to k aligned granules (nvm.GranulePages
// pages, what the MMU maps in one word) out of s's extents in [lo, hi),
// first fit; s.mu held. The heads and tails it leaves serve small
// requests: placement at two sizes, designed in (WineFS's rule).
func (s *allocShard) takeGranulesLocked(lo, hi uint64, k int, out []nvm.PageID) []nvm.PageID {
	const gp = nvm.GranulePages
	for next := lo; k > 0; {
		start, count, ok := s.extents.Floor(next)
		if !ok || start+count <= next {
			if start, count, ok = s.extents.Ceil(next); !ok {
				break
			}
		}
		a := (max(start, lo) + gp - 1) &^ (gp - 1)
		end := min(start+count, hi)
		if a >= end || end-a < gp {
			if next = start + count; next >= hi {
				break
			}
			continue
		}
		t := min(uint64(k), (end-a)/gp)
		s.extents.Delete(start)
		if a > start {
			s.extents.Insert(start, a-start)
		}
		next = a + t*gp
		if next < start+count {
			s.extents.Insert(next, start+count-next)
		}
		for p := a; p < next; p++ {
			out = append(out, nvm.PageID(p))
		}
		k -= int(t)
	}
	return out
}

// AllocPages allocates n pages, preferring the caller's home shard.
// The result pages are not necessarily contiguous. On exhaustion it
// frees nothing and returns an error.
//
// The fast path for small n is a pop from the per-CPU magazine; the
// slow path carves from the shard trees (home first, then stealing),
// refills the magazine while it holds the home shard anyway, and as a
// last resort raids other CPUs' magazines so hoarded pages never cause
// a spurious out-of-space error. A request of k·nvm.GranulePages pages
// skips the magazine: it is carved as k aligned granules wherever the
// shard trees hold them, and what they cannot cover as any other
// request.
func (a *PageAlloc) AllocPages(cpu, n int) ([]nvm.PageID, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]nvm.PageID, 0, n)
	home := cpu % len(a.shards)
	if home < 0 {
		home = 0
	}
	granules := n%nvm.GranulePages == 0
	for i := 0; granules && i < len(a.shards) && len(out) < n; i++ {
		s := &a.shards[(home+i)%len(a.shards)]
		s.mu.Lock()
		before := len(out)
		out = s.takeGranulesLocked(uint64(s.lo), uint64(s.hi), (n-len(out))/nvm.GranulePages, out)
		s.mu.Unlock()
		if len(out) > before {
			mTreeCarves.IncOn(cpu)
		}
	}
	if n <= magCap && !granules {
		out = a.mags[home].pop(n, out)
		if len(out) == n {
			a.free.Add(-int64(n))
			if telemetry.On() {
				mMagHits.IncOn(cpu)
				mAllocPages.AddOn(cpu, int64(n))
			}
			return out, nil
		}
	}
	for i := 0; i < len(a.shards) && len(out) < n; i++ {
		s := &a.shards[(home+i)%len(a.shards)]
		s.mu.Lock()
		before := len(out)
		out = s.takeLocked(n-len(out), out)
		if len(out) > before {
			mTreeCarves.IncOn(cpu)
		}
		s.mu.Unlock()
	}
	for i := 0; i < len(a.mags) && len(out) < n; i++ {
		// Raid magazines (home last — it was already popped above).
		before := len(out)
		out = a.mags[(home+1+i)%len(a.mags)].pop(n-len(out), out)
		if len(out) > before {
			mMagRaids.IncOn(cpu)
		}
	}
	if len(out) < n {
		// Return the partial grab; its pages were never debited from
		// the free counter, so debit first to keep FreePages' credit
		// net-zero.
		a.free.Add(-int64(len(out)))
		a.FreePages(out)
		return nil, fmt.Errorf("alloc: out of NVM pages (want %d, found %d)", n, len(out))
	}
	a.free.Add(-int64(n))
	mAllocPages.AddOn(cpu, int64(n))
	if n <= magCap {
		// The fast path missed; top the magazine up so the next small
		// allocations pop instead of carving the tree.
		a.refill(home)
	}
	return out, nil
}

// takeRangeLocked carves up to n pages out of s restricted to the page
// range [lo, hi); s.mu must be held.
func (s *allocShard) takeRangeLocked(lo, hi uint64, n int, out []nvm.PageID) []nvm.PageID {
	for n > 0 {
		start, count, ok := s.extents.Floor(hi - 1)
		if !ok || start+count <= lo {
			// Floor may sit wholly below the range; a Ceil from lo can
			// still land inside.
			if start2, count2, ok2 := s.extents.Ceil(lo); ok2 && start2 < hi {
				start, count, ok = start2, count2, true
			} else {
				break
			}
		}
		segLo := start
		if segLo < lo {
			segLo = lo
		}
		segHi := start + count
		if segHi > hi {
			segHi = hi
		}
		if segLo >= segHi {
			break
		}
		take := n
		if take > int(segHi-segLo) {
			take = int(segHi - segLo)
		}
		s.extents.Delete(start)
		if segLo > start {
			s.extents.Insert(start, segLo-start)
		}
		if end := start + count; segLo+uint64(take) < end {
			s.extents.Insert(segLo+uint64(take), end-segLo-uint64(take))
		}
		for i := 0; i < take; i++ {
			out = append(out, nvm.PageID(segLo)+nvm.PageID(i))
		}
		n -= take
	}
	return out
}

// AllocPagesOnNode allocates n pages whose NUMA node (per dev geometry)
// is node. Used by the striping datapath. Falls back to any node when
// the preferred node is exhausted.
func (a *PageAlloc) AllocPagesOnNode(dev *nvm.Device, cpu, n, node int) ([]nvm.PageID, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]nvm.PageID, 0, n)
	home := cpu % len(a.shards)
	if home < 0 {
		home = 0
	}
	// The node's page range; only pages inside it are taken in the
	// node-local pass, even from shards straddling a node boundary.
	nodePages := uint64(dev.NumPages()) / uint64(dev.Nodes())
	rangeLo := uint64(node) * nodePages
	rangeHi := rangeLo + nodePages
	for i := 0; i < len(a.shards) && len(out) < n; i++ {
		s := &a.shards[(home+i)%len(a.shards)]
		if s.hi == s.lo || uint64(s.hi) <= rangeLo || uint64(s.lo) >= rangeHi {
			continue
		}
		s.mu.Lock()
		if n%nvm.GranulePages == 0 { // aligned granules first, as AllocPages carves them
			out = s.takeGranulesLocked(max(rangeLo, uint64(s.lo)), min(rangeHi, uint64(s.hi)), (n-len(out))/nvm.GranulePages, out)
		}
		out = s.takeRangeLocked(rangeLo, rangeHi, n-len(out), out)
		s.mu.Unlock()
	}
	a.free.Add(-int64(len(out))) // debit the node-local grab
	if len(out) > 0 && telemetry.On() {
		mTreeCarves.IncOn(cpu)
		mAllocPages.AddOn(cpu, int64(len(out)))
	}
	if len(out) < n {
		// Fall back to the general allocator for the remainder.
		rest, err := a.AllocPages(cpu, n-len(out))
		if err != nil {
			a.FreePages(out)
			return nil, err
		}
		out = append(out, rest...)
	}
	return out, nil
}

// FreePages returns pages to the allocator, coalescing extents. The
// batch is sorted and merged into contiguous runs first, so freeing a
// large file costs a handful of tree operations rather than one per
// page.
func (a *PageAlloc) FreePages(pages []nvm.PageID) {
	if len(pages) == 0 {
		return
	}
	sorted := make([]nvm.PageID, len(pages))
	copy(sorted, pages)
	slices.Sort(sorted)
	// The extent trees panic on overlapping frees (insertLocked); extend
	// the same double-free guard to magazine-held pages, which are free
	// but absent from the trees.
	for i := range a.mags {
		m := &a.mags[i]
		m.mu.Lock()
		for _, p := range m.pages {
			if _, ok := slices.BinarySearch(sorted, p); ok {
				m.mu.Unlock()
				panic(fmt.Sprintf("alloc: double free of page %d: still in magazine %d", p, i))
			}
		}
		m.mu.Unlock()
	}
	i := 0
	for i < len(sorted) {
		start := sorted[i]
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[j-1]+1 {
			j++
		}
		// Split the run at shard boundaries so each piece lands in the
		// shard owning its addresses.
		runStart, runEnd := start, sorted[j-1]+1
		for runStart < runEnd {
			s := a.shardOf(runStart)
			end := runEnd
			if s.hi < end {
				end = s.hi
			}
			s.mu.Lock()
			s.insertLocked(uint64(runStart), uint64(end-runStart))
			s.mu.Unlock()
			runStart = end
		}
		i = j
	}
	a.free.Add(int64(len(pages)))
	mFreePages.AddOn(int(pages[0]), int64(len(pages)))
}

// insertLocked adds [start, start+count) to the free set, merging with
// the neighbouring extents when adjacent.
func (s *allocShard) insertLocked(start, count uint64) {
	if ps, pc, ok := s.extents.Floor(start); ok && start < ps+pc {
		panic(fmt.Sprintf("alloc: double free of pages [%d,%d): overlaps free extent [%d,%d)", start, start+count, ps, ps+pc))
	}
	if ns, nc, ok := s.extents.Ceil(start); ok && ns < start+count {
		panic(fmt.Sprintf("alloc: double free of pages [%d,%d): overlaps free extent [%d,%d)", start, start+count, ns, ns+nc))
	}
	// Merge with predecessor.
	if ps, pc, ok := s.extents.Floor(start); ok && ps+pc == start {
		s.extents.Delete(ps)
		start, count = ps, pc+count
	}
	// Merge with successor.
	if ns, nc, ok := s.extents.Ceil(start + count); ok && ns == start+count {
		s.extents.Delete(ns)
		count += nc
	}
	s.extents.Insert(start, count)
}

// Reserve removes a specific page from the free set, reporting whether
// it was free. Used when re-mounting a populated device: the scan of
// the existing file tree reserves every page the core state references.
func (a *PageAlloc) Reserve(p nvm.PageID) bool {
	if p < a.lo || p >= a.hi {
		return false
	}
	s := a.shardOf(p)
	s.mu.Lock()
	start, count, ok := s.extents.Floor(uint64(p))
	if ok && uint64(p) < start+count {
		s.extents.Delete(start)
		if uint64(p) > start {
			s.extents.Insert(start, uint64(p)-start)
		}
		if end := start + count; uint64(p)+1 < end {
			s.extents.Insert(uint64(p)+1, end-uint64(p)-1)
		}
		s.mu.Unlock()
		a.free.Add(-1)
		return true
	}
	s.mu.Unlock()
	// Not in the tree — it may sit in a magazine.
	for i := range a.mags {
		m := &a.mags[i]
		m.mu.Lock()
		for j, q := range m.pages {
			if q == p {
				m.pages = append(m.pages[:j], m.pages[j+1:]...)
				m.mu.Unlock()
				a.free.Add(-1)
				return true
			}
		}
		m.mu.Unlock()
	}
	return false
}

// Extents reports the extent count of every shard (test/stats hook —
// a well-coalesced allocator has few extents).
func (a *PageAlloc) Extents() int {
	n := 0
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		n += s.extents.Len()
		s.mu.Unlock()
	}
	return n
}

// InoAlloc allocates inode numbers. Each CPU reserves a batch from the
// shared counter and serves from it locally, so the common path is a
// single uncontended increment.
type InoAlloc struct {
	next    atomic.Uint64
	batches []inoBatch
}

type inoBatch struct {
	mu       sync.Mutex
	next, hi uint64
	_        [40]byte
}

const inoBatchSize = 128

// NewInoAlloc creates an inode-number allocator starting after
// firstFree-1 with the given CPU count.
func NewInoAlloc(firstFree uint64, cpus int) *InoAlloc {
	if cpus <= 0 {
		cpus = 1
	}
	a := &InoAlloc{batches: make([]inoBatch, cpus)}
	a.next.Store(firstFree)
	return a
}

// Alloc returns a fresh, never-before-issued inode number.
func (a *InoAlloc) Alloc(cpu int) uint64 {
	b := &a.batches[cpu%len(a.batches)]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.next == b.hi {
		b.next = a.next.Add(inoBatchSize) - inoBatchSize
		b.hi = b.next + inoBatchSize
	}
	ino := b.next
	b.next++
	return ino
}
