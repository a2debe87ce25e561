// Package index provides the two auxiliary-state index structures of
// ArckFS's LibFS (paper §4.2): a per-file radix tree mapping file block
// numbers to NVM pages, and a resizable chained hash table with
// striped writer locks mapping directory-entry names to their location.
//
// Both structures live in DRAM (they are auxiliary state: discarded on
// unmap, rebuilt from core state on map) and are designed for
// read-mostly scalability: radix and hash lookups take no lock.
package index

import (
	"sync/atomic"
)

// radix parameters: 512-ary, three levels — covers 2^27 blocks
// (512 GiB of file at 4 KiB blocks), same shape as a hardware page
// table, which is what NOVA-style DRAM indexes mimic.
const (
	radixBits   = 9
	radixFanout = 1 << radixBits
	radixMask   = radixFanout - 1
	radixLevels = 3
)

// radixInline is the number of leading blocks (32 KiB of file) a Radix
// holds in its own struct instead of the tree: a file that small never
// allocates a node. The split is by key, fixed for the life of the
// Radix — there is no promotion step to race with the wait-free readers
// and nothing to migrate; the tree simply never sees a key below it.
const radixInline = 8

// InlineBlocks is radixInline for benchmarks and tests elsewhere that
// must aim past the inline head to measure or exercise the tree.
const InlineBlocks = radixInline

// MaxBlocks is the largest block number a Radix can hold.
const MaxBlocks = 1 << (radixBits * radixLevels)

// Radix maps a file block number to an opaque uint64 (a page ID in
// ArckFS; zero means "no mapping"). Lookups are wait-free; inserts
// allocate interior nodes with CAS and may run concurrently with
// lookups and with each other.
//
// Blocks below radixInline live in head; the tree's three 4 KiB nodes
// (root, mid, leaf) are allocated by the first insert at or beyond it,
// so empty and small files — the bulk of metadata-heavy workloads — pay
// for the struct only.
type Radix struct {
	head   [radixInline]uint64 // plain words, accessed through sync/atomic
	root   atomic.Pointer[radixRoot]
	count  atomic.Int64
	maxKey atomic.Uint64
}

func (r *Radix) rootNode() *radixRoot {
	if n := r.root.Load(); n != nil {
		return n
	}
	r.root.CompareAndSwap(nil, &radixRoot{})
	return r.root.Load()
}

// The three levels: child slots go from nil to a node once and never
// back, so a load after a lost CompareAndSwap finds the winner's node.
type radixRoot struct {
	children [radixFanout]atomic.Pointer[radixMid]
}

type radixMid struct {
	children [radixFanout]atomic.Pointer[radixLeaf]
}

// radixLeaf holds the values: plain words accessed through the
// sync/atomic functions rather than atomic.Uint64, so that PutRun can
// fill a leaf nobody else can see yet with ordinary stores.
type radixLeaf struct {
	vals [radixFanout]uint64
}

// NewRadix returns an empty radix tree.
func NewRadix() *Radix { return &Radix{} }

// Len reports the number of non-zero mappings.
func (r *Radix) Len() int { return int(r.count.Load()) }

// MaxKey reports the largest block number ever inserted (0 if empty —
// callers that need to distinguish use Len).
func (r *Radix) MaxKey() uint64 { return r.maxKey.Load() }

func radixIndex(key uint64, level int) int {
	shift := uint(radixBits * (radixLevels - 1 - level))
	return int(key>>shift) & radixMask
}

// Get returns the value at key, or 0 when unmapped.
func (r *Radix) Get(key uint64) uint64 {
	if key < radixInline {
		return atomic.LoadUint64(&r.head[key])
	}
	if key >= MaxBlocks {
		return 0
	}
	root := r.root.Load()
	if root == nil {
		return 0
	}
	mid := root.children[radixIndex(key, 0)].Load()
	if mid == nil {
		return 0
	}
	leaf := mid.children[radixIndex(key, 1)].Load()
	if leaf == nil {
		return 0
	}
	return atomic.LoadUint64(&leaf.vals[radixIndex(key, 2)])
}

// leafSlot returns the slot of the leaf covering key, creating the
// interior nodes above it.
func (r *Radix) leafSlot(key uint64) *atomic.Pointer[radixLeaf] {
	slot := &r.rootNode().children[radixIndex(key, 0)]
	mid := slot.Load()
	if mid == nil {
		slot.CompareAndSwap(nil, &radixMid{})
		mid = slot.Load()
	}
	return &mid.children[radixIndex(key, 1)]
}

// Put stores val at key. Storing zero is equivalent to Delete.
func (r *Radix) Put(key, val uint64) {
	one := [1]uint64{val}
	r.PutRun(key, one[:])
}

// PutRun stores vals[i] at key+i (a zero deletes). It descends once per
// leaf and settles Len and MaxKey once per call; a leaf the run creates
// is filled before it is published. Like Put it may run concurrently
// with lookups and other inserts.
func (r *Radix) PutRun(key uint64, vals []uint64) {
	if key >= MaxBlocks || uint64(len(vals)) > MaxBlocks-key {
		panic("index: radix key out of range")
	}
	delta, top := int64(0), uint64(0)
	// settle folds one stored value and the one it replaced into the
	// call's Len delta and MaxKey candidate.
	settle := func(key, v, old uint64) {
		if v != 0 {
			top = key
			if old == 0 {
				delta++
			}
		} else if old != 0 {
			delta--
		}
	}
	for ; key < radixInline && len(vals) > 0; key, vals = key+1, vals[1:] {
		settle(key, vals[0], atomic.SwapUint64(&r.head[key], vals[0]))
	}
	for len(vals) > 0 {
		i := radixIndex(key, 2)
		chunk := vals[:min(len(vals), radixFanout-i)]
		slot := r.leafSlot(key)
		leaf := slot.Load()
		mine := false
		if leaf == nil {
			fresh := &radixLeaf{}
			copy(fresh.vals[i:], chunk)
			if mine = slot.CompareAndSwap(nil, fresh); !mine {
				leaf = slot.Load()
			}
		}
		for j, v := range chunk {
			var old uint64
			if !mine {
				old = atomic.SwapUint64(&leaf.vals[i+j], v)
			}
			settle(key+uint64(j), v, old)
		}
		key += uint64(len(chunk))
		vals = vals[len(chunk):]
	}
	if delta != 0 {
		r.count.Add(delta)
	}
	for m := r.maxKey.Load(); top > m && !r.maxKey.CompareAndSwap(m, top); {
		m = r.maxKey.Load()
	}
}

// Delete removes the mapping at key.
func (r *Radix) Delete(key uint64) { r.Put(key, 0) }

// Extent is one coalesced run of the block→value mapping: Count blocks
// starting at Block whose values are consecutive starting at Page.
// Page==0 means a hole of Count unmapped blocks. Extent coalescing is
// what lets the datapath issue one device access per physically
// contiguous page run instead of one per 4 KiB block.
type Extent struct {
	Block uint64
	Page  uint64
	Count int
}

// ExtentIter walks the extents covering [start, start+count) in block
// order. It is a value type — declare it as a local and call Next in a
// loop — so the per-read hot path allocates nothing:
//
//	for it := r.Extents(first, count); it.Next(); {
//	    use(it.Ext)
//	}
//
// Like Get, iteration is lock-free and observes a best-effort snapshot
// under concurrent inserts. The iterator caches the current leaf, so a
// run within one leaf costs one atomic load per block, not a descent.
type ExtentIter struct {
	r    *Radix
	next uint64
	end  uint64

	leaf     *radixLeaf
	leafBase uint64
	// holeEnd is the exclusive end of a known-zero region when the
	// descent found a missing interior node; skipping to it makes holes
	// over absent subtrees O(1) instead of O(blocks).
	holeEnd uint64

	// Ext is the current extent, valid after Next returns true.
	Ext Extent
}

// Extents returns an iterator over the extents covering count blocks
// starting at start. Blocks at or beyond MaxBlocks read as holes.
func (r *Radix) Extents(start uint64, count int) ExtentIter {
	end := start + uint64(count)
	if count <= 0 {
		end = start
	}
	return ExtentIter{r: r, next: start, end: end}
}

// load returns the value at key, refreshing the cached leaf. A zero
// return with it.holeEnd > key means the whole region [key, holeEnd) is
// unmapped.
func (it *ExtentIter) load(key uint64) uint64 {
	if it.leaf == nil || it.leafBase != key&^uint64(radixMask) {
		// Off the cached leaf. Keys only ascend, so the head is only ever
		// read here, before any leaf is cached: the walk within a leaf —
		// the hot loop — pays nothing for it.
		if key < radixInline {
			return atomic.LoadUint64(&it.r.head[key])
		}
		if key >= MaxBlocks {
			it.leaf = nil
			it.holeEnd = ^uint64(0)
			return 0
		}
		it.leafBase = key &^ uint64(radixMask)
		it.leaf, it.holeEnd = it.r.leafFor(key)
		if it.leaf == nil {
			return 0
		}
	}
	return atomic.LoadUint64(&it.leaf.vals[int(key)&radixMask])
}

// leafFor descends to the leaf holding key (at or beyond radixInline).
// When an interior node is missing it returns nil and the exclusive end
// of the zero region the absence proves.
func (r *Radix) leafFor(key uint64) (*radixLeaf, uint64) {
	root := r.root.Load()
	if root == nil {
		return nil, MaxBlocks
	}
	n := root.children[radixIndex(key, 0)].Load()
	if n == nil {
		return nil, (key>>(2*radixBits) + 1) << (2 * radixBits)
	}
	leaf := n.children[radixIndex(key, 1)].Load()
	if leaf == nil {
		return nil, (key>>radixBits + 1) << radixBits
	}
	return leaf, 0
}

// Next advances to the next extent, returning false when the range is
// exhausted.
func (it *ExtentIter) Next() bool {
	if it.next >= it.end {
		return false
	}
	start := it.next
	v0 := it.load(start)
	pos := start + 1
	if v0 == 0 {
		if it.leaf == nil && it.holeEnd > pos {
			pos = it.holeEnd
			if pos > it.end {
				pos = it.end
			}
		}
		for pos < it.end {
			if it.load(pos) != 0 {
				break
			}
			if it.leaf == nil && it.holeEnd > pos+1 {
				pos = it.holeEnd
				if pos > it.end {
					pos = it.end
				}
				continue
			}
			pos++
		}
	} else {
		for pos < it.end {
			if it.load(pos) != v0+(pos-start) {
				break
			}
			pos++
		}
	}
	it.Ext = Extent{Block: start, Page: v0, Count: int(pos - start)}
	it.next = pos
	return true
}

// GetRange appends the extents covering count blocks from start to ext
// and returns it. The hot path uses Extents directly (no append); this
// is the convenient form for tests and cold callers.
func (r *Radix) GetRange(start uint64, count int, ext []Extent) []Extent {
	for it := r.Extents(start, count); it.Next(); {
		ext = append(ext, it.Ext)
	}
	return ext
}

// Range calls fn in ascending key order for every non-zero mapping
// until fn returns false. It observes a best-effort snapshot under
// concurrent mutation.
func (r *Radix) Range(fn func(key, val uint64) bool) {
	for key := range r.head {
		if v := atomic.LoadUint64(&r.head[key]); v != 0 && !fn(uint64(key), v) {
			return
		}
	}
	// The tree's first leaf keeps its natural indexing; its slots below
	// radixInline are never written, so no key is reported twice.
	root := r.root.Load()
	if root == nil {
		return
	}
	for i0 := 0; i0 < radixFanout; i0++ {
		n := root.children[i0].Load()
		if n == nil {
			continue
		}
		for i1 := 0; i1 < radixFanout; i1++ {
			n2 := n.children[i1].Load()
			if n2 == nil {
				continue
			}
			for i2 := 0; i2 < radixFanout; i2++ {
				v := atomic.LoadUint64(&n2.vals[i2])
				if v == 0 {
					continue
				}
				key := uint64(i0)<<(2*radixBits) | uint64(i1)<<radixBits | uint64(i2)
				if !fn(key, v) {
					return
				}
			}
		}
	}
}
