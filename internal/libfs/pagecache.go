package libfs

import (
	"math/bits"

	"trio/internal/nvm"
)

// pageCache is one CPU's free pages on one NUMA node, kept by 32-page
// granule (nvm.GranulePages) — the unit the controller grants, the MMU
// maps and the checksum region opens in one word each — so that data
// placement can give a growing file whole aligned granules (a 2 MiB file
// is 16 words to hand over, not 16 plus its ragged ends), and a granule
// whose pages all come back is whole again in O(1).
//
// A granule with free pages here is loose, data (a file's placement
// opened it: its free pages are where that file's next blocks go) or
// whole (all its pages free). Metadata and every fallback take loose
// pages first, then a data granule's, and break a whole granule last;
// nothing is reserved in a way that strands a page. All of it is
// untrusted LibFS policy: the controller checks none of it, and a LibFS
// that ignores it is only slower.
type pageCache struct {
	grans map[nvm.PageID]cacheGran // granule number -> its state here
	lists [noClass][]nvm.PageID    // the granules of each class
	n     int                      // free pages held
}

// cacheGran is one granule's state in a pageCache.
type cacheGran struct {
	free  uint32 // bit i: page 32g+i is free here
	class uint8
	slot  int32 // index in lists[class]
}

// The classes, in the order takeFree tries them.
const (
	classLoose = iota
	classData
	classWhole
	noClass
)

func granBit(p nvm.PageID) uint32 { return 1 << (p & (nvm.GranulePages - 1)) }

// put adds free page p.
func (pc *pageCache) put(p nvm.PageID) {
	if pc.grans == nil {
		pc.grans = make(map[nvm.PageID]cacheGran)
	}
	g := p >> nvm.GranuleShift
	e, ok := pc.grans[g]
	if !ok {
		e.class = noClass
	}
	e.free |= granBit(p)
	pc.n++
	class := e.class
	switch {
	case e.free == 1<<nvm.GranulePages-1:
		class = classWhole
	case class == noClass:
		class = classLoose
	}
	pc.settle(g, e, class)
}

// take removes free page p; data marks a take by data placement, which
// makes the granule the file's to fill.
func (pc *pageCache) take(p nvm.PageID, data bool) nvm.PageID {
	g := p >> nvm.GranuleShift
	e := pc.grans[g]
	e.free &^= granBit(p)
	pc.n--
	class := e.class
	switch {
	case e.free == 0:
		class = noClass
	case data:
		class = classData
	case class == classWhole:
		class = classLoose
	}
	pc.settle(g, e, class)
	return p
}

// settle stores granule g's state e in the given class.
func (pc *pageCache) settle(g nvm.PageID, e cacheGran, class uint8) {
	if class != e.class {
		if e.class != noClass {
			l := pc.lists[e.class]
			last := l[len(l)-1]
			l[e.slot] = last
			pc.lists[e.class] = l[:len(l)-1]
			if last != g {
				m := pc.grans[last]
				m.slot = e.slot
				pc.grans[last] = m
			}
		}
		if e.class = class; class != noClass {
			e.slot = int32(len(pc.lists[class]))
			pc.lists[class] = append(pc.lists[class], g)
		}
	}
	if e.free == 0 {
		delete(pc.grans, g)
		return
	}
	pc.grans[g] = e
}

// free reports whether the n pages from p on are free here.
func (pc *pageCache) free(p nvm.PageID, n int) bool {
	for q := p; q < p+nvm.PageID(n); q++ {
		if pc.grans[q>>nvm.GranuleShift].free&granBit(q) == 0 {
			return false
		}
	}
	return true
}

// takeWhole opens a whole granule for data and returns its first page.
func (pc *pageCache) takeWhole() (nvm.PageID, bool) {
	l := pc.lists[classWhole]
	if len(l) == 0 {
		return 0, false
	}
	return pc.take(l[len(l)-1]<<nvm.GranuleShift, true), true
}

// takeFree takes the first page of n consecutive free pages of one
// granule (0 < n ≤ 32), so that a run placed together stays physically
// contiguous, looking at the last few granules of each class in class
// order; data is as for take. It reports false when none has such a
// stretch — for n = 1, only when the cache is empty.
func (pc *pageCache) takeFree(n int, data bool) (nvm.PageID, bool) {
	const scan = 8
	for _, l := range pc.lists {
		for i := len(l) - 1; i >= max(0, len(l)-scan); i-- {
			free := pc.grans[l[i]].free
			starts := free
			for j := 1; j < n; j++ {
				starts &= free >> j
			}
			if starts != 0 {
				return pc.take(l[i]<<nvm.GranuleShift+nvm.PageID(bits.TrailingZeros32(starts)), data), true
			}
		}
	}
	return 0, false
}
