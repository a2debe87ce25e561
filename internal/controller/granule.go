package controller

import (
	"trio/internal/core"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// The checksum region's open bitmap (core/checksum.go) and the granule
// lifecycle around it (DESIGN.md §5a states the ordering rules): a bit is
// written and persisted before the grant's one fence; a closed granule's
// bit is pended once the reseals of its stored pages are persisted, and
// cleared only after a fence issued later returns — the next grant's or a
// scrub pass's; a re-open of a pended granule takes the bit back as it
// stands. A bit left set only costs a reseal at mount; one cleared early
// would be a trusted stale CRC. The mirror (bitMu) is what the controller
// last wrote.

// setGranuleBits makes the open bit of every granule of gran (runs of
// granule numbers) durable — written and persisted; the caller fences. A
// bit waiting to clear stays set instead. It reports whether it wrote.
func (c *Controller) setGranuleBits(gran []pageRun) bool {
	c.bitMu.Lock()
	lo, hi := -1, -1
	for _, r := range gran {
		for g := r.start; g < r.end(); g++ {
			w, bit := core.GranuleBit(granuleStart(g))
			switch {
			case c.pend[w]&bit != 0:
				if c.pend[w] &^= bit; c.pend[w] == 0 {
					c.pendWords.Add(-1)
				}
			case c.bits[w]&bit == 0:
				c.bits[w] |= bit
				if lo < 0 || w < lo {
					lo = w
				}
				hi = max(hi, w)
			}
		}
	}
	if lo < 0 {
		c.bitMu.Unlock()
		return false
	}
	hp, off, n := c.writeGranuleWordsLocked(lo, hi)
	c.bitMu.Unlock()
	c.dev.PersistRange(hp, off, n) // a grant's opens are not fatal to it (openGrantedLocked)
	return true
}

// pendGranules marks the open bits of the closed granules gs — every page
// they stored to is resealed and persisted — for clearing after the next
// fence.
func (c *Controller) pendGranules(gs []nvm.PageID) {
	if len(gs) == 0 {
		return
	}
	c.bitMu.Lock()
	t := c.fences.Load()
	for _, g := range gs {
		w, bit := core.GranuleBit(granuleStart(g))
		if c.bits[w]&bit == 0 {
			continue
		}
		if c.pend[w] == 0 {
			c.pendWords.Add(1)
		}
		c.pend[w] |= bit
		c.pendAt[w] = t
	}
	c.bitMu.Unlock()
}

// clearGranuleBits clears the pended bits a returned fence with the given
// ticket ordered behind their granules' reseals, and persists the words.
func (c *Controller) clearGranuleBits(ticket uint64) {
	if c.pendWords.Load() == 0 {
		return
	}
	c.bitMu.Lock()
	lo, hi := -1, -1
	for w, p := range c.pend {
		if p == 0 || c.pendAt[w] >= ticket {
			continue
		}
		c.bits[w] &^= p
		c.pend[w] = 0
		c.pendWords.Add(-1)
		if lo < 0 {
			lo = w
		}
		hi = w
	}
	if lo < 0 {
		c.bitMu.Unlock()
		return
	}
	hp, off, n := c.writeGranuleWordsLocked(lo, hi)
	c.bitMu.Unlock()
	c.dev.PersistRange(hp, off, n)
}

// writeGranuleWordsLocked (bitMu held) writes mirror words [lo, hi] to
// the media and returns their span for the caller to persist. A word
// that fails to write reads as before: set, or clear with nothing to
// cover.
func (c *Controller) writeGranuleWordsLocked(lo, hi int) (nvm.PageID, int, int) {
	total := c.dev.NumPages()
	for w := lo; w <= hi; w++ {
		hp, off := core.GranuleWordLoc(total, w)
		c.mem.WriteU64(hp, off, c.bits[w])
	}
	hp, off := core.GranuleWordLoc(total, lo)
	return hp, off, 8 * (hi + 1 - lo)
}

// closeGranules ends the open state of the granules a seal just closed
// whose reseal went through and which nobody re-opened meanwhile, and
// pends their bits.
func (c *Controller) closeGranules(closed []nvm.PageID) {
	if len(closed) == 0 {
		return
	}
	done := closed[:0]
	c.tabMu.Lock()
	for _, g := range closed {
		if st := &c.gran[g]; st.ino != 0 && st.open == 0 && st.stored == 0 {
			st.ino = 0
			done = append(done, g)
		}
	}
	c.tabMu.Unlock()
	c.pendGranules(done)
}

// splitGranule turns open granule g back into per-page records — each
// opened durably, so ahead of the fence the bit's clear needs — and pends
// the bit: a page is leaving the file the bit was set for. The grants
// that held the granule whole drain per page; a grant that opens it by
// its bit again leaves its records to the close (granState.split). The
// caller holds the lock its file's records serialize under.
func (c *Controller) splitGranule(g nvm.PageID) {
	c.tabMu.Lock()
	active := c.gran[g].ino != 0
	c.tabMu.Unlock()
	if !active {
		return
	}
	c.openSegment(c.dev.NumPages(), pageRun{start: granuleStart(g), n: nvm.GranulePages})
	c.tabMu.Lock()
	c.gran[g].ino, c.gran[g].stored, c.gran[g].split = 0, 0, true
	c.tabMu.Unlock()
	c.pendGranules([]nvm.PageID{g})
}

// settleGranulesLocked closes the granules of runs that no grant holds
// but whose reseals a teardown, a recovery or a removal left to later —
// the straggler path of the open bits. The caller holds the locks of the
// files runs belongs to, and clears the pended bits when it is done
// (clearPendingGranules).
func (c *Controller) settleGranulesLocked(runs []pageRun) {
	var lazy []pageRun
	c.tabMu.Lock()
	for _, r := range runs {
		for g := (r.start + nvm.GranulePages - 1) >> nvm.GranuleShift; granuleStart(g+1) <= r.end(); g++ {
			if st := &c.gran[g]; st.ino != 0 && st.open == 0 {
				lazy = appendRun(lazy, granuleStart(g), nvm.GranulePages)
			}
		}
	}
	c.tabMu.Unlock()
	c.sealQuiescentLocked(lazy, nil, telemetry.Span{})
}

// clearPendingGranules clears every pended open bit behind a fence of its
// own: a scrub pass's, which no grant is waiting for.
func (c *Controller) clearPendingGranules() {
	if c.pendWords.Load() > 0 {
		c.clearGranuleBits(c.fence())
	}
}

// expandGranulesLocked settles the open bits at mount and after a crash:
// the media bitmap is read back into the mirror, and every granule it
// leaves open — or that DRAM still has open — with no grant holding it
// is resealed whole from its content (pages a session still write-maps
// keep the records their grants opened) and its bit cleared behind a
// fence. A granule a grant still holds keeps its bit, written again if
// the crash lost it.
func (c *Controller) expandGranulesLocked() {
	total := c.dev.NumPages()
	base := core.ChecksumBase(total)
	c.bitMu.Lock()
	for w := range c.bits {
		hp, off := core.GranuleWordLoc(total, w)
		v, err := c.mem.ReadU64(hp, off)
		if err != nil {
			v = ^uint64(0) // unreadable: every granule of the word is open
		}
		c.bits[w], c.pend[w] = v, 0
	}
	c.pendWords.Store(0)
	c.bitMu.Unlock()

	var expand, hold []pageRun
	var stray []nvm.PageID
	c.tabMu.Lock()
	for i := range c.gran {
		g := nvm.PageID(i)
		st := &c.gran[g]
		w, bit := core.GranuleBit(granuleStart(g))
		set := c.bits[w]&bit != 0
		switch {
		case st.ino != 0 && st.open > 0:
			if !set {
				hold = appendRun(hold, g, 1)
			}
		case granuleStart(g+1) > base || st.open > 0:
			// No granule of the region's own pages ever opens, and a split
			// one's records are open already: nothing to reseal.
			if set {
				stray = append(stray, g)
			}
		case set || st.ino != 0:
			st.ino, st.stored = expandIno, ^uint32(0)
			expand = appendRun(expand, granuleStart(g), nvm.GranulePages)
		}
	}
	c.tabMu.Unlock()
	c.setGranuleBits(hold)
	c.sealQuiescentLocked(expand, nil, telemetry.Span{})
	c.pendGranules(stray)
	c.clearGranuleBits(c.fence())
}

// expandIno is the owner an expanded granule is opened for (no file has
// it) until its close reseals every page.
const expandIno = ^core.Ino(0)

// scrubBusyLocked (tabMu held) reports whether page p's record cannot be
// audited now: some session holds write permission on the page, or its
// granule's close still owes it a reseal (its record, sealed, may be
// stale). Sessions that died but were not reaped yet still count —
// conservative: their pages stay unsealed until the reaper settles them.
func (c *Controller) scrubBusyLocked(p nvm.PageID) bool {
	return c.writeRefsAt(p) > 0 || c.gran[p>>nvm.GranuleShift].stored&granuleMask(p) != 0
}
