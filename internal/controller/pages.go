package controller

import (
	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// The page ledger (DESIGN.md §5a "One page ledger"). A file page is in
// exactly one of four states:
//
//   - free: the allocator's;
//   - pooled: in a session's pool (libfsState.allocPages), bound to nothing;
//   - parked: on a session for a file (libfsState.parked) — lent to the
//     file's grants or departed from it — until the session's teardown;
//   - bound: in one file's set (fileState.pages), pageOwner naming the file.
//
// Five moves change a page's state, one function each below, and nothing
// else writes pageOwner, allocPages or parked (TestPageLedgerOnly). Every
// binder — the mount scan, a commit, an adoption, teardown's stray sweep —
// binds under bindLocked's one rule.

// poolLocked (free → pooled) puts pages in ls's pool, writable to it
// (writableLocked).
func (c *Controller) poolLocked(ls *libfsState, pages []nvm.PageID) {
	var buf [8]pageRun // a batch is a handful of runs: off the heap
	runs := buf[:0]
	for _, p := range pages {
		runs = appendPage(runs, p)
		ls.allocPages[p] = true
		c.tracePage(p, "pool ls=%d", ls.id)
	}
	c.writableLocked(ls, normalizeRuns(runs))
}

// writableLocked gives ls a write reference on the pages of runs, their
// checksum records opened first (openGrantedLocked).
func (c *Controller) writableLocked(ls *libfsState, runs []pageRun) {
	c.openGrantedLocked(runs, nil, nil)
	ls.refRunsLocked(runs, mmu.PermWrite)
}

// lendLocked (pooled → parked) parks pool page p of o on fs, whose grant
// takes it in (clipGrantLocked): o's teardown takes it out of fs's
// mappings before the allocator gets it.
func (c *Controller) lendLocked(o *libfsState, p nvm.PageID, fs *fileState) {
	delete(o.allocPages, p)
	o.parked[p] = fs.ino
	c.tracePage(p, "lend ino=%d ls=%d", fs.ino, o.id)
}

// bindLocked (pooled or parked → bound) is the one bind rule, over the
// pages of runs: a page joins fs only when no file owns it and either the
// mount scan reached it (attr nil) or it sits in the pool or parked set of
// attr(p), the session it is attributed to (adderLocked — the verifier's
// I2 rule, envImpl.PageAllocated). A page parked on another file first
// leaves that file's holders; its pool reference moves to the session's
// open mapping of fs, or is dropped. A refused page stays out of fs.pages
// and the file's next full walk reports it (I2). fs.pages takes the bound
// pages in one merge, into a new slice.
func (c *Controller) bindLocked(fs *fileState, runs []pageRun, attr func(nvm.PageID) *libfsState) {
	var buf [4]pageRun
	bound := buf[:0]
	for _, r := range runs {
		for p := r.start; p < r.end(); p++ {
			if _, owned := c.ownerOf(p); owned {
				continue
			}
			if attr == nil {
				c.pageAlloc.Reserve(p)
			} else if o := attr(p); o == nil || !o.pooled(p) {
				continue
			} else {
				if left := c.fileOf(o.parked[p]); left != nil && left != fs {
					c.dropFromHoldersLocked(left, p, nil)
				}
				delete(o.allocPages, p)
				delete(o.parked, p)
				if om := o.mapped[fs.ino]; om != nil && runsFind(om.runs, p) < 0 {
					om.runs = runsAdd(om.runs, p)
				} else {
					o.unrefPageLocked(p) // no mapping to move to, or it holds the page already
				}
			}
			c.tabMu.Lock()
			c.pageOwner[p] = fs.ino
			c.tabMu.Unlock()
			bound = appendPage(bound, p)
			c.tracePage(p, "bind ino=%d", fs.ino)
		}
	}
	if len(bound) > 0 {
		fs.pages = normalizeRuns(append(fs.pages[:len(fs.pages):len(fs.pages)], bound...))
	}
}

// parkLocked (bound → parked) takes the pages of runs (normal form, in
// fs.pages) out of fs and parks them on ls until its teardown
// (libfsState.parked). A reference ls's mapping of fs holds moves with its
// page; no other is taken. It returns the pages the mapping did not hold,
// for a caller that must keep ls able to store to them (commitPagesLocked).
func (c *Controller) parkLocked(fs *fileState, ls *libfsState, runs []pageRun) (unheld []pageRun) {
	for _, r := range runs {
		for p := r.start; p < r.end(); p++ {
			c.clearPageOwner(p)
			ls.parked[p] = fs.ino
			c.tracePage(p, "park ino=%d ls=%d", fs.ino, ls.id)
		}
	}
	fs.pages, unheld = runsDiff(nil, fs.pages, runs), runs
	if m := ls.mapped[fs.ino]; m != nil {
		unheld, m.runs = runsDiff(nil, runs, m.runs), runsDiff(nil, m.runs, runs)
	}
	return unheld
}

// freeLocked (pooled, parked or bound → free) takes page p of ls out of
// the ledger and reports whether it was ls's to free: in its pool or
// parked set, or bound to a file ls write-maps (a truncate — which no
// index store reports, so the file's facts go). The page leaves every
// mapping of the file it was parked on or bound to, a bound page all but
// ls's own, and ls's reference. The caller hands the pages to the
// allocator in one batch.
func (c *Controller) freeLocked(ls *libfsState, p nvm.PageID) bool {
	switch {
	case ls.allocPages[p]:
		delete(ls.allocPages, p)
	case ls.parked[p] != 0:
		if fs := c.fileOf(ls.parked[p]); fs != nil {
			c.dropFromHoldersLocked(fs, p, nil)
		}
		delete(ls.parked, p)
	default:
		ino, _ := c.ownerOf(p)
		m := ls.mapped[ino]
		if m == nil || !m.write {
			return false
		}
		m.fs.pages = runsRemove(m.fs.pages, p)
		c.voidFactsLocked(m.fs)
		c.clearPageOwner(p)
		c.dropFromHoldersLocked(m.fs, p, ls)
	}
	ls.unrefPageLocked(p)
	c.tracePage(p, "free ls=%d", ls.id)
	return true
}

// clearPageOwner unbinds page p; the facts of the file it leaves go with
// it, and so does its granule's open bit, if the file's grants opened the
// granule by it: an open granule stays whole in its file (splitGranule).
// The caller holds the lock the file's records serialize under.
func (c *Controller) clearPageOwner(p nvm.PageID) {
	c.tabMu.Lock()
	c.pageOwner[p] = 0
	c.facts[p] = false
	c.tabMu.Unlock()
	c.splitGranule(p >> nvm.GranuleShift)
}

// pageOwnerAt reads the file page p is bound to (0 = none), bounds-checked
// for pages named by untrusted core state or location hints. The caller
// supplies the locking (tabMu or an exclusive lock set).
func (c *Controller) pageOwnerAt(p nvm.PageID) core.Ino {
	if int(p) >= len(c.pageOwner) {
		return 0
	}
	return c.pageOwner[p]
}

// ownerOf is pageOwnerAt taking tabMu.
func (c *Controller) ownerOf(p nvm.PageID) (core.Ino, bool) {
	c.tabMu.Lock()
	ino := c.pageOwnerAt(p)
	c.tabMu.Unlock()
	return ino, ino != 0
}

// releaseLocalLocked reports whether a fast release of m (unmapFast),
// whose walk found pages, touches only state under the release's locks:
// every page of both is unowned or owned by the file or its parent — of
// the mapping's, only those outside fs.pages are looked up — and none the
// walk found is parked on the releaser for another file, whose holders
// binding it changes (bindLocked).
func (c *Controller) releaseLocalLocked(m *mapping, pages []nvm.PageID) bool {
	fs := m.fs
	local := func(p nvm.PageID) bool {
		own := c.pageOwnerAt(p)
		return own == 0 || own == fs.ino || own == fs.parent
	}
	var buf [4]pageRun
	c.tabMu.Lock()
	defer c.tabMu.Unlock()
	for _, p := range pages {
		if ino := m.ls.parked[p]; !local(p) || ino != 0 && ino != fs.ino {
			return false
		}
	}
	for _, r := range runsDiff(buf[:0], m.runs, fs.pages) {
		for p := r.start; p < r.end(); p++ {
			if !local(p) {
				return false
			}
		}
	}
	return true
}
