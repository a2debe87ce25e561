// The controller side of the online integrity scrubber (ISSUE 5): the
// background sweeper audits a rate-limited batch of pages per period
// against the per-page CRC32C table (internal/core checksums), and on a
// mismatch either repairs the page from redundant metadata or
// quarantines the owning file so readers get ErrCorrupt instead of
// garbage.
//
// Checksum lifecycle, controller's half:
//
//   - grant  — MapFile (write) and AllocPages make every granted page
//     untrusted before the LibFS can store to it — a granule the grant
//     covers whole by its open bit, any other page by marking its record
//     open (odd epoch) — so a trusted record never lies about in-flight
//     pages;
//   - unmap  — after a clean verification the writer's pages are sealed
//     with the durable content's CRC, provided no other session still
//     write-maps them: a granule's stored-to pages when its last holder
//     goes, every other page by its record;
//   - scrub  — the sweeper seals stragglers (crashed writers, adopted
//     files, granules a teardown left open) and cross-checks every
//     sealed record the controller's own tables do not mark busy, under
//     each mapping session's MMU shootdown barrier so no in-flight store
//     races the audit.
//
// Repair is candidate-based and CRC-gated: a candidate image (the zero
// page for holes, a dirent-page rebuild from the controller's verified
// children list, a checkpoint image) is accepted only when its CRC
// equals the sealed record's — a wrong rebuild can never be installed,
// it just falls through to quarantine.
package controller

import (
	"errors"
	"time"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/verifier"
)

// scrubBandwidthShare is the fraction of one node's read bandwidth the
// auto-derived scrub budget may consume per sweep period.
const scrubBandwidthShare = 0.05

// scrubDefaultBudget is the per-sweep page budget when no cost model is
// mounted (cost modeling off) and none was configured.
const scrubDefaultBudget = 256

// scrubBudget resolves Options.ScrubPagesPerSweep: explicit positive
// wins, negative disables, zero derives from the cost model so a sweep
// period's scrub reads stay a small slice of device bandwidth.
func (c *Controller) scrubBudget() int {
	if c.opts.ScrubPagesPerSweep != 0 {
		return c.opts.ScrubPagesPerSweep
	}
	if c.cost == nil || c.opts.LeaseSweep <= 0 {
		return scrubDefaultBudget
	}
	bytes := c.cost.ReadBandwidth * scrubBandwidthShare * c.opts.LeaseSweep.Seconds()
	budget := int(bytes / nvm.PageSize)
	if budget < 1 {
		budget = 1
	}
	return budget
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Checked     int // pages audited (CRC computed)
	Sealed      int // records sealed this pass (coverage growth)
	Mismatches  int // sealed records that disagreed with the media
	Repaired    int // mismatches healed from redundant metadata
	Quarantined int // mismatches that poisoned their file
	Skipped     int // candidate pages skipped (write-mapped or errors)

	// Coverage of the live page set after the pass.
	Candidates int // pages the scrubber is responsible for
	Covered    int // of those, how many have a sealed record
}

// ScrubAll audits every page the controller is responsible for — the
// superblock, the root inode page and every verified file page — in one
// pass, sealing unknown/open records of quiescent pages and repairing
// or quarantining mismatches. It is the on-demand form of the
// background scrub (arckfsck -scrub, recovery checks, tests).
func (c *Controller) ScrubAll() ScrubReport {
	c.lockAll()
	defer c.unlockAll()
	total := c.dev.NumPages()
	all := []pageRun{{start: 0, n: int(core.ChecksumBase(total))}}
	c.settleGranulesLocked(all)
	c.clearPendingGranules()
	pass := c.scrubPassLocked(0, core.ChecksumBase(total), -1)
	rep := pass.ScrubReport
	// Coverage: re-read the records — and open bits — of every candidate.
	for _, p := range c.scrubCandidatesLocked(0, core.ChecksumBase(total)) {
		rep.Candidates++
		if _, trusted, err := core.LoadChecksumTrusted(c.mem, total, p); err == nil && trusted {
			rep.Covered++
		}
	}
	return rep
}

// scrubSweepLocked is the background sweeper's slice: audit up to
// budget pages starting at the cursor, wrapping at the region base.
func (c *Controller) scrubSweepLocked(budget int) {
	limit := core.ChecksumBase(c.dev.NumPages())
	if c.scrubCursor >= limit {
		c.scrubCursor = 0
	}
	c.settleGranulesLocked([]pageRun{{start: 0, n: int(limit)}})
	c.clearPendingGranules()
	rep := c.scrubPassLocked(c.scrubCursor, limit, budget)
	c.scrubCursor = rep.cursor
	c.stats.ScrubPasses.Add(1)
}

// scrubCandidatesLocked lists the pages in [from, to) the scrubber is
// responsible for: the superblock, the root inode page, and every page
// bound into a verified file. Pool/parked pages are excluded — they are
// write-mapped by their holder and (for pool pages) carry no committed
// content to audit.
func (c *Controller) scrubCandidatesLocked(from, to nvm.PageID) []nvm.PageID {
	var out []nvm.PageID
	for p := from; p < to; p++ {
		if p == 0 || p == core.RootInodePage {
			out = append(out, p)
			continue
		}
		if c.pageOwner[p] != 0 {
			out = append(out, p)
		}
	}
	return out
}

// scrubReportCursor carries the resume cursor alongside the public
// report fields.
type scrubReportCursor = nvm.PageID

type scrubPassReport struct {
	ScrubReport
	cursor scrubReportCursor
}

// scrubPassLocked audits candidate pages in [from, to), stopping after
// budget audited pages (budget < 0 = unlimited). Callers hold every
// shard lock (lockAll), which serializes the pass against every grant,
// unmap and verification — no page can change hands mid-audit.
func (c *Controller) scrubPassLocked(from, to nvm.PageID, budget int) scrubPassReport {
	rep := scrubPassReport{cursor: to}

	// Drain every session's shootdown barrier once: any store that
	// passed its permission check before this point has landed on the
	// device (mmu accessors hold the barrier shared across check+store),
	// so the write-permission snapshot below is trustworthy.
	for _, ls := range c.libfses {
		ls.as.WithShootdownBarrier(func() {})
	}

	for p := from; p < to; p++ {
		if budget >= 0 && rep.Checked >= budget {
			rep.cursor = p
			break
		}
		if p != 0 && p != core.RootInodePage {
			ino := c.pageOwner[p]
			if ino == 0 {
				continue
			}
			// An already-quarantined file is poisoned until remount:
			// re-auditing its pages every pass would only inflate the
			// detection counters for corruption already acted on.
			if fs, _ := c.files.get(ino); fs != nil && fs.corrupt {
				rep.Skipped++
				continue
			}
		}
		if c.scrubBusy(p) {
			rep.Skipped++
			continue
		}
		verdict, want, _, err := c.scrubber.ScrubPage(p, true)
		if err != nil {
			rep.Skipped++
			continue
		}
		rep.Checked++
		c.stats.ScrubPages.Add(1)
		switch verdict {
		case verifier.ScrubSealed:
			rep.Sealed++
			c.stats.ScrubSealed.Add(1)
			c.tracePage(p, "scrub-seal")
		case verifier.ScrubMismatch:
			rep.Mismatches++
			c.stats.ScrubDetected.Add(1)
			c.tracePage(p, "scrub-mismatch want=%08x", want)
			if c.repairPageLocked(p, want) {
				rep.Repaired++
				c.stats.ScrubRepaired.Add(1)
			} else {
				c.quarantinePageLocked(p)
				rep.Quarantined++
				c.stats.ScrubQuarantined.Add(1)
			}
		}
	}
	return rep
}

// sealQuiescentLocked and openGrantedLocked live in bulkio.go: the
// unmap-time seal and grant-time opens go by granule bit where a grant
// covers a granule whole and by span RMW of the records elsewhere, so a
// file's worth of records costs what was written.

// repairPageLocked tries to heal a mismatched page from redundant
// metadata. Every candidate is validated against the sealed record's
// CRC before being installed; on success the repaired image is written
// under the mapping sessions' shootdown barriers and persisted.
func (c *Controller) repairPageLocked(p nvm.PageID, want uint32) bool {
	ino := c.pageOwner[p]
	var fs *fileState
	if ino != 0 {
		fs, _ = c.files.get(ino)
	}

	var img []byte
	switch {
	case want == zeroPageCRC():
		// Hole re-zeroing: the page held zeros when sealed.
		img = make([]byte, nvm.PageSize)
	case fs != nil && fs.checkpoint != nil && fs.checkpoint.pages[p] != nil &&
		core.PageCRC(fs.checkpoint.pages[p][:]) == want:
		img = fs.checkpoint.pages[p][:]
	case fs != nil && fs.ftype == core.TypeDir:
		if buf := c.rebuildDirentPageLocked(fs, p); buf != nil && core.PageCRC(buf) == want {
			img = buf
		}
	}
	if img == nil {
		return false
	}

	write := func() {
		c.markStored(p)
		c.mem.Write(p, 0, img)
		c.mem.Persist(p, 0, nvm.PageSize)
		c.fence()
	}
	// Install under the barriers of every session that maps the page —
	// all held at once, so no reader in any session observes a
	// half-repaired page mid-range-read. Nesting distinct sessions'
	// barriers is deadlock-free: lockAll serializes every multi-barrier
	// holder, and mmu accessors only ever hold their own session's.
	var holders []*libfsState
	for _, ls := range c.libfses {
		if !ls.dead && ls.as.PermOf(p) != mmu.PermNone {
			holders = append(holders, ls)
		}
	}
	var install func(i int)
	install = func(i int) {
		if i == len(holders) {
			write()
			return
		}
		holders[i].as.WithShootdownBarrier(func() { install(i + 1) })
	}
	install(0)
	c.tracePage(p, "scrub-repair ino=%d", ino)

	// The repair must scrub clean; anything else is a logic error that
	// falls through to quarantine.
	v, _, _, err := c.scrubber.ScrubPage(p, false)
	return err == nil && v == verifier.ScrubOK
}

// zeroCRC caches the CRC of an all-zero page.
var zeroCRC = func() uint32 { return core.PageCRC(make([]byte, nvm.PageSize)) }()

func zeroPageCRC() uint32 { return zeroCRC }

// rebuildDirentPageLocked reconstructs a directory data page of fs from
// the controller's last verified children list: each child whose dirent
// lives on page p is re-serialized into a zeroed page image. The result
// is byte-exact only for pages never touched by deletions or renames
// (those leave stale bytes the rebuild cannot know); the caller's CRC
// gate rejects inexact rebuilds, which is safe — the file is then
// quarantined rather than silently mis-repaired.
func (c *Controller) rebuildDirentPageLocked(fs *fileState, p nvm.PageID) []byte {
	pm := &pageMem{page: p}
	any := false
	for i := range fs.children {
		ch := &fs.children[i]
		if ch.Loc.Page != p {
			continue
		}
		any = true
		if err := core.WriteInode(pm, p, core.SlotOffset(ch.Loc.Slot), &ch.Inode); err != nil {
			return nil
		}
		if err := core.WriteDirentName(pm, p, ch.Loc.Slot, ch.Name); err != nil {
			return nil
		}
	}
	if !any {
		return nil
	}
	return pm.buf[:]
}

// pageMem adapts one in-memory page buffer to core.Mem so the dirent
// serialization helpers can target a rebuild image instead of the
// device. Persist/Fence are no-ops; accesses to any other page fail.
type pageMem struct {
	page nvm.PageID
	buf  [nvm.PageSize]byte
}

// errPageMem rejects accesses outside the single rebuild page.
var errPageMem = errors.New("controller: access outside rebuild page")

func (m *pageMem) check(p nvm.PageID, off, n int) error {
	if p != m.page || off < 0 || n < 0 || off+n > nvm.PageSize {
		return errPageMem
	}
	return nil
}

func (m *pageMem) Read(p nvm.PageID, off int, b []byte) error {
	if err := m.check(p, off, len(b)); err != nil {
		return err
	}
	copy(b, m.buf[off:])
	return nil
}

func (m *pageMem) Write(p nvm.PageID, off int, b []byte) error {
	if err := m.check(p, off, len(b)); err != nil {
		return err
	}
	copy(m.buf[off:], b)
	return nil
}

func (m *pageMem) ReadU64(p nvm.PageID, off int) (uint64, error) {
	if err := m.check(p, off, 8); err != nil {
		return 0, err
	}
	return uint64(m.buf[off]) | uint64(m.buf[off+1])<<8 | uint64(m.buf[off+2])<<16 |
		uint64(m.buf[off+3])<<24 | uint64(m.buf[off+4])<<32 | uint64(m.buf[off+5])<<40 |
		uint64(m.buf[off+6])<<48 | uint64(m.buf[off+7])<<56, nil
}

func (m *pageMem) WriteU64(p nvm.PageID, off int, v uint64) error {
	if err := m.check(p, off, 8); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		m.buf[off+i] = byte(v >> (8 * i))
	}
	return nil
}

func (m *pageMem) Persist(p nvm.PageID, off, n int) error { return nil }
func (m *pageMem) Fence()                                 {}

// quarantinePageLocked poisons the file owning page p: readers are
// revoked (their next access faults, re-maps, and gets ErrCorrupt) and
// every future MapFile fails until remount. An unowned page (the
// superblock, the root inode page with no rebuild source) has no file
// to poison; the mismatch stays counted and re-detected each pass.
func (c *Controller) quarantinePageLocked(p nvm.PageID) {
	ino := c.pageOwner[p]
	if ino == 0 {
		c.tracePage(p, "scrub-quarantine unowned")
		return
	}
	fs, _ := c.files.get(ino)
	if fs == nil {
		return
	}
	fs.corrupt = true
	c.tracePage(p, "scrub-quarantine ino=%d", ino)
	c.revokeReadersLocked(fs, 0)
}

// scrubNow runs one budgeted on-demand slice over the global cursor
// (tests and tools; the background sweepers run scrubShard instead).
func (c *Controller) scrubNow() {
	budget := c.scrubBudget()
	if budget <= 0 {
		return
	}
	c.lockAll()
	defer c.unlockAll()
	start := time.Now()
	c.scrubSweepLocked(budget)
	c.stats.ScrubNS.Add(int64(time.Since(start)))
}
