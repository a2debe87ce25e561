// The controller side of the online integrity scrubber: one audit
// (auditLocked) checks a file's quiescent pages against the per-page
// CRC32C table (internal/core checksums), sealing the records still
// open and collecting the pages whose sealed CRC disagrees with the
// media; under lockAll each mismatch is then either repaired from
// redundant metadata or its file quarantined so readers get ErrCorrupt
// instead of garbage (fixMismatchLocked). The audit has two callers:
// each shard's background sweeper runs it over its own files within a
// rate-limited page budget (scrubShard), and ScrubAll runs it with no
// budget over every file, the superblock and the root inode page. Both
// follow one skip rule (fileState.scrubSkipped): a corrupt, quarantined
// or write-held file is left alone — the sweeper holds one shard lock and
// drains no shootdown barrier, so it must not judge a file anyone may be
// writing; a write-held file's pages are sealed at its release.
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
//   - scrub  — the audit seals stragglers (crashed writers, adopted
//     files, granules a teardown left open) and cross-checks every
//     sealed record of a file nobody write-holds that the controller's
//     own tables do not mark busy.
//
// Repair is candidate-based and CRC-gated: a candidate image (the zero
// page for holes, a dirent-page rebuild from the controller's verified
// children list, a checkpoint image) is accepted only when its CRC
// equals the sealed record's — a wrong rebuild can never be installed,
// it just falls through to quarantine.
package controller

import (
	"errors"

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
	Skipped     int // pages left alone: busy, unreadable, or of a skipped file

	// Coverage of the live page set after the pass.
	Candidates int // pages the scrubber is responsible for
	Covered    int // of those, how many have a sealed record
}

// ScrubAll is the sweeper's audit without a budget: every file, plus the
// superblock and the root inode page, in one pass under lockAll, then
// the coverage of every page the scrubber is responsible for (arckfsck
// -scrub, recovery checks, tests).
func (c *Controller) ScrubAll() ScrubReport {
	c.lockAll()
	defer c.unlockAll()
	total := c.dev.NumPages()
	limit := core.ChecksumBase(total)
	c.settleGranulesLocked([]pageRun{{start: 0, n: int(limit)}})
	c.clearPendingGranules()
	// Drain every session's shootdown barrier once: any store that
	// passed its permission check before this point has landed on the
	// device (mmu accessors hold the barrier shared across check+store),
	// so the write-permission snapshot below is trustworthy.
	c.eachSession(func(ls *libfsState) { ls.as.WithShootdownBarrier(func() {}) })
	a := scrubAudit{sc: c.scrubber, busy: c.scrubBusy, budget: -1}
	c.auditLocked(&a, true, c.filesByIno())
	for _, p := range a.mismatches {
		c.fixMismatchLocked(p, &a.rep)
	}
	// Coverage: re-read the records — and open bits — of every candidate:
	// the superblock, the root inode page and every page bound into a
	// verified file (pool and parked pages carry no committed content).
	rep := a.rep
	for p := nvm.PageID(0); p < limit; p++ {
		if p != 0 && p != core.RootInodePage && c.pageOwnerAt(p) == 0 {
			continue
		}
		rep.Candidates++
		if _, trusted, err := core.LoadChecksumTrusted(c.mem, total, p); err == nil && trusted {
			rep.Covered++
		}
	}
	return rep
}

// scrubAudit is one run of the audit: the scrubber and the busy test of
// the locks it runs under, its page budget (negative: none), what it
// found so far and the mismatched pages it leaves to fixMismatchLocked.
type scrubAudit struct {
	sc         *verifier.Scrubber
	busy       func(nvm.PageID) bool
	budget     int
	rep        ScrubReport
	mismatches []nvm.PageID
}

func (a *scrubAudit) spent() bool { return a.budget >= 0 && a.rep.Checked >= a.budget }

// scrubSkipped is the audit's one skip rule: a corrupt or quarantined
// file was acted on already, and a write-held one is left to its
// release's seal — a sweeper holds one shard lock and drains no barrier,
// so it must not judge a file anyone may be writing.
func (fs *fileState) scrubSkipped() bool {
	return fs.corrupt || fs.quarantined != 0 || fs.writeHolder() != nil
}

// auditLocked is the one scrub audit: the superblock and the root inode
// page when fixed is set, then the pages of files in order, until the
// budget is spent. It seals the unsealed records of quiescent pages and
// collects the sealed ones that disagree with the media. The caller holds
// the home shard lock of every file (of the root, for the fixed pages).
// It returns the last file it reached, 0 when none.
func (c *Controller) auditLocked(a *scrubAudit, fixed bool, files []*fileState) (last core.Ino) {
	if fixed {
		for _, p := range []nvm.PageID{0, core.RootInodePage} {
			if !a.spent() {
				c.auditPageLocked(a, c.shardIdxIno(core.RootIno), p)
			}
		}
	}
	for _, fs := range files {
		if a.spent() {
			break
		}
		last = fs.ino
		if fs.scrubSkipped() {
			a.rep.Skipped += runsLen(fs.pages)
			continue
		}
		c.settleGranulesLocked(fs.pages)
		i := c.shardIdxIno(fs.ino)
		for _, r := range fs.pages {
			for p := r.start; p < r.end() && !a.spent(); p++ {
				c.auditPageLocked(a, i, p)
			}
		}
	}
	return last
}

// auditPageLocked audits page p for shard i: seal its record when open,
// note it when its sealed CRC disagrees with the media.
func (c *Controller) auditPageLocked(a *scrubAudit, i int, p nvm.PageID) {
	if a.busy(p) {
		a.rep.Skipped++
		return
	}
	verdict, want, _, err := a.sc.ScrubPage(p, true)
	if err != nil {
		a.rep.Skipped++
		return
	}
	a.rep.Checked++
	c.stats.ScrubPages.Add(1)
	c.stats.shard(i).ScrubPages.Add(1)
	switch verdict {
	case verifier.ScrubSealed:
		a.rep.Sealed++
		c.stats.ScrubSealed.Add(1)
		c.tracePage(p, "scrub-seal shard=%d", i)
	case verifier.ScrubMismatch:
		c.tracePage(p, "scrub-mismatch shard=%d want=%08x", i, want)
		a.mismatches = append(a.mismatches, p)
	}
}

// fixMismatchLocked (lockAll held) acts on a page the audit found
// mismatched, once it still is with every lock held — the page may have
// been granted again, or its file quarantined, since: it is repaired
// from redundant metadata, or its file is quarantined.
func (c *Controller) fixMismatchLocked(p nvm.PageID, rep *ScrubReport) {
	if c.scrubBusy(p) {
		return
	}
	if fs := c.fileOf(c.pageOwnerAt(p)); fs != nil && fs.scrubSkipped() {
		return
	}
	v, want, _, err := c.scrubber.ScrubPage(p, false)
	if err != nil || v != verifier.ScrubMismatch {
		return
	}
	rep.Mismatches++
	c.stats.ScrubDetected.Add(1)
	if c.repairPageLocked(p, want) {
		rep.Repaired++
		c.stats.ScrubRepaired.Add(1)
	} else {
		c.quarantinePageLocked(p)
		rep.Quarantined++
		c.stats.ScrubQuarantined.Add(1)
	}
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
	ino := c.pageOwnerAt(p)
	var fs *fileState
	if ino != 0 {
		fs = c.fileOf(ino)
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
	c.eachSession(func(ls *libfsState) {
		if !ls.dead && ls.as.PermOf(p) != mmu.PermNone {
			holders = append(holders, ls)
		}
	})
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
	ino := c.pageOwnerAt(p)
	if ino == 0 {
		c.tracePage(p, "scrub-quarantine unowned")
		return
	}
	fs := c.fileOf(ino)
	if fs == nil {
		return
	}
	fs.corrupt = true
	c.tracePage(p, "scrub-quarantine ino=%d", ino)
	c.revokeReadersLocked(fs, 0)
}
