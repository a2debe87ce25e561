package controller

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/telemetry"
	"trio/internal/verifier"
)

// MapInfo is what a LibFS gets back from MapFile: where the inode lives
// and which pages are now accessible. The LibFS builds its auxiliary
// state by walking the core state through its address space.
type MapInfo struct {
	Ino   core.Ino
	Loc   core.FileLoc
	Inode core.Inode
	Write bool
	// Gen, when non-zero, is the structure generation of a regular file
	// whose index pages the controller vouches for: nothing was stored to
	// them since the clean walk that was given this number, and no other
	// session could store to them when this grant was made. Auxiliary
	// state a LibFS built from the index under the same Gen is still
	// exact. Zero promises nothing: rebuild.
	Gen uint64
}

// MapFile grants this LibFS access to the file whose inode the LibFS
// discovered at loc (paper Fig. 2, steps 1–2 and 9). For files the
// controller has not seen yet (created by some LibFS and never shared),
// the file is first adopted: verified against its creator's resource
// grants, then recorded.
//
// Sharing policy (§3.2): concurrent read mappings are allowed; write
// mapping is exclusive per trust group. A conflicting request waits for
// the holder's lease to expire and then revokes it.
func (s *Session) MapFile(ino core.Ino, loc core.FileLoc, write bool) (*MapInfo, error) {
	s.c.trap()
	start := time.Now()
	defer func() { s.c.stats.addMapN(1, time.Since(start)) }()

	c := s.c
	sp := telemetry.StartSpan(c.shardIdxIno(ino), "controller.map", "controller")
	defer sp.End()
	c.stats.shard(c.shardIdxIno(ino)).Maps.Add(1)
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)

	// Common case: the file is known and self-contained — only the
	// involved shards' locks are taken, and even lease contention is
	// waited out under them. Everything wider (adoption, upgrades,
	// forcible revocation, corruption) escalates.
	info, err := s.mapFileFast(ino, loc, write, gate)
	if err == errEscalate {
		c.lockAll()
		defer c.unlockAll()
		info, err = s.mapSlowLocked(ino, loc, write, gate, nil)
	}
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// mapSlowLocked is the lockAll half of MapFile: adoption, upgrades,
// reader revocation, lease waits. acc, when non-nil, counts verifier
// round trips for a batch to charge as one IPCN instead of paying the
// IPC cost inline.
func (s *Session) mapSlowLocked(ino core.Ino, loc core.FileLoc, write bool, gate *admitGate, acc *int) (MapInfo, error) {
	c := s.c
	if err := s.aliveLocked(); err != nil {
		return MapInfo{}, err
	}

	fs, adopted, err := c.lookupOrAdoptLocked(ino, loc, acc)
	if err != nil {
		return MapInfo{}, err
	}
	// Fresh adoption: the verifier read this dirent an instant ago under
	// these same locks — reuse it rather than paying another media
	// access. Copied out now: it sits in the creator's scratch report,
	// which the next verification of that session overwrites.
	var in core.Inode
	if adopted != nil {
		in, s.ls.direntBuf = adopted.Inode, *adopted.Dirent()
	}
	if fs.quarantined != 0 && fs.quarantined != s.ls.id {
		return MapInfo{}, ErrQuarantined
	}
	if fs.corrupt {
		// The scrubber found latent media corruption it could not repair
		// (ISSUE 5): the file is poisoned, never silently served.
		return MapInfo{}, fmt.Errorf("%w: ino %d has unrepairable media corruption", ErrCorrupt, fs.ino)
	}

	// Idempotent re-map: an existing mapping that already satisfies the
	// request is returned as-is.
	m := s.ls.mapped[fs.ino]
	if m != nil && (m.write || !write) {
		in, rerr := core.ReadDirentInode(c.mem, fs.loc.Page, fs.loc.Slot)
		if rerr != nil {
			return MapInfo{}, rerr
		}
		return MapInfo{Ino: fs.ino, Loc: fs.loc, Inode: in, Write: m.write}, nil
	}

	// Permission check against the shadow table (ground truth, I4). It
	// comes before anything is released — the fast path's rule, "mutates
	// nothing before deciding" — so a denied read→write upgrade leaves the
	// caller's read mapping exactly as it was.
	if !c.permitted(s.ls, fs.ino, write) {
		return MapInfo{}, fmt.Errorf("%w: ino %d write=%v for uid %d", ErrPermission, ino, write, s.ls.uid)
	}
	if m != nil {
		// A permitted upgrade (read→write) releases the old grant first.
		if err := c.unmapLocked(s.ls, fs.ino, acc, telemetry.Span{}); err != nil {
			return MapInfo{}, err
		}
	}

	// Enforce concurrent-reads-or-exclusive-write across trust groups.
	if err := c.waitForAccessLocked(s.ls, fs, write, gate); err != nil {
		return MapInfo{}, err
	}

	if adopted == nil {
		if in, err = s.readDirentLocked(fs); err != nil {
			return MapInfo{}, err
		}
	}

	runs, gen, err := c.grantRuns(fs, &in)
	if err != nil {
		return MapInfo{}, err
	}
	if fs.quarantined != 0 {
		runs = s.ls.quarantineRuns(runs, fs)
	}
	return s.grantLocked(fs, &in, runs, write, gen), nil
}

// quarantineRuns cuts the grant of a quarantined file down to pages its
// holder may have. The file's state failed verification and stays as it
// is, so the walk behind runs followed whatever the holder left there — a
// reference to a page it freed, which by now may sit in another session's
// pool. What remains: the file's verified set, the holder's own pool and
// parked pages, the dirent page.
func (ls *libfsState) quarantineRuns(runs []pageRun, fs *fileState) []pageRun {
	var out []pageRun
	for _, r := range runs {
		for p := r.start; p < r.end(); p++ {
			if p == fs.loc.Page || runsFind(fs.pages, p) >= 0 || ls.allocPages[p] || ls.parked[p] {
				out = appendPage(out, p)
			}
		}
	}
	return out
}

// readDirentLocked reads the file's dirent slot into the session's
// staging buffer — a write grant checkpoints all of it — and decodes the
// inode. What the name bytes say is the verifier's business.
func (s *Session) readDirentLocked(fs *fileState) (core.Inode, error) {
	in, _, err := core.ReadDirentInto(s.c.mem, fs.loc.Page, fs.loc.Slot, &s.ls.direntBuf)
	if errors.Is(err, core.ErrBadNameLen) {
		err = nil
	}
	return in, err
}

// grantRuns collects the pages a grant of fs maps — the dirent page plus
// the file's current index and data pages — as normal-form runs, and the
// generation the grant may vouch for (MapInfo.Gen). When the facts of
// the last clean walk still hold and no session can store to an index
// page, the verified set is what a walk would find, and the grant is
// built from it. Otherwise the walk reads untrusted core state: page ids
// beyond the device are dropped here and never reach a table.
func (c *Controller) grantRuns(fs *fileState, in *core.Inode) ([]pageRun, uint64, error) {
	total := c.dev.NumPages()
	if c.indexQuietLocked(fs, in.Head) {
		runs := append(make([]pageRun, 0, len(fs.pages)+1), fs.pages...) // the mapping's own copy
		return runsAdd(runs, fs.loc.Page), fs.gen, nil
	}
	runs := make([]pageRun, 0, 4)
	add := func(p nvm.PageID) bool {
		if p < total {
			runs = appendPage(runs, p)
		}
		return true
	}
	add(fs.loc.Page)
	err := core.WalkFile(c.mem, in.Head, int(total),
		func(p nvm.PageID) bool { c.stats.IndexReads.Add(1); return add(p) },
		func(_ uint64, p nvm.PageID) bool { return add(p) })
	if err != nil {
		return nil, 0, fmt.Errorf("controller: walking file %d: %w", fs.ino, err)
	}
	return normalizeRuns(runs), 0, nil
}

// indexQuietLocked reports whether the chain starting at head is the one
// the file's last clean walk read, every page of it keeps its facts bit,
// and no session holds write permission on any — so no store to one is
// in flight or waiting to be harvested. An empty chain vouches for
// nothing: it has no page whose write references could show a same-group
// writer about to grow it.
func (c *Controller) indexQuietLocked(fs *fileState, head nvm.PageID) bool {
	if fs.ftype != core.TypeReg || len(fs.chain) == 0 || head != fs.head {
		return false
	}
	c.tabMu.Lock()
	defer c.tabMu.Unlock()
	for _, p := range fs.chain {
		if c.chainPageScopeLocked(p, 0) != scopeIndexClean {
			return false
		}
	}
	return true
}

// chainPageScopeLocked (tabMu held) classifies one page of a recorded
// chain: its facts bit is gone, some session beyond the own write
// references the caller discounts can store to it, or neither.
func (c *Controller) chainPageScopeLocked(p nvm.PageID, own int32) verifyScope {
	switch {
	case !c.facts[p]:
		return scopeFactsClear
	case c.writeRefs[p] > own:
		return scopeOtherWriter
	}
	return scopeIndexClean
}

// grantLocked installs a grant every check has already allowed: it maps
// pages into the session, records the mapping, and registers the
// session as the file's writer (checkpointing the file, whose dirent the
// caller left in the session's staging buffer) or as a reader. The
// caller holds the locks covering the session, the file and — for a
// write grant — every page's checksum record.
func (s *Session) grantLocked(fs *fileState, in *core.Inode, runs []pageRun, write bool, gen uint64) MapInfo {
	c := s.c
	perm := mmu.PermRead
	if write {
		perm = mmu.PermWrite
		// Checksum-behind: every granted page's record opens (durably)
		// before the LibFS can issue its first store, so no sealed CRC
		// can be invalidated by a write the scrubber doesn't know about.
		// Runs before our own refs so openGrantedLocked sees the
		// pre-grant writeRefs table (see its doc comment).
		c.openGrantedLocked(runs)
	}
	s.ls.refRunsLocked(runs, perm)
	s.ls.mapped[fs.ino] = &mapping{ino: fs.ino, write: write, runs: runs}
	delete(s.ls.revoked, fs.ino) // a successful re-map clears the revocation

	if write {
		fs.writer = s.ls.id
		fs.writerGroup = s.ls.group
		fs.writerSince = time.Now()
		c.checkpointLocked(fs, &s.ls.direntBuf, gen)
	} else {
		fs.addReaderLocked(s.ls.id)
	}
	return MapInfo{Ino: fs.ino, Loc: fs.loc, Inode: *in, Write: write, Gen: gen}
}

// mapFileFast is MapFile's common case under only the involved shards'
// locks: the session's, the file's and (for writes, which open dirent
// checksum records) the parent's. Lease contention against a
// foreign-group writer is handled here too — the lease clock and the
// cooperative recall run under the file's home shard, and the waiter
// sleeps with no locks held, so a convoy of hot-file waiters never
// touches the other shards (the old escalate-to-lockAll wait glued
// every shard to the contended one). Only the transitions that mutate
// foreign-shard state return errEscalate for the lockAll path.
func (s *Session) mapFileFast(ino core.Ino, loc core.FileLoc, write bool, gate *admitGate) (MapInfo, error) {
	c := s.c
	var waited *fileState
	for {
		set, fs := c.lockForFile(c.shardIdxSession(s.ls.id), ino, write)
		if waited != nil {
			// Drop the waiter mark from the previous iteration; the
			// pointer comparison guards against the file having been
			// retired (and the ino reused) while nothing was held.
			if fs, _ := c.files.get(ino); fs == waited {
				waited.waiters--
			}
			waited = nil
		}
		info, wait, err := s.mapFileOnceLocked(fs, write)
		if wait <= 0 {
			c.unlockShards(&set)
			return info, err
		}
		// Contended: poll like waitForAccessLocked, but under the
		// narrow set. The admission slot is released across the sleep
		// so a sleeping waiter cannot occupy the slot its lease holder
		// needs to comply with the recall.
		if wait > accessPoll {
			wait = accessPoll
		}
		fs.waiters++
		waited = fs
		gate.pause(s.ls.id)
		c.unlockShards(&set)
		time.Sleep(wait)
		gate.resume(s.ls.id)
	}
}

// mapFileOnceLocked runs one attempt at the fast map under the held
// set. A non-zero wait means the caller should release the locks,
// sleep, and retry; otherwise (info, err) is the result, with
// errEscalate sending the request to the lockAll path. It mutates
// nothing before deciding.
func (s *Session) mapFileOnceLocked(fs *fileState, write bool) (MapInfo, time.Duration, error) {
	c := s.c
	if fs == nil {
		return MapInfo{}, 0, errEscalate // adoption inserts into the registry
	}
	if err := s.aliveLocked(); err != nil {
		return MapInfo{}, 0, err
	}
	if fs.quarantined != 0 {
		if fs.quarantined != s.ls.id {
			return MapInfo{}, 0, ErrQuarantined
		}
		return MapInfo{}, 0, errEscalate // its holder's grant is cut to size over there
	}
	if fs.corrupt {
		return MapInfo{}, 0, fmt.Errorf("%w: ino %d has unrepairable media corruption", ErrCorrupt, fs.ino)
	}
	if m := s.ls.mapped[fs.ino]; m != nil {
		if m.write || !write {
			in, rerr := core.ReadDirentInode(c.mem, fs.loc.Page, fs.loc.Slot)
			if rerr != nil {
				return MapInfo{}, 0, rerr
			}
			return MapInfo{Ino: fs.ino, Loc: fs.loc, Inode: in, Write: m.write}, 0, nil
		}
		return MapInfo{}, 0, errEscalate // read→write upgrade releases the old grant
	}
	if !c.permitted(s.ls, fs.ino, write) {
		return MapInfo{}, 0, fmt.Errorf("%w: ino %d write=%v for uid %d", ErrPermission, fs.ino, write, s.ls.uid)
	}
	// A conflicting writer drives the lease state machine right here:
	// the clock, the cooperative recall, and the holder-vanished reset
	// only touch state readable under this shard's lock. A same-group
	// writer is not a conflict — shared write mappings go through the
	// lockAll grant path, which knows how to stack them.
	for fs.writer != 0 {
		if fs.writer == s.ls.id || fs.writerGroup == s.ls.group {
			return MapInfo{}, 0, errEscalate
		}
		wait, err := c.escalateLeaseFastLocked(fs)
		if err != nil {
			return MapInfo{}, 0, err // forcible revocation or holder reap
		}
		if wait > 0 {
			return MapInfo{}, wait, nil
		}
		// wait == 0: the holder vanished under our lock; re-check.
	}
	if write {
		for rid := range fs.readers {
			r := c.libfses[rid] // registry reads are safe under any shard lock
			if r == nil || r.group != s.ls.group {
				return MapInfo{}, 0, errEscalate // revocation touches foreign shards
			}
		}
	}

	in, err := s.readDirentLocked(fs)
	if err != nil {
		return MapInfo{}, 0, err
	}
	runs, gen, err := c.grantRuns(fs, &in)
	if err != nil {
		return MapInfo{}, 0, err
	}
	if write {
		// The grant opens checksum records: every page must be owned by
		// the file or its parent (whose shards are held), so no other
		// shard's grant or scrub can race the record read-modify-writes.
		if !c.writeGrantRunsOK(runs, fs) {
			return MapInfo{}, 0, errEscalate
		}
	} else if !c.runsOwnedWithin(runs, fs) {
		return MapInfo{}, 0, errEscalate
	}
	return s.grantLocked(fs, &in, runs, write, gen), 0, nil
}

// writeGrantRunsOK requires every page of a write grant to be owned by
// the file (or, for the dirent page, its parent) — ownership is what
// ties the checksum-record RMWs to the shard locks the caller holds.
// The file owns exactly fs.pages, so the grant must be that set's pages
// and the dirent page, nothing else.
func (c *Controller) writeGrantRunsOK(runs []pageRun, fs *fileState) bool {
	var buf [2]pageRun
	dp := fs.loc.Page
	if extra := runsDiff(buf[:0], runs, fs.pages); len(extra) != 1 || extra[0] != (pageRun{start: dp, n: 1}) {
		return false
	}
	if own, ok := c.ownerOf(dp); ok {
		return own == fs.parent // a dirent page of the parent directory
	}
	return dp == core.RootInodePage
}

// permitted evaluates classic owner/group/other permission bits from
// the shadow table (tabMu accessors: both fast paths and lockAll
// sections call it).
func (c *Controller) permitted(ls *libfsState, ino core.Ino, write bool) bool {
	sh, ok := c.shadowOf(ino)
	if !ok {
		// Unknown to the controller: only its creator may touch it.
		holder, _ := c.allocHolderOf(ino)
		return holder == ls.id
	}
	if ls.uid == 0 {
		return true
	}
	var shift uint
	switch {
	case ls.uid == sh.UID:
		shift = 6
	case ls.gid == sh.GID:
		shift = 3
	default:
		shift = 0
	}
	bit := uint16(4) // read
	if write {
		bit = 2
	}
	return sh.Mode&(bit<<shift) != 0
}

// accessPoll caps one sleep inside waitForAccessLocked, so a waiter
// re-checks for cooperative releases well before any escalation deadline.
const accessPoll = time.Millisecond

// waitForAccessLocked blocks (releasing the locks while sleeping) until
// the requested access is compatible, driving the lease-escalation
// state machine against a conflicting writer: lease remainder →
// cooperative recall → recall deadline → forcible revocation
// (escalateLeaseLocked). The wait is therefore bounded by
// LeaseTime + RecallTimeout plus scheduling noise. The caller's
// admission slot is released across each sleep so a sleeping waiter
// cannot occupy the slot its lease holder needs to comply with the
// recall.
func (c *Controller) waitForAccessLocked(ls *libfsState, fs *fileState, write bool, gate *admitGate) error {
	for {
		if ls.dead {
			// The waiter itself was reaped while sleeping.
			return ErrSessionDead
		}
		conflict := false
		if fs.writer != 0 && fs.writerGroup != ls.group {
			conflict = true
		}
		if write && !conflict {
			for rid := range fs.readers {
				if r := c.libfses[rid]; r != nil && r.group != ls.group {
					// Readers are revoked immediately: their next access
					// faults and they re-map (paper §4.2: "a LibFS can
					// preserve the auxiliary state of a file until
					// another application requests to write").
					c.revokeLocked(r, fs.ino)
				}
			}
		}
		if !conflict {
			return nil
		}
		wait := c.escalateLeaseLocked(fs)
		if wait <= 0 {
			continue
		}
		// Poll rather than sleeping out the whole deadline: a holder that
		// honours a recall (or closes) frees the file long before its
		// escalation deadline, and the waiter should notice promptly.
		if wait > accessPoll {
			wait = accessPoll
		}
		fs.waiters++
		gate.pause(ls.id)
		c.unlockAll()
		time.Sleep(wait)
		// Re-enter the gate before the locks: resume can block on a free
		// slot, and slot holders may themselves be waiting on the locks.
		gate.resume(ls.id)
		c.lockAll()
		fs.waiters--
	}
}

// revokeLocked force-unmaps a reader mapping (no verification needed).
func (c *Controller) revokeLocked(ls *libfsState, ino core.Ino) {
	m := ls.mapped[ino]
	if m == nil || m.write {
		return
	}
	ls.releaseLocked(m)
	if fs, _ := c.files.get(ino); fs != nil {
		delete(fs.readers, ls.id)
	}
}

// lookupOrAdoptLocked resolves ino to a fileState, adopting files the
// controller has never verified (fresh creates by some LibFS). acc,
// when non-nil, defers the adoption verify's IPC charge to the caller.
// For a fresh adoption the verifier's report (the creator's scratch) is
// returned too, so the caller need not pay a second media access for the
// dirent it just read.
func (c *Controller) lookupOrAdoptLocked(ino core.Ino, loc core.FileLoc, acc *int) (*fileState, *verifier.Report, error) {
	if fs, ok := c.files.get(ino); ok {
		return fs, nil, nil
	}
	creator, ok := c.allocBy.get(ino)
	if !ok {
		return nil, nil, fmt.Errorf("%w: ino %d", ErrUnknownFile, ino)
	}
	ls := c.libfses[creator]
	if ls == nil {
		return nil, nil, fmt.Errorf("%w: ino %d (creator gone)", ErrUnknownFile, ino)
	}
	// Validate the location hint's page before trusting it: it must be
	// a dirent page of an existing directory (or the root page). The
	// slot's content needs no separate pre-read — the verification
	// below reads the dirent and reports an ino mismatch as an I1
	// violation, so a bogus slot can never be adopted; the pre-read
	// would only duplicate a charged media access on every adoption.
	parentIno, ok := c.direntPageParentLocked(loc.Page, creator)
	if !ok {
		return nil, nil, fmt.Errorf("%w: location hint page %d is not a directory page", ErrBadRequest, loc.Page)
	}
	fs := &fileState{ino: ino, loc: loc, parent: parentIno}
	rep, err := c.verifyLocked(fs, ls, acc, scopeFullWalk)
	if err != nil {
		return nil, nil, err
	}
	if !rep.OK() {
		// Failure classification (cold path): a slot that simply does
		// not hold this ino is the caller's bad request, not corruption.
		if got, derr := core.DirentIno(c.mem, loc.Page, loc.Slot); derr != nil || got != ino {
			return nil, nil, fmt.Errorf("%w: location hint does not hold ino %d", ErrBadRequest, ino)
		}
		c.stats.Corruptions.Add(1)
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, rep.Violations)
	}
	fs.ftype = rep.Inode.Type
	c.commitReportLocked(fs, ls, rep)
	c.registerFileLocked(fs)
	return fs, rep, nil
}

// direntPageParentLocked reports which directory owns page p as one of
// its dirent pages. Pages still in the creator's allocation pool are
// accepted too (brand-new directories), attributed to parent 0 until a
// verification discovers the true parent.
func (c *Controller) direntPageParentLocked(p nvm.PageID, creator LibFSID) (core.Ino, bool) {
	if p == core.RootInodePage {
		return 0, true
	}
	if ino := c.pageOwnerAt(p); ino != 0 {
		if fs, _ := c.files.get(ino); fs != nil && fs.ftype == core.TypeDir {
			return ino, true
		}
		return 0, false
	}
	if ls := c.libfses[creator]; ls != nil && ls.allocPages[p] {
		return 0, true
	}
	return 0, false
}

// UnmapFile releases this LibFS's mapping of ino (paper Fig. 2, step 5).
// When the mapping was writable, the integrity verifier checks the
// file's core state before the pages become shareable again (steps 6–8).
func (s *Session) UnmapFile(ino core.Ino) error {
	s.c.trap()
	start := time.Now()
	defer func() { s.c.stats.addUnmapN(1, time.Since(start)) }()

	c := s.c
	sp := telemetry.StartSpan(c.shardIdxIno(ino), "controller.unmap", "controller")
	defer sp.End()
	c.stats.shard(c.shardIdxIno(ino)).Unmaps.Add(1)
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)

	err := s.unmapFast(ino, nil, sp)
	if err != errEscalate {
		return err
	}
	c.lockAll()
	defer c.unlockAll()
	if err := s.aliveLocked(); err != nil {
		return err
	}
	return c.unmapLocked(s.ls, ino, nil, sp)
}

// unmapFast is UnmapFile under only the involved shards' locks. Reader
// detaches always qualify; writer detaches qualify when the file is a
// clean regular file whose pages are owned within the file and its
// parent — corruption handling and directory child adoption escalate.
// sp is the caller's unmap span (inert when tracing is off).
func (s *Session) unmapFast(ino core.Ino, acc *int, sp telemetry.Span) error {
	c := s.c
	set, fs := c.lockForFile(c.shardIdxSession(s.ls.id), ino, true)
	defer c.unlockShards(&set)
	if err := s.aliveLocked(); err != nil {
		return err
	}
	m, err := c.writerToUnmapLocked(s.ls, fs, ino)
	if m == nil {
		return err
	}
	if fs.ftype != core.TypeReg || fs.quarantined != 0 || fs.corrupt {
		return errEscalate
	}
	rep, err := c.verifyReleaseLocked(fs, s.ls, acc)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return errEscalate // the fix/rollback machinery needs everything
	}
	if !c.pagesOwnedWithin(rep.Pages, fs.ino, fs.parent) || // none when scoped
		!c.runsOwnedWithin(m.runs, fs) {
		return errEscalate
	}
	c.commitReportLocked(fs, s.ls, rep)
	own, foreign := c.finishWriteUnmapLocked(s.ls, fs, m)
	// Seal under the narrowest lock that still serializes the record
	// RMWs: pages owned by the file need only its home shard, so the
	// session's and parent's shards are released first — the seal is the
	// one streaming (sleeping) access of the unmap, and holding three
	// shards through it would let two random unmaps conflict most of the
	// time, flattening the shard scaling this path exists for. The few
	// pages owned elsewhere (the dirent page, owned by the parent) seal
	// now, while the full set is still held.
	c.sealQuiescentLocked(foreign, sp)
	c.downgradeToShard(&set, c.shardIdxIno(fs.ino))
	c.sealQuiescentLocked(own, sp)
	return nil
}

// writerToUnmapLocked resolves the mapping an unmap of ino releases.
// Only a write mapping comes back for the caller to verify: a read
// mapping is released here (readers could not have written), and nil
// with a nil error reports that done.
func (c *Controller) writerToUnmapLocked(ls *libfsState, fs *fileState, ino core.Ino) (*mapping, error) {
	m := ls.mapped[ino]
	switch {
	case m == nil && ls.revoked[ino]:
		return nil, fmt.Errorf("%w: ino %d", ErrRevoked, ino)
	case m == nil:
		return nil, fmt.Errorf("%w: ino %d is not mapped", ErrBadRequest, ino)
	case fs == nil:
		return nil, fmt.Errorf("%w: ino %d", ErrUnknownFile, ino)
	case !m.write:
		ls.releaseLocked(m)
		delete(fs.readers, ls.id)
		return nil, nil
	}
	return m, nil
}

func (c *Controller) unmapLocked(ls *libfsState, ino core.Ino, acc *int, sp telemetry.Span) error {
	fs, _ := c.files.get(ino)
	m, err := c.writerToUnmapLocked(ls, fs, ino)
	if m == nil {
		return err
	}

	rep, err := c.verifyReleaseLocked(fs, ls, acc)
	if err != nil {
		return err
	}
	if !rep.OK() {
		rep = c.handleCorruptionLocked(fs, ls)
	}
	if rep != nil {
		// commitReportLocked transfers the pool references of newly
		// absorbed pages onto this mapping, so the single unref below
		// releases everything.
		c.commitReportLocked(fs, ls, rep)
	}
	own, foreign := c.finishWriteUnmapLocked(ls, fs, m)
	c.sealQuiescentLocked(foreign, sp)
	c.sealQuiescentLocked(own, sp)
	return nil
}

// finishWriteUnmapLocked is the tail both writer-unmap paths share:
// release the mapping's references and resolve any outstanding recall.
// It returns the now-quiescent pages for the caller to seal — the
// writer is gone and its stores are durable (every LibFS write persists
// before returning), so the content is exactly what a scrub should
// vouch for — split into the runs the file owns and the rest (the
// dirent page, owned by the parent), which unmapFast seals under
// different lock sets.
func (c *Controller) finishWriteUnmapLocked(ls *libfsState, fs *fileState, m *mapping) (own, foreign []pageRun) {
	ls.releaseLocked(m)
	fs.writer = 0
	c.dropCheckpointLocked(fs)
	c.stats.observeRecall(fs.recallAt)
	fs.recallAt = time.Time{} // the holder complied; recall resolved

	// The file owns exactly fs.pages: that is the seal set, pages the
	// mapping missed (a same-group writer's appends) included, and what
	// the mapping held beyond it is the rest. The caller seals own under
	// the file's shard lock, which is what fs.pages changes under.
	return fs.pages, runsDiff(nil, m.runs, fs.pages)
}

// verifyScope says whether a verification may carry the I2 facts of the
// file's last clean walk over instead of walking again, and when not,
// why not (Stats.VerifyFull*).
type verifyScope uint8

const (
	scopeFullWalk    verifyScope = iota // not a release (adoption, Commit, reap, recovery, repair): always walk
	scopeIndexClean                     // every index page keeps its facts, the releaser is their only writer
	scopeHeadMoved                      // the inode's Head is not the one the facts start from
	scopeFactsClear                     // an index page was stored to, or the file was never walked
	scopeOtherWriter                    // another session can store to an index page
	scopeNotRegular                     // directories are always walked
)

// scopeReasons names the scopes that are a release's reason to walk.
var scopeReasons = [...]string{
	scopeHeadMoved: "head_moved", scopeFactsClear: "facts_clear",
	scopeOtherWriter: "other_writer", scopeNotRegular: "not_regular",
}

// verifyReleaseLocked is verifyLocked for a write-unmap, where the
// MMU dirty bits can prove the walk redundant (DESIGN.md §5a). The rule:
// a page's facts survive only if every store to it since the walk that
// produced them would have cleared them. So the releasing session's
// dirty bits on the index pages are harvested and cleared here, inside
// its shootdown barrier and before any walk: a store that passed its
// check earlier has landed and cleared the facts, a later one sets the
// bit again for the release's own harvest — which runs after this
// verification's commit, so it clears whatever facts that commit set.
func (c *Controller) verifyReleaseLocked(fs *fileState, ls *libfsState, acc *int) (*verifier.Report, error) {
	scope := scopeIndexClean
	switch {
	case fs.ftype != core.TypeReg:
		scope = scopeNotRegular
	case len(fs.chain) == 0:
		scope = scopeFactsClear
	default:
		ls.as.HarvestDirty(fs.chain, func(p nvm.PageID, was mmu.Perm, dirty bool) {
			c.tabMu.Lock()
			if dirty {
				c.storedLocked(p)
			}
			own := int32(0)
			if was == mmu.PermWrite {
				own = 1 // the releasing session counts itself
			}
			if ps := c.chainPageScopeLocked(p, own); ps == scopeFactsClear || scope == scopeIndexClean {
				scope = ps
			}
			c.tabMu.Unlock()
		})
	}
	return c.verifyLocked(fs, ls, acc, scope)
}

// verifyLocked invokes the trusted verifier process on one file; scope is
// scopeFullWalk for everything but a release (verifyReleaseLocked).
// The controller→verifier round trip costs one IPC (§6.5: verification
// dominated by this for small files). A failed verification is
// emitted as a "verify.failure" trace event (Arg = ino) whenever
// tracing is armed.
//
// acc, when non-nil, is a batch's verify accumulator: instead of paying
// the IPC round trip inline, the call is counted and the batch charges
// one IPCN for all its verifications (the crossing cost is per batch,
// not per verification).
func (c *Controller) verifyLocked(fs *fileState, ls *libfsState, acc *int, scope verifyScope) (*verifier.Report, error) {
	if acc != nil {
		*acc++
	} else if c.cost != nil {
		c.cost.IPC()
	}
	if acc == nil {
		start := time.Now()
		defer func() { c.stats.addVerify(time.Since(start)) }()
	} else {
		// Batch path: count the verification but skip the per-call clock
		// pair — the batch keeps one clock for all its entries.
		c.stats.VerifyCnt.Add(1)
	}
	env := &ls.verifyEnv
	*env = envImpl{c: c, fs: fs, ls: ls, scope: scope}
	// The session's scratch report: VerifyFileInto detaches Children,
	// which commitReportLocked retains as the directory's verified child
	// list; everything else a caller wants past the session's next
	// verification it copies out.
	rep := &ls.verifyRep
	err := c.verifier.VerifyFileInto(rep, env, fs.ino, fs.loc, fs.ino == core.RootIno)
	if scope == scopeIndexClean && !rep.Scoped && rep.Inode.Type == core.TypeReg {
		scope = scopeHeadMoved // the one thing left to the verifier: it reads the inode
	}
	c.stats.observeVerify(rep, scope)
	if err == nil && !rep.OK() {
		if telemetry.TracingOn() {
			telemetry.Emit(0, "verify.failure", "controller", int64(fs.ino),
				fmt.Sprintf("libfs %d: %v", ls.id, rep.Violations))
		}
	}
	return rep, err
}

// commitReportLocked records a clean verification outcome: the file's
// new page set, ino bindings and shadow adoptions for new children. A
// scoped report walked nothing: the recorded set, facts and generation
// stand as they are.
func (c *Controller) commitReportLocked(fs *fileState, ls *libfsState, rep *verifier.Report) {
	if !rep.Scoped {
		c.commitPagesLocked(fs, ls, rep)
	}
	c.commitReportTailLocked(fs, ls, rep)
}

// commitPagesLocked records what a clean full walk found: its facts, and
// the page set — consuming newly bound pages from the allocation pool
// and parking pages that left the file.
func (c *Controller) commitPagesLocked(fs *fileState, ls *libfsState, rep *verifier.Report) {
	if rep.Inode.Type == core.TypeReg {
		// The facts go in before any reference below is dropped: a drop
		// harvests dirty bits, and a store that raced the walk must find
		// the bit it has to clear already set (verifyReleaseLocked).
		fs.head, fs.chain = rep.Inode.Head, append(fs.chain[:0], rep.Index...)
		fs.gen = c.genSeq.Add(1)
		c.tabMu.Lock()
		for _, p := range fs.chain {
			c.facts[p] = true
		}
		c.tabMu.Unlock()
	}
	if len(rep.Pages) == 0 && len(fs.pages) == 0 {
		// Empty file with no page history (the create/unlink hot path):
		// there is no page set to reconcile, and this runs twice per
		// small-file cycle (adopt and write-unmap).
		return
	}
	// rep.Pages is duplicate-free by I2; data pages come in walk order,
	// so a sequentially allocated file appends straight into a few runs.
	newSet := ls.runScratch[:0]
	for _, p := range rep.Pages {
		newSet = appendPage(newSet, p)
	}
	newSet = normalizeRuns(newSet)
	ls.runScratch = newSet
	if slices.Equal(newSet, fs.pages) {
		return // unchanged page set (the overwrite handover): nothing to bind, park or transfer
	}
	// Pool references of consumed pages either transfer onto the caller's
	// still-open mapping of this file or are dropped.
	m := ls.mapped[fs.ino]
	var buf [4]pageRun
	for _, r := range runsDiff(buf[:0], newSet, fs.pages) {
		for p := r.start; p < r.end(); p++ {
			c.tracePage(p, "bind-commit ino=%d ls=%d pool=%v parked=%v", fs.ino, ls.id, ls.allocPages[p], ls.parked[p])
			if ls.allocPages[p] || ls.parked[p] {
				delete(ls.allocPages, p)
				delete(ls.parked, p)
				if m != nil && runsFind(m.runs, p) < 0 {
					m.runs = runsAdd(m.runs, p) // transfer the pool ref
				} else {
					// No open mapping to transfer to (adopt path), or the
					// page was double-counted at grant time.
					ls.unrefPageLocked(p)
				}
			}
			c.setPageOwner(p, fs.ino)
		}
	}
	// Pages that left the file are parked on the verified LibFS rather
	// than freed. The walk behind this report can race the holder's
	// last in-flight append when the verification was forced on it
	// (lease revocation, reap of a dying process): a page the walk did
	// not reach may still be referenced by an index entry whose store
	// landed an instant later. Parked it stays attributed — later
	// verifications accept it (PageAllocated) and rebind it if it is
	// referenced — and the session-teardown stray sweep settles it for
	// good; only then does a truly departed page become free.
	for _, r := range runsDiff(buf[:0], fs.pages, newSet) {
		for p := r.start; p < r.end(); p++ {
			c.clearPageOwner(p)
			if m != nil && runsFind(m.runs, p) >= 0 {
				// Move from the file mapping to the parked set; its
				// reference becomes the parked reference, so an alive
				// holder mid-append keeps its MMU access.
				m.runs = runsRemove(m.runs, p)
			} else {
				ls.refPageLocked(p, mmu.PermWrite)
			}
			ls.parked[p] = true
			c.tracePage(p, "park-depart ino=%d ls=%d", fs.ino, ls.id)
		}
	}
	fs.pages = slices.Clone(newSet)
}

// commitReportTailLocked is the page-set-independent half of
// commitReportLocked: shadow adoption and child bookkeeping.
func (c *Controller) commitReportTailLocked(fs *fileState, ls *libfsState, rep *verifier.Report) {
	// Shadow adoption / refresh.
	if _, ok := c.shadowOf(fs.ino); !ok {
		c.setShadow(fs.ino, verifier.ShadowInfo{
			Mode: rep.Inode.Mode, UID: ls.uid, GID: ls.gid, Type: rep.Inode.Type,
		})
		delete(ls.allocInos, fs.ino)
	}

	if rep.Inode.Type != core.TypeDir {
		return
	}
	// Children: refresh locations, adopt new files — recursively, so
	// that an entire freshly created subtree becomes "existing files"
	// in the global information the moment its top is verified. Without
	// this, the next writer's verification of this directory would see
	// the subtree's inos as unattributed (I2 false positives).
	fs.children = rep.Children
	for i := range rep.Children {
		ch := &rep.Children[i]
		c.adoptChildLocked(fs, ls, ch)
	}
}

// adoptChildLocked records one dirent's file (and, for directories, its
// whole unverified subtree) into the controller's global information.
func (c *Controller) adoptChildLocked(parent *fileState, ls *libfsState, ch *verifier.ChildRef) {
	if cfs, ok := c.files.get(ch.Ino); ok {
		cfs.loc = ch.Loc
		cfs.parent = parent.ino
		return
	}
	cfs := &fileState{ino: ch.Ino, loc: ch.Loc, ftype: ch.Inode.Type, parent: parent.ino}
	// Bind the child's own pages by walking it (they are consumed from
	// the creator's pool). The chain is unverified core state: skip
	// impossible page ids rather than let them into the dense tables.
	total := c.dev.NumPages()
	bindPage := func(p nvm.PageID) bool {
		if p < total {
			cfs.pages = appendPage(cfs.pages, p)
		}
		return true
	}
	core.WalkFile(c.mem, ch.Inode.Head, int(c.dev.NumPages()),
		bindPage,
		func(_ uint64, p nvm.PageID) bool { return bindPage(p) })
	cfs.pages = normalizeRuns(cfs.pages)
	cm := ls.mapped[ch.Ino]
	for _, r := range cfs.pages {
		for p := r.start; p < r.end(); p++ {
			c.tracePage(p, "bind-adopt ino=%d ls=%d pool=%v", ch.Ino, ls.id, ls.allocPages[p])
			if ls.allocPages[p] {
				delete(ls.allocPages, p)
				if cm != nil {
					cm.runs = runsAdd(cm.runs, p) // transfer the pool ref
				} else {
					// The creator loses its implicit pool mapping; its
					// next access faults and it re-maps through MapFile.
					ls.unrefPageLocked(p)
				}
			}
			c.pageOwner[p] = ch.Ino
		}
	}
	// Adoption is the moment the creator's implicit pool write access
	// ends: seal the child's now-quiescent pages so the scrubber (and
	// VerifyReads readers) can vouch for them. Pages a session still
	// write-maps are skipped inside sealQuiescentLocked.
	c.sealQuiescentLocked(cfs.pages, telemetry.Span{})
	c.registerFileLocked(cfs)
	if !c.shadow.has(ch.Ino) {
		// Credentials: the LibFS the ino was issued to (it may differ
		// from the LibFS under verification within a trust group).
		uid, gid := ls.uid, ls.gid
		if holder, ok := c.allocBy.get(ch.Ino); ok {
			if hls := c.libfses[holder]; hls != nil {
				uid, gid = hls.uid, hls.gid
			}
		}
		c.shadow.set(ch.Ino, verifier.ShadowInfo{
			Mode: ch.Inode.Mode, UID: uid, GID: gid, Type: ch.Inode.Type,
		})
	}
	delete(ls.allocInos, ch.Ino)

	if ch.Inode.Type != core.TypeDir {
		return
	}
	// Recurse into a freshly adopted directory: enumerate its dirents
	// from the core state and adopt the grandchildren.
	var dirPages []nvm.PageID
	core.WalkFile(c.mem, ch.Inode.Head, int(c.dev.NumPages()), nil,
		func(_ uint64, p nvm.PageID) bool { dirPages = append(dirPages, p); return true })
	for _, p := range dirPages {
		dpage, err := core.ReadDirPage(c.mem, p)
		if err != nil {
			continue
		}
		for slot := 0; slot < core.SlotsPerDirPage; slot++ {
			if dpage.SlotIno(slot) == 0 {
				continue
			}
			gc := dpage.SlotInode(slot)
			name, err := dpage.SlotName(slot)
			if err != nil {
				continue
			}
			ref := verifier.ChildRef{
				Ino: gc.Ino, Name: name,
				Loc: core.FileLoc{Page: p, Slot: slot}, Inode: gc,
			}
			cfs.children = append(cfs.children, ref)
			c.adoptChildLocked(cfs, ls, &ref)
		}
	}
}

// checkpointLocked snapshots the file's metadata before write access is
// handed out (§4.3): the dirent slot the caller read, plus index pages
// for regular files, index and data pages for directories. gen is the
// generation the grant vouches for (grantRuns), zero when none: with
// it, the images kept from the last such grant of the same generation
// are still the media's content, and failing those the pages to copy
// are the recorded chain — no walk either way.
func (c *Controller) checkpointLocked(fs *fileState, slot *[core.DirentSize]byte, gen uint64) {
	c.dropCheckpointLocked(fs) // Commit re-baselines over a live one
	cp := c.swapKeptLocked(fs, nil)
	if cp == nil || cp.gen != gen || gen == 0 {
		cp.free()
		cp = &checkpoint{gen: gen}
		// pages stays nil for empty files (nothing to snapshot, and this
		// runs on every write map); the restore/preserve paths range over
		// it, which a nil map supports.
		snap := func(p nvm.PageID) bool {
			img := cpBufPool.Get().(*[nvm.PageSize]byte)
			if err := c.mem.Read(p, 0, img[:]); err != nil {
				cpBufPool.Put(img)
			} else {
				if cp.pages == nil {
					cp.pages = make(map[nvm.PageID]*[nvm.PageSize]byte)
				}
				cp.pages[p] = img
			}
			return true
		}
		snapIndex := func(p nvm.PageID) bool { c.stats.IndexReads.Add(1); return snap(p) }
		head := core.DecodeInode(slot[:]).Head
		switch {
		case gen != 0:
			for _, p := range fs.chain {
				snapIndex(p)
			}
		case fs.ftype == core.TypeDir:
			core.WalkFile(c.mem, head, int(c.dev.NumPages()), snapIndex,
				func(_ uint64, p nvm.PageID) bool { return snap(p) })
		default:
			core.WalkFile(c.mem, head, int(c.dev.NumPages()), snapIndex, nil)
		}
	}
	cp.dirent = *slot
	if fs.ftype == core.TypeDir {
		cp.children = append([]verifier.ChildRef(nil), fs.children...)
	}
	fs.checkpoint = cp
	c.stats.Checkpoints.Add(1)
}

// handleCorruptionLocked implements the §4.3 policy: give the guilty
// LibFS a bounded chance to fix the state; failing that, preserve the
// corrupted bytes for the guilty LibFS (as its private data) and roll
// the shared file back to the checkpoint. The failed report is gone by
// the time it returns: every re-verification refills the session's one
// scratch report. It returns that report when the state it describes —
// fixed or rolled back — verified clean, nil when the file ends up
// quarantined.
func (c *Controller) handleCorruptionLocked(fs *fileState, ls *libfsState) *verifier.Report {
	c.stats.Corruptions.Add(1)

	if ls.fix != nil {
		done := make(chan error, 1)
		go func() { done <- ls.fix(fs.ino) }()
		select {
		case err := <-done:
			if err == nil {
				if rep2, err2 := c.verifyLocked(fs, ls, nil, scopeFullWalk); err2 == nil && rep2.OK() {
					c.stats.Fixed.Add(1)
					return rep2
				}
			}
		case <-time.After(c.opts.FixTimeout):
		}
	}

	// Preserve the corrupted file content privately for the guilty
	// LibFS: copy the corrupted metadata pages into fresh pages handed
	// to its allocation pool, so no data is lost (§4.3).
	if fs.checkpoint != nil {
		if copies, err := c.pageAlloc.AllocPages(0, len(fs.checkpoint.pages)); err == nil {
			i := 0
			for p := range fs.checkpoint.pages {
				buf := make([]byte, nvm.PageSize)
				if c.mem.Read(p, 0, buf) == nil {
					c.markStored(copies[i])
					c.mem.Write(copies[i], 0, buf)
					c.mem.Persist(copies[i], 0, nvm.PageSize)
				}
				ls.allocPages[copies[i]] = true
				ls.refPageLocked(copies[i], mmu.PermWrite)
				c.tracePage(copies[i], "grant-preserve ls=%d", ls.id)
				i++
			}
		}
	}

	// Roll back to the checkpoint.
	c.restoreCheckpointLocked(fs)
	c.stats.Rollbacks.Add(1)

	// Re-verify the restored state; it must pass (it did when the
	// checkpoint was cut).
	rep2, err := c.verifyLocked(fs, ls, nil, scopeFullWalk)
	if err == nil && rep2.OK() {
		return rep2
	}
	// Last resort: quarantine the file as private to the guilty LibFS.
	fs.quarantined = ls.id
	return nil
}

// restoreCheckpointLocked writes the checkpointed metadata pages and the
// dirent slot back — the inode, which reconciles the file size (§4.3:
// "trimming or padding"), and the name, which the grantee could scribble
// on just as well.
func (c *Controller) restoreCheckpointLocked(fs *fileState) {
	cp := fs.checkpoint
	if cp == nil {
		return
	}
	// The controller's own stores: none of these pages is clean any more.
	for p, img := range cp.pages {
		c.markStored(p)
		c.mem.Write(p, 0, img[:])
		c.mem.Persist(p, 0, nvm.PageSize)
		c.tracePage(p, "restore ino=%d", fs.ino)
	}
	c.markStored(fs.loc.Page)
	off := core.SlotOffset(fs.loc.Slot)
	c.mem.Write(fs.loc.Page, off, cp.dirent[:])
	c.mem.Persist(fs.loc.Page, off, core.DirentSize)
	c.mem.Fence()
	fs.children = append([]verifier.ChildRef(nil), cp.children...)
	// Whatever a LibFS built from the rolled-back state is void.
	c.voidFactsLocked(fs)
}

// voidFactsLocked forgets the file's last clean walk, for a change to the
// file no harvested dirty bit reports: its next release walks, its next
// grant is built by a walk and vouches for nothing, and no aux or kept
// checkpoint image of the old generation is taken back.
func (c *Controller) voidFactsLocked(fs *fileState) {
	fs.head, fs.chain = 0, fs.chain[:0]
	fs.gen = c.genSeq.Add(1)
}

// envImpl adapts the controller's global bookkeeping to verifier.Env.
// sys marks a trusted full-scan (VerifyAll / arckfsck): resources
// issued to any LibFS count as legitimately allocated, since the scan
// visits files whose owners have not yet gone through a verification
// cycle.
type envImpl struct {
	c   *Controller
	fs  *fileState
	ls  *libfsState
	sys bool
	// scope is what verifyReleaseLocked found (the zero value walks).
	scope verifyScope
}

// IndexUnchanged implements verifier.IndexFacts.
func (e *envImpl) IndexUnchanged(head nvm.PageID) bool {
	return e.scope == scopeIndexClean && head == e.fs.head
}

func (e *envImpl) TotalPages() uint64           { return uint64(e.c.dev.NumPages()) }
func (e *envImpl) PageInFile(p nvm.PageID) bool { return runsFind(e.fs.pages, p) >= 0 }
func (e *envImpl) PageAllocated(p nvm.PageID) bool {
	if e.ls.allocPages[p] || e.ls.parked[p] {
		return true
	}
	if e.sys {
		for _, ls := range e.c.libfses {
			if ls.allocPages[p] || ls.parked[p] {
				return true
			}
		}
	}
	return false
}
func (e *envImpl) PageOwner(p nvm.PageID) (core.Ino, bool) {
	ino, ok := e.c.ownerOf(p)
	if ok && ino == e.fs.ino {
		return 0, false
	}
	return ino, ok
}
func (e *envImpl) InoKnown(ino core.Ino) bool { return e.c.files.has(ino) }
func (e *envImpl) InoAllocated(ino core.Ino) bool {
	if e.sys {
		ok := e.c.allocBy.has(ino)
		return ok
	}
	// Inos issued to any LibFS in the same trust group count: group
	// members share a LibFS in practice, but the bookkeeping is per
	// session.
	holder, ok := e.c.allocHolderOf(ino)
	if !ok {
		return false
	}
	if holder == e.ls.id {
		return true
	}
	h := e.c.libfses[holder]
	return h != nil && h.group == e.ls.group
}
func (e *envImpl) Shadow(ino core.Ino) (verifier.ShadowInfo, bool) {
	return e.c.shadowOf(ino)
}
func (e *envImpl) CredFor(ino core.Ino) (uint32, uint32) {
	if e.sys {
		if holder, ok := e.c.allocBy.get(ino); ok {
			if ls := e.c.libfses[holder]; ls != nil {
				return ls.uid, ls.gid
			}
		}
	}
	return e.ls.uid, e.ls.gid
}
func (e *envImpl) CheckpointChildren() ([]verifier.ChildRef, bool) {
	if e.fs.checkpoint != nil {
		return e.fs.checkpoint.children, true
	}
	if e.fs.children != nil {
		return e.fs.children, true
	}
	return nil, false
}
func (e *envImpl) DirDeletedOK(child core.Ino) bool {
	cfs, ok := e.c.files.get(child)
	if !ok {
		// Never verified: created and removed by the same LibFS.
		return true
	}
	if cfs.writer != 0 || len(cfs.readers) > 0 {
		return false
	}
	// Deleted directory must have no live entries.
	in, err := core.ReadDirentInode(e.c.mem, cfs.loc.Page, cfs.loc.Slot)
	if err != nil {
		return false
	}
	empty := true
	core.WalkFile(e.c.mem, in.Head, int(e.c.dev.NumPages()), nil,
		func(_ uint64, p nvm.PageID) bool {
			dp, err := core.ReadDirPage(e.c.mem, p)
			if err != nil {
				empty = false
				return false
			}
			for slot := 0; slot < core.SlotsPerDirPage; slot++ {
				if dp.SlotIno(slot) != 0 {
					empty = false
					return false
				}
			}
			return true
		})
	return empty
}
