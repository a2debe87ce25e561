package controller

import (
	"time"

	"trio/internal/core"
	"trio/internal/nvm"
	"trio/internal/telemetry"
	"trio/internal/verifier"
)

// This file is the controller's answer to a LibFS that stops
// cooperating (paper §3.2, §4.3): a process that died mid-syscall, hung
// on an expired lease, or is actively malicious. The cooperative
// teardown path is Session.Close; everything here handles the
// ungraceful one — the half of the trust story where the kernel side
// must be able to reclaim, verify and re-share state without any help
// from the untrusted side.

// Abandon simulates the LibFS process dying without any teardown:
// mappings stay installed, allocated resources stay charged, and the
// file's core state may be half-written. From this point every syscall
// on the session returns ErrSessionDead; the state is reclaimed only
// when the controller reaps the session (explicitly via Reap, or by the
// lease sweeper).
func (s *Session) Abandon() {
	s.c.lockAll()
	defer s.c.unlockAll()
	s.ls.dead = true
}

// SetRecallHandler registers the LibFS's cooperative lease-recall
// program: invoked (asynchronously) when the controller wants a file
// whose lease this session let expire. The handler should release the
// file (UnmapFile) before RecallTimeout, or the controller revokes it
// forcibly.
func (s *Session) SetRecallHandler(fn func(ino core.Ino)) {
	s.c.lockAll()
	defer s.c.unlockAll()
	s.ls.recall = fn
}

// Reap forcibly tears down a session: revokes its whole address space,
// verifies (and repairs or quarantines) every file it had write-mapped,
// releases its page and inode allocations, and unregisters it. Files it
// held become immediately mappable by other trust domains. Reaping an
// unknown (already reaped or closed) session is a no-op, so explicit
// reaps and the background sweeper can race benignly.
func (c *Controller) Reap(id LibFSID) error {
	c.lockAll()
	defer c.unlockAll()
	ls := c.libfses[id]
	if ls == nil {
		return nil
	}
	c.reapLocked(ls)
	return nil
}

func (c *Controller) reapLocked(ls *libfsState) {
	ls.dead = true

	// Revoke the MMU first: from this instant the dead process — and
	// any delegation worker still acting on its behalf — faults on
	// every access, so the verifier below examines a frozen state. The
	// page table is empty afterwards: the releases below find nothing
	// left to double-count, except a reference taken after this point.
	c.revokeSpaceLocked(ls)

	// Directories the session had write-mapped are remembered for the
	// orphan sweep below: the session may have died between clearing a
	// dirent and the (batched, deferred) RemoveFiles call.
	var deadDirs []*fileState
	for _, m := range ls.mapped {
		if m.write && m.fs.ftype == core.TypeDir {
			deadDirs = append(deadDirs, m.fs)
		}
	}

	// Readers detach without verification (they could not have written);
	// writers go through the verify/repair path. Directories settle
	// first: once they are verified (or rolled back, or quarantined)
	// their dirent bytes are trustworthy, and reapFileLocked uses them
	// to tell a file the dead session had unlinked from one it merely
	// corrupted.
	for pass := 0; pass < 2; pass++ {
		for _, m := range ls.mapped {
			if !m.write {
				ls.releaseLocked(m)
			} else if (m.fs.ftype == core.TypeDir) == (pass == 0) {
				c.reapFileLocked(ls, m.fs)
			}
		}
	}

	c.reapOrphansLocked(ls, deadDirs)

	// Only now tear down: verification above needed the pool intact to
	// attribute the dead session's freshly bound pages
	// (envImpl.PageAllocated).
	c.teardownLocked(ls, "reap")
	// Counted last: whoever sees the reap counted sees its frees landed.
	c.stats.Reaps.Add(1)
	c.stats.shard(c.shardIdxSession(ls.id)).Reaps.Add(1)
}

// teardownLocked retires session ls once its mappings are settled: the
// one ending of Session.Close and of a reap. Pool resources the live core
// state references bind into their files; the rest of the pool and the
// parked pages return to the allocator (how names the path in the trace);
// issued inos no file took get a tombstone, so a surviving LibFS's
// batched removal of one is a no-op. The session then leaves both
// registries, is marked dead, and its address space is revoked — not
// merely unmapped — so a delegation batch still in flight over it fails
// (ErrRevoked) instead of racing the teardown.
func (c *Controller) teardownLocked(ls *libfsState, how string) {
	c.bindStrayPoolPagesLocked(ls)
	c.freePoolLocked(ls, how)
	for ino := range ls.allocInos {
		c.allocBy.del(ino)
		if !c.files.has(ino) {
			c.reaped.set(ino, true)
		}
	}
	clear(ls.allocInos)
	c.unregisterSessionLocked(ls.id)
	ls.dead = true
	c.revokeSpaceLocked(ls)
}

// reapOrphansLocked garbage-collects files a dead session unlinked but
// never retired: LibFSes batch RemoveFiles calls (§4.5), so a process
// that died mid-unlink leaves a cleared dirent with the controller's
// file record — and its pages — still live. A record is a candidate
// when nobody currently maps it and its dirent slot no longer names it,
// and it is attributable to the dead session: either its dirent sits on
// a page of a directory the session had write-mapped at death (clearing
// the slot required that MMU-enforced mapping), or its ino was issued
// to the session in the first place (covering directories whose write
// mapping a lease recall bounced away before the process died).
// Directories a rollback restored read a live dirent again and are
// skipped naturally; quarantined directories are skipped because their
// bytes cannot be trusted. A surviving LibFS that was itself mid-unlink
// on one of these files finds the removal already done (c.reaped).
func (c *Controller) reapOrphansLocked(ls *libfsState, deadDirs []*fileState) {
	direntPages := make(map[nvm.PageID]bool)
	for _, dir := range deadDirs {
		if dir.quarantined != 0 {
			continue
		}
		for _, r := range dir.pages {
			for p := r.start; p < r.end(); p++ {
				direntPages[p] = true
			}
		}
	}
	var orphans []*fileState
	c.files.forEach(func(ino core.Ino, fs *fileState) bool {
		if ino == core.RootIno {
			return true
		}
		if holder, _ := c.allocBy.get(ino); !direntPages[fs.loc.Page] && holder != ls.id {
			return true
		}
		if len(fs.holders) > 0 {
			return true
		}
		if !c.direntGoneLocked(fs) {
			return true
		}
		orphans = append(orphans, fs)
		return true
	})
	for _, fs := range orphans {
		// The stray sweep that follows rebinds the parked pages a
		// surviving file references; the pool release frees the rest.
		c.forgetFileLocked(ls, fs, "park-orphan ino=%d ls=%d")
		c.reaped.set(fs.ino, true)
	}
}

// forgetFileLocked drops a deleted file's record. Its pages are parked
// on ls, not freed: the binding walk that attributed them may have
// raced ls's own stores, so another of its files may reference one of
// them (see libfsState.parked). Teardown settles the set.
func (c *Controller) forgetFileLocked(ls *libfsState, fs *fileState, trace string) {
	for _, r := range fs.pages {
		for p := r.start; p < r.end(); p++ {
			c.clearPageOwner(p)
			ls.parked[p] = fs.ino
			c.tracePage(p, trace, fs.ino, ls.id)
		}
	}
	c.swapKeptLocked(fs, nil).free()
	c.unregisterFileLocked(fs.ino)
	c.shadow.del(fs.ino)
	c.allocBy.del(fs.ino)
}

// direntGoneLocked reports whether the dirent recorded for fs no longer
// names it: the ino word was cleared or reused (a committed unlink), or
// the page holding the slot is no longer part of the parent directory —
// a rollback can restore a directory state from before that page was
// appended, after which any bytes still sitting on the departed (and
// possibly freed and reallocated) page are not a live dirent no matter
// what they spell. The parent's page set is only consulted when the
// parent has a trusted, non-empty one.
func (c *Controller) direntGoneLocked(fs *fileState) bool {
	if pfs, _ := c.files.get(fs.parent); pfs != nil && pfs.quarantined == 0 &&
		len(pfs.pages) > 0 && runsFind(pfs.pages, fs.loc.Page) < 0 {
		return true
	}
	got, err := core.DirentIno(c.mem, fs.loc.Page, fs.loc.Slot)
	return err == nil && got != fs.ino
}

// reapFileLocked forcibly revokes ls's write mapping of fs: verify the
// file's core state and, when the dead, crashed or unresponsive holder
// left it corrupt, roll back to the checkpoint — there is no fix-handler
// grace here, the process is gone (or out of grace). A file that cannot
// be restored to a verified state is quarantined. It reports whether it
// rolled the file back.
func (c *Controller) reapFileLocked(ls *libfsState, fs *fileState) (rolledBack bool) {
	// A gone dirent means the holder had committed an unlink of this
	// file (the atomic dirent clear IS the unlink's commit point) and
	// the batched RemoveFiles never arrived — or a rollback of the
	// parent restored a state from before the file existed. The file
	// is not corrupt — it is deleted. Retire it; "repairing" it would
	// resurrect the dead inode over whatever owns the slot now. The
	// dirent is only trusted when the parent directory is not
	// quarantined.
	if c.direntGoneLocked(fs) {
		if pfs, _ := c.files.get(fs.parent); pfs == nil || pfs.quarantined == 0 {
			c.retireFileLocked(ls, fs)
			return false
		}
	}
	c.stats.ReapVerifies.Add(1)
	rep, err := c.verifyLocked(fs, ls, nil, scopeFullWalk)
	if err == nil && rep.OK() {
		c.commitReportLocked(fs, ls, rep)
	} else {
		rolledBack = true
		c.stats.Corruptions.Add(1)
		if rep := c.rollbackLocked(fs, ls); rep != nil {
			c.commitReportLocked(fs, ls, rep)
		} else {
			c.stats.ReapQuarantines.Add(1)
		}
	}
	if m := ls.mapped[fs.ino]; m != nil {
		c.releaseWriteLocked(m)
	}
	ls.revoked[fs.ino] = true
	return rolledBack
}

// retireFileLocked finishes an unlink the (dead or revoked) holder
// committed but never reported: release every mapping of the file — a
// co-holder's is revoked, as the file's pages are parked for teardown —
// park the file's bound pages and drop the record. The tombstone makes
// the holder's own batched RemoveFiles — or a surviving trust-group
// sibling's — an idempotent no-op.
func (c *Controller) retireFileLocked(ls *libfsState, fs *fileState) {
	for len(fs.holders) > 0 {
		m := fs.holders[0]
		if m.ls != ls {
			m.ls.revoked[fs.ino] = true
		}
		m.ls.releaseLocked(m)
	}
	c.forgetFileLocked(ls, fs, "park-retire ino=%d ls=%d")
	c.reaped.set(fs.ino, true)
}

// bindStrayPoolPagesLocked transfers resources of ls's allocation pool
// that the live core state already references into the controller's
// global information: pages a file's index reaches, and inos live
// dirents name. Such strays exist because binding walks (adoption
// during a parent's verification, or a forcible recall) read the core
// state while the pool's owner may be mid-operation in userspace: the
// walk can miss an index entry or a dirent whose store lands an instant
// later, leaving the page or ino referenced by the file system but
// still charged to the pool. While the session lives that is benign —
// the pool resource is legitimately allocated — but teardown is about
// to return the pool to the free lists, which would leave live files
// pointing at free pages or unattributed inos. The session is
// quiescent at teardown (closed or revoked), so this sweep sees its
// final stores. Resources referenced only by files whose dirent no
// longer names them (committed unlinks) are left in the pool and freed
// with it.
func (c *Controller) bindStrayPoolPagesLocked(ls *libfsState) {
	if len(ls.allocPages) == 0 && len(ls.parked) == 0 && len(ls.allocInos) == 0 {
		return
	}
	// Snapshot: adoptChildLocked below inserts into c.files.
	known := make([]*fileState, 0, c.files.count())
	c.files.forEach(func(_ core.Ino, fs *fileState) bool {
		known = append(known, fs)
		return true
	})
	for _, fs := range known {
		if fs.quarantined != 0 {
			continue
		}
		if c.direntGoneLocked(fs) {
			continue
		}
		in, err := core.ReadDirentInode(c.mem, fs.loc.Page, fs.loc.Slot)
		if err != nil {
			continue
		}
		fsRef := fs
		bind := func(p nvm.PageID) bool {
			if ls.pooled(p) {
				delete(ls.allocPages, p)
				delete(ls.parked, p)
				ls.unrefPageLocked(p)
				fsRef.pages = runsAdd(fsRef.pages, p)
				c.pageOwner[p] = fsRef.ino
				c.tracePage(p, "bind-stray ino=%d ls=%d", fsRef.ino, ls.id)
			}
			return true
		}
		var dirPages []nvm.PageID
		core.WalkFile(c.mem, in.Head, int(c.dev.NumPages()), bind,
			func(_ uint64, p nvm.PageID) bool {
				if in.Type == core.TypeDir {
					dirPages = append(dirPages, p)
				}
				return bind(p)
			})
		if len(ls.allocInos) == 0 {
			continue
		}
		// Dirents naming still-pooled inos: the create's verification
		// walk was outrun the same way. Adopt them like any other
		// freshly discovered child.
		for _, p := range dirPages {
			dp, derr := core.ReadDirPage(c.mem, p)
			if derr != nil {
				continue
			}
			for slot := 0; slot < core.SlotsPerDirPage; slot++ {
				child := dp.SlotInode(slot)
				if child.Ino == 0 || !ls.allocInos[child.Ino] {
					continue
				}
				name, nerr := dp.SlotName(slot)
				if nerr != nil {
					continue
				}
				ref := verifier.ChildRef{
					Ino: child.Ino, Name: name,
					Loc: core.FileLoc{Page: p, Slot: slot}, Inode: child,
				}
				fs.children = append(fs.children, ref)
				c.adoptChildLocked(fs, ls, &ref)
			}
		}
	}
}

// escalateLeaseFastLocked advances the lease-enforcement state machine
// for a file one group write-holds while another waits, under only the
// file's home shard lock, and returns how long the caller should wait
// before re-checking. The lease runs from the group's first write grant
// (fs.writerSince), and the recall goes to every write holder. It is
// safe under the narrow lock set because everything it touches is
// either guarded by the file's home shard (fs.holders, fs.writerSince,
// fs.recallAt), written only under lockAll and therefore stable under
// any shard lock (ls.dead, ls.recall), or internally synchronized
// (stats). The two transitions that mutate foreign-shard state —
// reaping a dead holder and forcibly revoking past the recall deadline
// — return errEscalate so the caller reruns under lockAll.
func (c *Controller) escalateLeaseFastLocked(fs *fileState) (time.Duration, error) {
	for _, m := range fs.holders {
		if m.write && m.ls.dead {
			// A holder's process is gone: the whole session must be
			// reaped, which tears down mappings homed on other shards.
			return 0, errEscalate
		}
	}
	now := telemetry.Now()
	if remaining := c.opts.LeaseTime - time.Duration(now-fs.writerSince); remaining > 0 {
		return remaining, nil
	}
	if fs.recallAt == 0 {
		// Step 1: ask nicely, once, off the lock. A group none of whose
		// holders has a recall handler goes straight to revocation.
		for _, m := range fs.holders {
			if fn := m.ls.recall; m.write && fn != nil {
				fs.recallAt = now
				go fn(fs.ino)
			}
		}
		if fs.recallAt == 0 {
			return 0, errEscalate
		}
		c.stats.LeaseRecalls.Add(1)
		c.stats.shard(c.shardIdxIno(fs.ino)).Recalls.Add(1)
		return c.opts.RecallTimeout, nil
	}
	if left := c.opts.RecallTimeout - time.Duration(now-fs.recallAt); left > 0 {
		// Step 2: recall outstanding; give it the rest of its deadline.
		return left, nil
	}
	// Step 3: the deadline passed — revoke.
	return 0, errEscalate
}

// escalateLeaseLocked is the lockAll form: identical escalation order
// (§4.5: wait out the lease → cooperative recall → recall deadline →
// forcible revocation), but able to complete the revocation and
// holder-reap transitions the fast form bails out of. A zero wait means
// the holders changed: re-check.
func (c *Controller) escalateLeaseLocked(fs *fileState) time.Duration {
	wait, err := c.escalateLeaseFastLocked(fs)
	if err == nil {
		return wait
	}
	for _, m := range fs.holders {
		if m.write && m.ls.dead {
			// A holder's process is gone: reap the whole session — it can
			// never unmap anything again.
			c.reapLocked(m.ls)
			return 0
		}
	}
	// No recall handler, or the deadline passed — revoke every write
	// holder of the group.
	c.stats.LeaseExpiries.Add(1)
	for m := fs.writeHolder(); m != nil; m = fs.writeHolder() {
		c.reapFileLocked(m.ls, fs)
	}
	return 0
}

// The background enforcement loop is per-shard since ISSUE 6: see
// Controller.shardSweeper in shard.go. Each shard reaps the abandoned
// sessions homed on it, escalates its own contended leases, and runs
// its slice of the scrub budget, so one tenant's churn cannot consume
// another shard's sweeper period.

// ReapAbandoned reaps every abandoned-but-unreaped session right now
// (the on-demand form of the sweepers' first half). It returns how many
// sessions were reaped.
func (c *Controller) ReapAbandoned() int {
	c.lockAll()
	defer c.unlockAll()
	var dead []*libfsState
	for _, ls := range c.libfses {
		if ls.dead {
			dead = append(dead, ls)
		}
	}
	for _, ls := range dead {
		c.reapLocked(ls)
	}
	return len(dead)
}
