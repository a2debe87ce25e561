package controller

import (
	"time"

	"trio/internal/core"
	"trio/internal/nvm"
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
	// dirent and the (batched, deferred) RemoveFile call.
	var deadDirs []*fileState
	for ino, m := range ls.mapped {
		if m.write {
			if fs, _ := c.files.get(ino); fs != nil && fs.ftype == core.TypeDir {
				deadDirs = append(deadDirs, fs)
			}
		}
	}

	// Readers detach without verification (they could not have written);
	// writers go through the verify/repair path. Directories settle
	// first: once they are verified (or rolled back, or quarantined)
	// their dirent bytes are trustworthy, and reapFileLocked uses them
	// to tell a file the dead session had unlinked from one it merely
	// corrupted.
	for pass := 0; pass < 2; pass++ {
		for ino, m := range ls.mapped {
			fs, _ := c.files.get(ino)
			if fs == nil {
				delete(ls.mapped, ino)
				continue
			}
			if !m.write {
				if pass == 0 {
					ls.releaseLocked(m)
					delete(fs.readers, ls.id)
				}
				continue
			}
			if (fs.ftype == core.TypeDir) == (pass == 0) {
				c.reapFileLocked(ls, fs)
			}
		}
	}

	c.reapOrphansLocked(ls, deadDirs)

	c.bindStrayPoolPagesLocked(ls)

	// Only now release the allocation pool: verification above needed
	// it intact to attribute the dead session's freshly bound pages
	// (envImpl.PageAllocated). Whatever commitReportLocked absorbed
	// into files is gone from the pool; the rest returns to the
	// allocator.
	var pages []nvm.PageID
	for p := range ls.allocPages {
		pages = append(pages, p)
		delete(ls.allocPages, p)
		c.tracePage(p, "free-reap-pool ls=%d", ls.id)
	}
	for p := range ls.parked {
		pages = append(pages, p)
		delete(ls.parked, p)
		// Not always a no-op: a commit above parks a page that left its
		// file outside the dead session's mapping with a fresh reference.
		ls.unrefPageLocked(p)
		c.tracePage(p, "free-reap-parked ls=%d", ls.id)
	}
	c.pageAlloc.FreePages(pages)
	for ino := range ls.allocInos {
		c.allocBy.del(ino)
		delete(ls.allocInos, ino)
		// A surviving LibFS may hold a batched removal for a pool file
		// of the dead session (shared directory); make it idempotent.
		if !c.files.has(ino) {
			c.reaped.set(ino, true)
		}
	}
	c.unregisterSessionLocked(ls.id)
	// Counted last: whoever sees the reap counted sees its frees landed.
	c.stats.Reaps.Add(1)
	c.stats.shard(c.shardIdxSession(ls.id)).Reaps.Add(1)
}

// reapOrphansLocked garbage-collects files a dead session unlinked but
// never retired: LibFSes batch RemoveFile calls (§4.5), so a process
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
		if fs.writer != 0 || len(fs.readers) > 0 {
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
			c.pageOwner[p], c.facts[p] = 0, false
			ls.parked[p] = true
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

// reapFileLocked forcibly revokes one write mapping: verify the file's
// core state and, when the dead or unresponsive holder left it corrupt,
// roll back to the checkpoint — there is no fix-handler grace here, the
// process is gone (or out of grace). A file that cannot be restored to
// a verified state is quarantined.
func (c *Controller) reapFileLocked(ls *libfsState, fs *fileState) {
	// A gone dirent means the holder had committed an unlink of this
	// file (the atomic dirent clear IS the unlink's commit point) and
	// the batched RemoveFile never arrived — or a rollback of the
	// parent restored a state from before the file existed. The file
	// is not corrupt — it is deleted. Retire it; "repairing" it would
	// resurrect the dead inode over whatever owns the slot now. The
	// dirent is only trusted when the parent directory is not
	// quarantined.
	if c.direntGoneLocked(fs) {
		if pfs, _ := c.files.get(fs.parent); pfs == nil || pfs.quarantined == 0 {
			c.retireFileLocked(ls, fs)
			return
		}
	}
	c.stats.ReapVerifies.Add(1)
	rep, err := c.verifyLocked(fs, ls, nil, scopeFullWalk)
	if err == nil && rep.OK() {
		c.commitReportLocked(fs, ls, rep)
	} else {
		c.stats.Corruptions.Add(1)
		c.restoreCheckpointLocked(fs)
		c.stats.Rollbacks.Add(1)
		rep2, err2 := c.verifyLocked(fs, ls, nil, scopeFullWalk)
		if err2 == nil && rep2.OK() {
			c.commitReportLocked(fs, ls, rep2)
		} else {
			fs.quarantined = ls.id
			c.stats.ReapQuarantines.Add(1)
		}
	}
	if m := ls.mapped[fs.ino]; m != nil {
		ls.releaseLocked(m)
	}
	ls.revoked[fs.ino] = true
	fs.writer = 0
	c.dropCheckpointLocked(fs)
	c.stats.observeRecall(fs.recallAt)
	fs.recallAt = time.Time{}
}

// retireFileLocked finishes an unlink the (dead or revoked) holder
// committed but never reported: release the holder's mapping, free the
// file's bound pages and drop the record. The tombstone makes the
// holder's own batched RemoveFile — or a surviving trust-group
// sibling's — an idempotent no-op.
func (c *Controller) retireFileLocked(ls *libfsState, fs *fileState) {
	if m := ls.mapped[fs.ino]; m != nil {
		ls.releaseLocked(m)
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
			if ls.allocPages[p] || ls.parked[p] {
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
// for a contended file under only the file's home shard lock, and
// returns how long the caller should wait before re-checking (0 =
// state changed, re-check now). It is safe under the narrow lock set
// because everything it touches is either guarded by the file's home
// shard (fs.writer, fs.writerSince, fs.recallAt), written only under
// lockAll and therefore stable under any shard lock (ls.dead,
// ls.recall, the registries), or internally synchronized (stats).
// The two transitions that mutate foreign-shard state — reaping a dead
// holder and forcibly revoking past the recall deadline — return
// errEscalate so the caller reruns under lockAll.
func (c *Controller) escalateLeaseFastLocked(fs *fileState) (time.Duration, error) {
	holder := c.libfses[fs.writer]
	if holder == nil {
		// Holder vanished (closed or reaped concurrently).
		fs.writer = 0
		c.stats.observeRecall(fs.recallAt)
		fs.recallAt = time.Time{}
		return 0, nil
	}
	if holder.dead {
		// The holder's process is gone: the whole session must be
		// reaped, which tears down mappings homed on other shards.
		return 0, errEscalate
	}
	if remaining := c.opts.LeaseTime - time.Since(fs.writerSince); remaining > 0 {
		return remaining, nil
	}
	if fs.recallAt.IsZero() {
		if fn := holder.recall; fn != nil {
			// Step 1: ask nicely, once, off the lock.
			c.stats.LeaseRecalls.Add(1)
			c.stats.shard(c.shardIdxIno(fs.ino)).Recalls.Add(1)
			fs.recallAt = time.Now()
			ino := fs.ino
			go fn(ino)
			return c.opts.RecallTimeout, nil
		}
		// No recall handler: straight to forcible revocation.
		return 0, errEscalate
	}
	if left := c.opts.RecallTimeout - time.Since(fs.recallAt); left > 0 {
		// Step 2: recall outstanding; give it the rest of its deadline.
		return left, nil
	}
	// Step 3: the deadline passed — revoke.
	return 0, errEscalate
}

// escalateLeaseLocked is the lockAll form: identical escalation order
// (§4.5: wait out the lease → cooperative recall → recall deadline →
// forcible revocation), but able to complete the revocation and
// holder-reap transitions the fast form bails out of.
func (c *Controller) escalateLeaseLocked(fs *fileState) time.Duration {
	wait, err := c.escalateLeaseFastLocked(fs)
	if err == nil {
		return wait
	}
	holder := c.libfses[fs.writer]
	if holder.dead {
		// The holder's process is gone: reap the whole session — it can
		// never unmap anything again.
		c.reapLocked(holder)
		return 0
	}
	// No recall handler, or the deadline passed — revoke.
	c.stats.LeaseExpiries.Add(1)
	c.reapFileLocked(holder, fs)
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
