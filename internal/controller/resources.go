package controller

import (
	"fmt"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// AllocPages hands the LibFS a batch of NVM pages, records them in the
// global information (for I2) and maps them read-write. LibFSes batch
// these calls through per-CPU caches, so the kernel crossing amortizes
// away (§4.5).
// Allocation runs under the session's home shard alone: the page and
// ino allocators are internally synchronized, the granted pages are
// exclusively the caller's (fresh and unowned, so no scrub or seal can
// race their checksum-record opens), and the accounting touched is the
// session's own plus the tabMu tables.
func (s *Session) AllocPages(cpu, n int) ([]nvm.PageID, error) {
	s.c.trap()
	c := s.c
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)
	sIdx := c.shardIdxSession(s.ls.id)
	c.stats.shard(sIdx).Allocs.Add(1)
	c.shards[sIdx].mu.Lock()
	defer c.shards[sIdx].mu.Unlock()
	if err := s.aliveLocked(); err != nil {
		return nil, err
	}
	pages, err := c.pageAlloc.AllocPages(cpu, n)
	if err != nil {
		return nil, err
	}
	c.openGrantedLocked(pages)
	for _, p := range pages {
		s.ls.allocPages[p] = true
		s.ls.refPageLocked(p, mmu.PermWrite)
		c.tracePage(p, "grant ls=%d", s.ls.id)
	}
	return pages, nil
}

// AllocPagesOnNode is AllocPages with NUMA placement, used by the
// striping datapath (§4.5).
func (s *Session) AllocPagesOnNode(cpu, n, node int) ([]nvm.PageID, error) {
	s.c.trap()
	c := s.c
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)
	sIdx := c.shardIdxSession(s.ls.id)
	c.stats.shard(sIdx).Allocs.Add(1)
	c.shards[sIdx].mu.Lock()
	defer c.shards[sIdx].mu.Unlock()
	if err := s.aliveLocked(); err != nil {
		return nil, err
	}
	pages, err := c.pageAlloc.AllocPagesOnNode(c.dev, cpu, n, node)
	if err != nil {
		return nil, err
	}
	c.openGrantedLocked(pages)
	for _, p := range pages {
		s.ls.allocPages[p] = true
		s.ls.refPageLocked(p, mmu.PermWrite)
		c.tracePage(p, "grant-node ls=%d", s.ls.id)
	}
	return pages, nil
}

// FreePages returns pages to the controller. A page is freeable when it
// sits in this LibFS's allocation pool, or when it belongs to a file
// this LibFS currently write-maps (truncate). Anything else is rejected
// — a LibFS cannot free another file's pages out from under it.
func (s *Session) FreePages(pages []nvm.PageID) error {
	s.c.trap()
	c := s.c
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)
	if err := s.freePagesFast(pages); err != errEscalate {
		return err
	}
	c.lockAll()
	defer c.unlockAll()
	if err := s.aliveLocked(); err != nil {
		return err
	}
	freeable := make([]nvm.PageID, 0, len(pages))
	for _, p := range pages {
		switch {
		case s.ls.parked[p]:
			// Already in post-departure limbo (see libfsState.parked);
			// it settles at teardown. Accept the free as a no-op rather
			// than risk releasing a page a racy walk unbound while the
			// LibFS still references it.
			c.tracePage(p, "free-noop-parked ls=%d", s.ls.id)
			continue
		case s.ls.allocPages[p]:
			delete(s.ls.allocPages, p)
			s.ls.unrefPageLocked(p)
			c.tracePage(p, "free-pool ls=%d", s.ls.id)
		case func() bool {
			ino := c.pageOwner[p]
			if ino == 0 {
				return false
			}
			m := s.ls.mapped[ino]
			if m == nil || !m.write {
				return false
			}
			fs, _ := c.files.get(ino)
			delete(fs.pages, p)
			c.pageOwner[p] = 0
			s.ls.unrefPageLocked(p)
			c.tracePage(p, "free-bound ino=%d ls=%d", ino, s.ls.id)
			return true
		}():
		default:
			c.pageAlloc.FreePages(freeable)
			return fmt.Errorf("%w: page %d is not freeable by this LibFS", ErrPermission, p)
		}
		freeable = append(freeable, p)
	}
	c.pageAlloc.FreePages(freeable)
	return nil
}

// freePagesFast handles frees that stay inside the caller's own pool
// and parked sets, under the session's home shard alone. A page bound
// into a file (truncate) involves the file's state, so it escalates.
func (s *Session) freePagesFast(pages []nvm.PageID) error {
	c := s.c
	sIdx := c.shardIdxSession(s.ls.id)
	c.shards[sIdx].mu.Lock()
	defer c.shards[sIdx].mu.Unlock()
	if err := s.aliveLocked(); err != nil {
		return err
	}
	for _, p := range pages {
		if !s.ls.parked[p] && !s.ls.allocPages[p] {
			return errEscalate
		}
	}
	freeable := make([]nvm.PageID, 0, len(pages))
	for _, p := range pages {
		if s.ls.parked[p] {
			c.tracePage(p, "free-noop-parked ls=%d", s.ls.id)
			continue
		}
		delete(s.ls.allocPages, p)
		s.ls.unrefPageLocked(p)
		c.tracePage(p, "free-pool ls=%d", s.ls.id)
		freeable = append(freeable, p)
	}
	c.pageAlloc.FreePages(freeable)
	return nil
}

// AllocInos issues a batch of fresh inode numbers to the LibFS.
func (s *Session) AllocInos(cpu, n int) ([]core.Ino, error) {
	s.c.trap()
	c := s.c
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)
	sIdx := c.shardIdxSession(s.ls.id)
	c.stats.shard(sIdx).Allocs.Add(1)
	c.shards[sIdx].mu.Lock()
	defer c.shards[sIdx].mu.Unlock()
	if err := s.aliveLocked(); err != nil {
		return nil, err
	}
	out := make([]core.Ino, n)
	for i := range out {
		ino := core.Ino(c.inoAlloc.Alloc(cpu))
		out[i] = ino
		s.ls.allocInos[ino] = true
	}
	c.tabMu.Lock()
	for _, ino := range out {
		c.allocBy.set(ino, s.ls.id)
	}
	c.tabMu.Unlock()
	return out, nil
}

// Chmod changes a file's permission bits. It goes through the
// controller because the shadow inode table is the ground truth for
// permissions (§4.3, I4); the controller updates both the shadow entry
// and the cached bits in the core-state inode.
func (s *Session) Chmod(ino core.Ino, mode uint16) error {
	s.c.trap()
	return s.changePerm(ino, func(sh *shadowPatch) { sh.mode = &mode })
}

// Chown changes a file's owner. Only uid 0 may do so.
func (s *Session) Chown(ino core.Ino, uid, gid uint32) error {
	s.c.trap()
	if s.ls.uid != 0 {
		return fmt.Errorf("%w: chown requires uid 0", ErrPermission)
	}
	return s.changePerm(ino, func(sh *shadowPatch) { sh.uid, sh.gid = &uid, &gid })
}

type shadowPatch struct {
	mode     *uint16
	uid, gid *uint32
}

func (s *Session) changePerm(ino core.Ino, patch func(*shadowPatch)) error {
	c := s.c
	c.lockAll()
	defer c.unlockAll()
	if err := s.aliveLocked(); err != nil {
		return err
	}
	fs, ok := c.files.get(ino)
	if !ok {
		return fmt.Errorf("%w: ino %d", ErrUnknownFile, ino)
	}
	sh, ok := c.shadow.get(ino)
	if !ok {
		return fmt.Errorf("%w: ino %d has no shadow entry", ErrUnknownFile, ino)
	}
	if s.ls.uid != 0 && s.ls.uid != sh.UID {
		return fmt.Errorf("%w: not the owner", ErrPermission)
	}
	var p shadowPatch
	patch(&p)
	if p.mode != nil {
		if *p.mode > 0o7777 {
			return fmt.Errorf("%w: mode %#o", ErrBadRequest, *p.mode)
		}
		sh.Mode = *p.mode
	}
	if p.uid != nil {
		sh.UID = *p.uid
	}
	if p.gid != nil {
		sh.GID = *p.gid
	}
	c.shadow.set(ino, sh)

	// Refresh the cached fields in the core-state inode so readers see
	// the change; the shadow stays authoritative either way.
	in, err := core.ReadDirentInode(c.mem, fs.loc.Page, fs.loc.Slot)
	if err != nil {
		return err
	}
	in.Mode, in.UID, in.GID = sh.Mode, sh.UID, sh.GID
	// The dirent page may be quiescent with a sealed checksum record;
	// storing into it would leave the sealed CRC stale and the next scrub
	// pass would mis-repair or quarantine the parent. Follow the checksum
	// protocol: open the record (durably, ahead of the store), reseal
	// once the store is persisted. A write-mapped page is already open
	// and stays open — sealQuiescentLocked skips it.
	if wrote, oerr := core.OpenChecksum(c.mem, c.dev.NumPages(), fs.loc.Page); oerr == nil && wrote {
		c.mem.Fence()
	}
	c.markStored(fs.loc.Page)
	if err := core.WriteInode(c.mem, fs.loc.Page, core.SlotOffset(fs.loc.Slot), &in); err != nil {
		return err
	}
	c.mem.Fence()
	c.sealQuiescentLocked([]nvm.PageID{fs.loc.Page}, telemetry.Span{})
	// Keep the checkpoint's view coherent if one is outstanding.
	if fs.checkpoint != nil {
		fs.checkpoint.inode.Mode, fs.checkpoint.inode.UID, fs.checkpoint.inode.GID = sh.Mode, sh.UID, sh.GID
		if img, ok := fs.checkpoint.pages[fs.loc.Page]; ok {
			core.EncodeInode(img[core.SlotOffset(fs.loc.Slot):], &in)
		}
	}
	return nil
}

// RemoveFile finalizes an unlink/rmdir: after the LibFS has cleared the
// dirent slot (the atomic commit), the controller releases the file's
// resources. The caller must hold write access to the parent directory;
// directories must be empty and the file must not be mapped elsewhere.
//
// poolPages names the victim's pages when the file was never verified
// (it then lives entirely in the caller's allocation pool, invisible to
// the controller); they are validated against the pool and freed.
func (s *Session) RemoveFile(ino core.Ino, poolPages []nvm.PageID) error {
	s.c.trap()
	c := s.c
	c.lockAll()
	defer c.unlockAll()
	if err := s.aliveLocked(); err != nil {
		return err
	}
	return s.removeLocked(ino, poolPages)
}

// Removal is one entry of a batched RemoveFiles call.
type Removal struct {
	Ino   core.Ino
	Pages []nvm.PageID
}

// RemoveFiles retires a batch of unlinked regular files in one kernel
// crossing — the unlink-side analogue of the batched page/ino
// allocations (§4.5). Each entry is validated independently; the first
// error is returned after the rest of the batch has been processed.
//
// Files the controller never verified still live entirely inside the
// caller's allocation pool; their pages stay allocated to the LibFS and
// are returned as recyclable, so the LibFS can reuse them directly —
// no per-page bookkeeping, no remapping. Verified files go through the
// full release path.
func (s *Session) RemoveFiles(items []Removal) (recycled []nvm.PageID, err error) {
	s.c.trap()
	c := s.c
	c.lockAll()
	defer c.unlockAll()
	if err := s.aliveLocked(); err != nil {
		return nil, err
	}
	for _, it := range items {
		if !c.files.has(it.Ino) {
			if c.reaped.has(it.Ino) {
				// The reaper already retired this file on behalf of a
				// dead session; the batched removal is a no-op, but the
				// caller's own pool pages are still recyclable.
				for _, p := range it.Pages {
					if s.ls.allocPages[p] {
						recycled = append(recycled, p)
						c.tracePage(p, "recycle-reaped ino=%d ls=%d", it.Ino, s.ls.id)
					}
				}
				continue
			}
			if holder, _ := c.allocBy.get(it.Ino); holder != s.ls.id {
				if err == nil {
					err = fmt.Errorf("%w: ino %d", ErrUnknownFile, it.Ino)
				}
				continue
			}
			c.allocBy.del(it.Ino)
			delete(s.ls.allocInos, it.Ino)
			for _, p := range it.Pages {
				if s.ls.allocPages[p] {
					recycled = append(recycled, p)
					c.tracePage(p, "recycle-pool ino=%d ls=%d", it.Ino, s.ls.id)
				}
			}
			continue
		}
		if rerr := s.removeLocked(it.Ino, it.Pages); rerr != nil && err == nil {
			err = rerr
		}
	}
	return recycled, err
}

func (s *Session) removeLocked(ino core.Ino, poolPages []nvm.PageID) error {
	c := s.c
	fs, ok := c.files.get(ino)
	if !ok {
		if c.reaped.has(ino) {
			// Already retired by the reaper (dead-session orphan GC);
			// removal is idempotent. Free the caller's own pool pages.
			var freed []nvm.PageID
			for _, p := range poolPages {
				if s.ls.allocPages[p] {
					delete(s.ls.allocPages, p)
					s.ls.unrefPageLocked(p)
					freed = append(freed, p)
					c.tracePage(p, "free-rm-reaped ino=%d ls=%d", ino, s.ls.id)
				}
			}
			c.pageAlloc.FreePages(freed)
			return nil
		}
		// Never verified: the file lived entirely inside the creator's
		// allocation pool.
		if holder, _ := c.allocBy.get(ino); holder != s.ls.id {
			return fmt.Errorf("%w: ino %d", ErrUnknownFile, ino)
		}
		c.allocBy.del(ino)
		delete(s.ls.allocInos, ino)
		var freed []nvm.PageID
		for _, p := range poolPages {
			if s.ls.allocPages[p] {
				delete(s.ls.allocPages, p)
				s.ls.unrefPageLocked(p)
				freed = append(freed, p)
				c.tracePage(p, "free-rm-pool ino=%d ls=%d", ino, s.ls.id)
			}
		}
		c.pageAlloc.FreePages(freed)
		return nil
	}
	// Retiring the dirent needed write access to the parent directory at
	// the time it was cleared — the MMU enforced that. A batched
	// (deferred) removal may arrive after that mapping was dropped, or
	// even after a recall bounced it and a later lookup re-mapped the
	// parent read-only, so the caller's current parent permission proves
	// nothing either way: the cleared-dirent check below is the gate.
	if fs.writer != 0 && fs.writer != s.ls.id {
		return fmt.Errorf("%w: ino %d", ErrBusy, ino)
	}
	for rid := range fs.readers {
		if rid != s.ls.id {
			return fmt.Errorf("%w: ino %d has readers", ErrBusy, ino)
		}
	}
	// The dirent must already be retired (cleared, reused, or on a page
	// a rollback removed from the parent directory).
	if !c.direntGoneLocked(fs) {
		return fmt.Errorf("%w: dirent of ino %d still live", ErrBadRequest, ino)
	}
	if fs.ftype == core.TypeDir {
		for _, ch := range fs.children {
			if c.files.has(ch.Ino) {
				// A recorded child still exists; confirm against the
				// core state that the directory is really empty.
			}
		}
		env := &envImpl{c: c, fs: fs, ls: s.ls}
		if !env.DirDeletedOK(ino) {
			return ErrNotEmpty
		}
	}
	// Release any of our own mappings of the victim.
	if m := s.ls.mapped[ino]; m != nil {
		for _, p := range m.pages {
			s.ls.unrefPageLocked(p)
		}
		delete(s.ls.mapped, ino)
	}
	// Park the victim's pages on the remover instead of freeing them:
	// the binding walk that attributed them may have raced this LibFS's
	// concurrent stores (see libfsState.parked), so another of its
	// files may reference one of them. Teardown settles the set.
	for p := range fs.pages {
		c.pageOwner[p] = 0
		s.ls.parked[p] = true
		c.tracePage(p, "park-rm ino=%d ls=%d", ino, s.ls.id)
	}
	c.unregisterFileLocked(ino)
	c.shadow.del(ino)
	c.allocBy.del(ino)
	return nil
}

// Commit re-baselines a write-mapped file: the current state is
// verified and, if clean, replaces the checkpoint, guaranteeing the
// controller will never roll back past it (§4.3, "commit call").
func (s *Session) Commit(ino core.Ino) error {
	s.c.trap()
	c := s.c
	c.lockAll()
	defer c.unlockAll()
	if err := s.aliveLocked(); err != nil {
		return err
	}
	m := s.ls.mapped[ino]
	if m == nil || !m.write {
		if s.ls.revoked[ino] {
			return fmt.Errorf("%w: ino %d", ErrRevoked, ino)
		}
		return fmt.Errorf("%w: ino %d is not write-mapped", ErrBadRequest, ino)
	}
	fs, _ := c.files.get(ino)
	rep, err := c.runVerifierLocked(fs, s.ls, nil)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("%w: %v", ErrCorrupt, rep.Violations)
	}
	c.commitReportLocked(fs, s.ls, rep)
	in := rep.Inode
	c.checkpointLocked(fs, &in)
	return nil
}

// Recover is the crash-recovery entry point (§4.4): after a simulated
// power failure, every file that was write-mapped is re-verified; files
// failing verification roll back to their checkpoint. LibFS-provided
// recovery programs run first (they are untrusted, which is exactly why
// the verifier pass follows).
func (c *Controller) Recover(recoveryPrograms map[LibFSID]func() error) (checked, rolledBack int) {
	c.lockAll()
	defer c.unlockAll()
	// The clean bits are volatile: after a crash nothing is known clean
	// and every open record reseals from content.
	clear(c.cleanOpen)
	for id, fn := range recoveryPrograms {
		if c.libfses[id] != nil && fn != nil {
			_ = fn()
		}
	}
	c.files.forEach(func(_ core.Ino, fs *fileState) bool {
		if fs.writer == 0 {
			return true
		}
		ls := c.libfses[fs.writer]
		if ls == nil {
			fs.writer = 0
			return true
		}
		checked++
		rep, err := c.runVerifierLocked(fs, ls, nil)
		if err != nil || !rep.OK() {
			c.restoreCheckpointLocked(fs)
			c.stats.Rollbacks.Add(1)
			rolledBack++
		} else {
			c.commitReportLocked(fs, ls, rep)
		}
		// Drop the mapping: the "process" died with the crash.
		if m := ls.mapped[fs.ino]; m != nil {
			for _, p := range m.pages {
				ls.unrefPageLocked(p)
			}
			delete(ls.mapped, fs.ino)
		}
		fs.writer = 0
		fs.checkpoint = nil
		return true
	})
	return checked, rolledBack
}

// FileInfo is a trusted snapshot of controller state for one file,
// used by tools (arckfsck) and tests.
type FileInfo struct {
	Ino    core.Ino
	Loc    core.FileLoc
	Type   core.FileType
	Parent core.Ino
	Pages  int
	Writer LibFSID
}

// Files lists the controller's file records.
func (c *Controller) Files() []FileInfo {
	c.lockAll()
	defer c.unlockAll()
	out := make([]FileInfo, 0, c.files.count())
	c.files.forEach(func(_ core.Ino, fs *fileState) bool {
		out = append(out, FileInfo{
			Ino: fs.ino, Loc: fs.loc, Type: fs.ftype, Parent: fs.parent,
			Pages: len(fs.pages), Writer: fs.writer,
		})
		return true
	})
	return out
}

// pageNumIn extracts the digits following the first "page " in a
// violation string (debug instrumentation; "" when absent).
func pageNumIn(s string) string {
	for i := 0; i+5 < len(s); i++ {
		if s[i:i+5] == "page " {
			j := i + 5
			k := j
			for k < len(s) && s[k] >= '0' && s[k] <= '9' {
				k++
			}
			if k > j {
				return s[j:k]
			}
		}
	}
	return ""
}

// VerifyAll runs the verifier over every known file (the arckfsck
// "full scan" mode); it returns the numbers of files checked and files
// with violations.
func holderOf(c *Controller, ino core.Ino) LibFSID {
	h, _ := c.allocBy.get(ino)
	return h
}

func (c *Controller) VerifyAll() (checked, bad int, firstProblem string) {
	c.lockAll()
	defer c.unlockAll()
	sys := &libfsState{uid: 0, gid: 0, allocPages: map[nvm.PageID]bool{}, allocInos: map[core.Ino]bool{}}
	c.files.forEach(func(_ core.Ino, fs *fileState) bool {
		env := &envImpl{c: c, fs: fs, ls: sys, sys: true}
		rep, err := c.verifier.VerifyFile(env, fs.ino, fs.loc, fs.ino == core.RootIno)
		checked++
		if err != nil || !rep.OK() {
			if telemetry.TracingOn() {
				got, _ := core.DirentIno(c.mem, fs.loc.Page, fs.loc.Slot)
				msg := fmt.Sprintf(
					"VerifyAll ino=%d loc=%v type=%v parent=%d writer=%d readers=%d reaped=%v allocBy=%d quarantined=%d direntNow=%d err=%v viol=%v",
					fs.ino, fs.loc, fs.ftype, fs.parent, fs.writer, len(fs.readers),
					c.reaped.has(fs.ino), holderOf(c, fs.ino), fs.quarantined, got, err, rep.Violations)
				for _, v := range rep.Violations {
					var pg uint64
					if _, serr := fmt.Sscanf(pageNumIn(v.String()), "%d", &pg); serr == nil {
						msg += fmt.Sprintf("\n  page %d trace: %v", pg, pageTraceOf(nvm.PageID(pg)))
					}
				}
				telemetry.Emit(0, "verify.failure", "controller", int64(fs.ino), msg)
			}
			bad++
			if firstProblem == "" {
				if err != nil {
					firstProblem = err.Error()
				} else {
					firstProblem = rep.Violations[0].String()
				}
			}
		}
		return true
	})
	return checked, bad, firstProblem
}
