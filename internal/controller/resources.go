package controller

import (
	"fmt"

	"trio/internal/core"
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
	return s.allocPages(func() ([]nvm.PageID, error) {
		return s.c.pageAlloc.AllocPages(cpu, n)
	})
}

// AllocPagesOnNode is AllocPages with NUMA placement, used by the
// striping datapath (§4.5).
func (s *Session) AllocPagesOnNode(cpu, n, node int) ([]nvm.PageID, error) {
	return s.allocPages(func() ([]nvm.PageID, error) {
		return s.c.pageAlloc.AllocPagesOnNode(s.c.dev, cpu, n, node)
	})
}

func (s *Session) allocPages(alloc func() ([]nvm.PageID, error)) ([]nvm.PageID, error) {
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
	pages, err := alloc()
	if err != nil {
		return nil, err
	}
	c.poolLocked(s.ls, pages)
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
	return s.freePagesLocked(pages, true)
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
		if !s.ls.pooled(p) {
			return errEscalate
		}
	}
	return s.freePagesLocked(pages, false)
}

// freePagesLocked frees pool pages and, when bound is set (lockAll
// held), pages of files the session write-maps (freeLocked); it stops at
// the first page that is neither. The free of a parked page is a no-op:
// it is in post-departure limbo (see libfsState.parked) and settles at
// teardown, rather than risk releasing a page a racy walk unbound while
// the LibFS still references it.
func (s *Session) freePagesLocked(pages []nvm.PageID, bound bool) error {
	c := s.c
	freeable := make([]nvm.PageID, 0, len(pages))
	defer func() { c.pageAlloc.FreePages(freeable) }()
	for _, p := range pages {
		switch {
		case s.ls.parked[p] != 0:
			continue
		case !bound && !s.ls.allocPages[p] || !c.freeLocked(s.ls, p):
			return fmt.Errorf("%w: page %d is not freeable by this LibFS", ErrPermission, p)
		}
		freeable = append(freeable, p)
	}
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
		out[i] = core.Ino(c.inoAlloc.Alloc(cpu))
	}
	c.tabMu.Lock()
	for _, ino := range out {
		c.allocBy[ino] = s.ls.id
	}
	c.tabMu.Unlock()
	return out, nil
}

// Chmod changes a file's permission bits. It goes through the
// controller because the file's shadow inode is the ground truth for
// permissions (§4.3, I4); the controller updates both the shadow and the
// cached bits in the core-state inode.
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
	fs := c.fileOf(ino)
	if fs == nil {
		return fmt.Errorf("%w: ino %d", ErrUnknownFile, ino)
	}
	sh := fs.shadow
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
	fs.shadow = sh

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
		c.fence()
	}
	c.markStored(fs.loc.Page)
	if err := core.WriteInode(c.mem, fs.loc.Page, core.SlotOffset(fs.loc.Slot), &in); err != nil {
		return err
	}
	c.fence()
	c.sealQuiescentLocked([]pageRun{{start: fs.loc.Page, n: 1}}, nil, telemetry.Span{})
	// Keep the checkpoint's view coherent if one is outstanding.
	if fs.checkpoint != nil {
		cin := core.DecodeInode(fs.checkpoint.dirent[:])
		cin.Mode, cin.UID, cin.GID = sh.Mode, sh.UID, sh.GID
		core.EncodeInode(fs.checkpoint.dirent[:], &cin)
		if img := fs.checkpoint.pages[fs.loc.Page]; img != nil {
			core.EncodeInode(img[core.SlotOffset(fs.loc.Slot):], &in)
		}
	}
	return nil
}

// Removal is one entry of a batched RemoveFiles call.
type Removal struct {
	Ino   core.Ino
	Pages []nvm.PageID
}

// RemoveFiles finalizes a batch of unlinks and rmdirs in one kernel
// crossing — the unlink-side analogue of the batched page/ino
// allocations (§4.5): after the LibFS has cleared each dirent slot (the
// atomic commit), the controller releases the file's resources. A
// directory must be empty and no file may be mapped by another LibFS.
// Each entry is validated independently; the first error is returned
// after the rest of the batch has been processed.
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
	// The batch is a LibFS's deferred unlinks, on every lifecycle's
	// path: size the result once, and box the trace arguments only when
	// someone is tracing.
	total := 0
	for _, it := range items {
		total += len(it.Pages)
	}
	recycled = make([]nvm.PageID, 0, total)
	tracing := telemetry.TracingOn()
	for _, it := range items {
		fs := c.fileOf(it.Ino)
		if fs == nil {
			// Not a verified file: one that still lives in the caller's
			// pool, or one the reaper already retired on behalf of a dead
			// session (the removal is then a no-op). Either way the
			// caller's own pool pages are recyclable.
			if !c.reaped[it.Ino] {
				if c.allocBy[it.Ino] != s.ls.id {
					if err == nil {
						err = fmt.Errorf("%w: ino %d", ErrUnknownFile, it.Ino)
					}
					continue
				}
				delete(c.allocBy, it.Ino)
			}
			for _, p := range it.Pages {
				if s.ls.allocPages[p] {
					recycled = append(recycled, p)
					if tracing {
						c.tracePage(p, "recycle-pool ino=%d ls=%d", it.Ino, s.ls.id)
					}
				}
			}
			continue
		}
		if rerr := s.removeLocked(fs); rerr != nil && err == nil {
			err = rerr
		}
	}
	return recycled, err
}

// removeLocked retires the verified file fs.
func (s *Session) removeLocked(fs *fileState) error {
	c := s.c
	ino := fs.ino
	// Retiring the dirent needed write access to the parent directory at
	// the time it was cleared — the MMU enforced that. A batched
	// (deferred) removal may arrive after that mapping was dropped, or
	// even after a recall bounced it and a later lookup re-mapped the
	// parent read-only, so the caller's current parent permission proves
	// nothing either way: the cleared-dirent check below is the gate.
	for _, m := range fs.holders {
		if m.ls != s.ls {
			return fmt.Errorf("%w: ino %d is mapped by LibFS %d", ErrBusy, ino, m.ls.id)
		}
	}
	// The dirent must already be retired (cleared, reused, or on a page
	// a rollback removed from the parent directory).
	if !c.direntGoneLocked(fs) {
		return fmt.Errorf("%w: dirent of ino %d still live", ErrBadRequest, ino)
	}
	if fs.ftype == core.TypeDir {
		env := &envImpl{c: c, fs: fs, ls: s.ls}
		if !env.DirDeletedOK(ino) {
			return ErrNotEmpty
		}
	}
	// Release any of our own mappings of the victim.
	if m := s.ls.mapped[ino]; m != nil {
		s.ls.releaseLocked(m)
	}
	c.forgetFileLocked(s.ls, fs)
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
	fs := c.fileOf(ino)
	rep, err := c.verifyLocked(fs, s.ls, nil, scopeFullWalk)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("%w: %v", ErrCorrupt, rep.Violations)
	}
	c.commitReportLocked(fs, s.ls, rep)
	c.checkpointLocked(fs, rep.Dirent(), 0)
	return nil
}

// Recover is the crash-recovery entry point (§4.4): after a simulated
// power failure, every write mapping is settled as a reap settles it
// (reapFileLocked), directories first: a file whose dirent its holder
// had cleared — an unlink's commit point — is retired, not resurrected;
// any other is re-verified, rolled back to its checkpoint when it fails,
// and quarantined when its restored state fails too. The verifications
// count as controller.reap_verifies, and the crashed sessions'
// mappings are released and marked revoked: their next use of one is
// ErrRevoked. LibFS-provided recovery programs run first (they are
// untrusted, which is exactly why the verifier pass follows). Last, the
// granules the crash left open reseal from their content
// (expandGranulesLocked). checked counts the files settled, rolledBack
// those rolled back. A device this build cannot read — another format
// version — is refused with core.ErrFormatVersion before anything is
// touched.
func (c *Controller) Recover(recoveryPrograms map[LibFSID]func() error) (checked, rolledBack int, err error) {
	c.lockAll()
	defer c.unlockAll()
	if err := core.CheckFormat(c.mem, c.dev.NumPages()); err != nil {
		return 0, 0, fmt.Errorf("controller: recovering: %w", err)
	}
	// The clean bits and the facts are volatile: after a crash nothing is
	// known clean, every open record reseals from content and every file
	// is walked.
	clear(c.cleanOpen)
	clear(c.facts)
	for id, fn := range recoveryPrograms {
		if c.sessionOf(id) != nil && fn != nil {
			_ = fn()
		}
	}
	var held []*fileState
	for _, fs := range c.filesByIno() {
		if fs.writeHolder() != nil {
			held = append(held, fs)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, fs := range held {
			if (fs.ftype == core.TypeDir) != (pass == 0) {
				continue
			}
			checked++
			rolled := false
			for w := fs.writeHolder(); w != nil; w = fs.writeHolder() {
				rolled = c.reapFileLocked(w.ls, fs, nil) || rolled
			}
			if rolled {
				rolledBack++
			}
		}
	}
	c.expandGranulesLocked()
	return checked, rolledBack, nil
}

// FileInfo is a trusted snapshot of controller state for one file,
// used by tools (arckfsck) and tests.
type FileInfo struct {
	Ino    core.Ino
	Loc    core.FileLoc
	Type   core.FileType
	Parent core.Ino
	Pages  int
}

// Files lists the controller's file records.
func (c *Controller) Files() []FileInfo {
	c.lockAll()
	defer c.unlockAll()
	files := c.filesByIno()
	out := make([]FileInfo, 0, len(files))
	for _, fs := range files {
		out = append(out, FileInfo{
			Ino: fs.ino, Loc: fs.loc, Type: fs.ftype, Parent: fs.parent,
			Pages: runsLen(fs.pages),
		})
	}
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
func (c *Controller) VerifyAll() (checked, bad int, firstProblem string) {
	c.lockAll()
	defer c.unlockAll()
	sys := &libfsState{uid: 0, gid: 0, allocPages: map[nvm.PageID]bool{}}
	for _, fs := range c.filesByIno() {
		env := &envImpl{c: c, fs: fs, ls: sys, sys: true}
		rep, err := c.verifier.VerifyFile(env, fs.ino, fs.loc, fs.ino == core.RootIno)
		checked++
		if err != nil || !rep.OK() {
			if telemetry.TracingOn() {
				got, _ := core.DirentIno(c.mem, fs.loc.Page, fs.loc.Slot)
				msg := fmt.Sprintf(
					"VerifyAll ino=%d loc=%v type=%v parent=%d holders=%d reaped=%v creator=%d quarantined=%d direntNow=%d err=%v viol=%v",
					fs.ino, fs.loc, fs.ftype, fs.parent, len(fs.holders),
					c.reaped[fs.ino], fs.creator, fs.quarantined, got, err, rep.Violations)
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
	}
	return checked, bad, firstProblem
}
