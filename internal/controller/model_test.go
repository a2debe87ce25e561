package controller

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/verifier"
)

// The controller's contract (paper §4.3, DESIGN.md §5a) from the outside:
// one world, one op alphabet, and every oracle after every step.

// The op alphabet. A step is one mdRec-byte record: the op; a selector a —
// session a%3, file a/3%3, target page a/9; a big-endian uint16 b; a
// little-endian uint64 v.
const (
	mdMapRead  = iota // map the file for reading
	mdMapWrite        // for writing; a contended map waits out the short lease and revokes the holders
	mdUnmap           // release; a write release is verified scoped and by a full walk
	mdStore           // overwrite data page b of the file through a write mapping, persisted
	mdScribble        // index page b>>3, entry b&7 := pick(v), through a write mapping
	mdMutate          // store the 8 bytes of v at offset b of the target page, through a write mapping, persisted
	mdFree            // FreePages(pick(v))
	mdAlloc           // AllocPages(1): the page joins what pick names
	mdRevoke          // Abandon + Reap; a fresh session takes the place, same group
	mdClose           // Close; a fresh session takes the place, same group
	mdScrub           // ScrubAll
	mdCrash           // crash 1+v%12 persists into a release or a grant and store, remount
	mdCreate          // publish a root dirent whose Head is pick(v), release root
	mdOps
)

const mdRec = 12

// mdStep encodes one step: op by session s on file f, target page sel.
func mdStep(op byte, s, f, sel int, b uint16, v uint64) []byte {
	rec := make([]byte, mdRec)
	rec[0], rec[1] = op, byte(s+3*f+9*sel)
	binary.BigEndian.PutUint16(rec[2:4], b)
	binary.LittleEndian.PutUint64(rec[4:12], v)
	return rec
}

// modelGroups are the world's trust groups: two stacked writers and one
// session of another group.
var modelGroups = [3]GroupID{1, 1, 2}

// modelFile is one file of the world and the pages it was built with;
// targets is the dirent page, the index pages, the data pages.
type modelFile struct {
	ino     core.Ino
	loc     core.FileLoc
	index   []nvm.PageID
	data    []nvm.PageID
	targets []nvm.PageID
}

// modelWorld is one input's world: a controller on a crash-tracking
// device, the three sessions of modelGroups, two files whose alignment and
// length the input's first four bytes pick, and a sparse file with two
// index pages whose facts one full-walk handover established.
type modelWorld struct {
	t     testing.TB
	dev   *nvm.Device
	c     *Controller
	sess  [3]*Session
	files [3]*modelFile
	alloc []nvm.PageID // every page a step allocated
	// stored is the per-page opener: pages that may hold a store their
	// record was not resealed after. Who can store is the MMU's word
	// (FuzzPageTableModel holds the MMU to its own model).
	stored map[nvm.PageID]bool
	// meta: a step stored to an index page or a dirent or freed a page;
	// tainted: a crash came after one, so the image may hold it unverified.
	meta, tainted bool
	refs          []int32 // the census of the last check
	creates       int     // the files create steps published
}

func newModelWorld(t testing.TB, shape [4]byte) *modelWorld {
	t.Helper()
	w := &modelWorld{
		t:      t,
		dev:    nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 512, TrackPersistence: true}),
		stored: map[nvm.PageID]bool{},
	}
	if err := w.mount(); err != nil {
		t.Fatal(err)
	}
	owner := w.sess[0]
	for i := 0; i < 2; i++ {
		if pad := int(shape[2*i]) % 40; pad > 0 {
			if _, err := owner.AllocPages(0, pad); err != nil {
				t.Fatal(err)
			}
		}
		ino, loc := mkBigFile(t, owner, fmt.Sprintf("f%d", i), 1+int(shape[2*i+1])%100)
		index, data := filePages(t, w.c, loc)
		w.files[i] = &modelFile{ino: ino, loc: loc, index: index, data: data,
			targets: append(append([]nvm.PageID{loc.Page}, index...), data...)}
	}
	ino, loc, targets := mkSparseFile(t, owner)
	w.files[2] = &modelFile{ino: ino, loc: loc, index: targets[1:3], data: targets[3:], targets: targets}
	if _, err := w.sess[2].MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	if err := w.sess[2].UnmapFile(ino); err != nil {
		t.Fatal(err)
	}
	return w
}

// mount mounts a controller on the device and registers the sessions.
func (w *modelWorld) mount() error {
	c, err := New(w.dev, Options{LeaseTime: 200 * time.Microsecond, RecallTimeout: 200 * time.Microsecond})
	if err != nil {
		return err
	}
	w.c = c
	for i, g := range modelGroups {
		w.sess[i] = c.Register(1000, 1000, 0, g)
	}
	return nil
}

// pick is the page a scribble or a free names: one of f's, or one a step
// allocated.
func (w *modelWorld) pick(f *modelFile, v uint64) nvm.PageID {
	i := int(v % uint64(len(f.targets)+len(w.alloc)))
	if i < len(f.targets) {
		return f.targets[i]
	}
	return w.alloc[i-len(f.targets)]
}

// writeMaps reports whether s holds a write mapping of f.
func (w *modelWorld) writeMaps(s *Session, f *modelFile) bool {
	w.c.lockAll()
	defer w.c.unlockAll()
	m := s.ls.mapped[f.ino]
	return m != nil && m.write
}

// groupWrites reports whether a session of s's trust group write-maps f.
func (w *modelWorld) groupWrites(s *Session, f *modelFile) bool {
	w.c.lockAll()
	defer w.c.unlockAll()
	found := false
	w.c.eachSession(func(ls *libfsState) {
		m := ls.mapped[f.ino]
		found = found || m != nil && m.write && ls.group == s.Group()
	})
	return found
}

// registered reports whether the controller still knows f.
func (w *modelWorld) registered(f *modelFile) bool {
	w.c.lockAll()
	defer w.c.unlockAll()
	return w.c.fileOf(f.ino) != nil
}

// census counts, page by page, the sessions whose MMU lets them store.
func (w *modelWorld) census() []int32 {
	c := w.c
	out := make([]int32, c.dev.NumPages())
	c.lockAll()
	defer c.unlockAll()
	c.eachSession(func(ls *libfsState) {
		for p := range out {
			if ls.as.PermOf(nvm.PageID(p)) == mmu.PermWrite {
				out[p]++
			}
		}
	})
	return out
}

// run drives the world through the steps data encodes, the oracles after
// each, then releases and closes everything and scrubs.
func (w *modelWorld) run(data []byte) {
	defer func() { w.c.Close() }()
	w.check(-1, nil, nil, nil)
	for step := 0; len(data) >= mdRec && step < 200; step, data = step+1, data[mdRec:] {
		w.step(step, data[:mdRec])
	}
	for i, s := range w.sess {
		for _, f := range w.files {
			before := w.refs
			w.check(-2, before, w.release(s, f), f)
		}
		before := w.refs
		if err := s.Close(); err != nil {
			w.t.Fatalf("close %d: %v", s.ID(), err)
		}
		w.sess[i] = w.c.Register(1000, 1000, 0, s.Group())
		w.check(-3, before, nil, nil)
	}
	// Nothing is mapped: neither size of the write-reference table holds a
	// count (their sum, writeRefsAt, can hide a granule count gone negative).
	if n := w.c.stats.GranWriteRefs.Load(); n != 0 {
		w.t.Fatalf("controller.gran_write_refs reads %d with nothing mapped", n)
	}
	for g, n := range w.c.granWrite {
		if n != 0 {
			w.t.Fatalf("granule %d: %d whole write references left behind", g, n)
		}
	}
	for p, n := range w.c.writeRefs {
		if n != 0 {
			w.t.Fatalf("page %d: %d write references left behind", p, n)
		}
	}
	w.scrub(w.quiet())
	w.check(-4, nil, nil, nil)
}

// step runs one record and the oracles.
func (w *modelWorld) step(step int, rec []byte) {
	t := w.t
	op, a := rec[0]%mdOps, int(rec[1])
	s, f := w.sess[a%3], w.files[a/3%3]
	b, v := binary.BigEndian.Uint16(rec[2:4]), binary.LittleEndian.Uint64(rec[4:12])
	as := s.AddressSpace()
	before := w.refs
	var resealed []pageRun
	switch op {
	case mdMapRead, mdMapWrite:
		stacked := w.groupWrites(s, f)
		_, err := s.MapFile(f.ino, f.loc, op == mdMapWrite)
		switch {
		case errors.Is(err, ErrUnknownFile) && !w.registered(f):
			err = nil // a revoked holder's dirent store read as its unlink: the file is retired
		case stacked || w.tainted:
			// The grant walked core state its own group is still storing to,
			// or a crash left a holder's stores on the media (ROADMAP item 1).
			err = nil
		}
		if err != nil && !errors.Is(err, ErrQuarantined) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("step %d: session %d maps ino %d (write %v): %v", step, s.ID(), f.ino, op == mdMapWrite, err)
		}
	case mdUnmap:
		resealed = w.release(s, f)
	case mdStore:
		if err := w.store(s, f, int(b), uint64(step)<<16|uint64(b)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	case mdScribble:
		idx := f.index[int(b>>3)%len(f.index)]
		if w.writeMaps(s, f) && core.SetIndexEntry(as, idx, int(b&7), w.pick(f, v)) == nil {
			w.meta = true
		}
	case mdMutate:
		// Stores to the dirent page stay inside the file's own slot: the
		// rest of that page is the parent directory's business.
		p, off := f.targets[a/9%len(f.targets)], int(b)
		if p == f.loc.Page {
			off = core.SlotOffset(f.loc.Slot) + off%(core.DirentSize-7)
		} else {
			off %= nvm.PageSize - 7
		}
		if w.writeMaps(s, f) && as.Write(p, off, rec[4:12]) == nil {
			_ = as.Persist(p, off, 8) // only a crash reads whether it is durable
			w.meta = true
		}
	case mdFree:
		if s.FreePages([]nvm.PageID{w.pick(f, v)}) == nil {
			w.meta = true
		}
	case mdAlloc:
		if pages, err := s.AllocPages(0, 1); err == nil {
			w.alloc = append(w.alloc, pages...)
		}
	case mdRevoke:
		s.Abandon()
		if err := w.c.Reap(s.ID()); err != nil {
			t.Fatalf("step %d: reap %d: %v", step, s.ID(), err)
		}
		w.sess[a%3] = w.c.Register(1000, 1000, 0, s.Group())
	case mdClose:
		if err := s.Close(); err != nil {
			t.Fatalf("step %d: close %d: %v", step, s.ID(), err)
		}
		w.sess[a%3] = w.c.Register(1000, 1000, 0, s.Group())
	case mdScrub:
		w.scrub(false)
	case mdCrash:
		w.crash(s, f, 1+int64(v%12))
		before = nil
	case mdCreate:
		w.meta = true
		if publishDirent(s, fmt.Sprintf("c%d", step), w.pick(f, v)) {
			w.creates++
		}
	}
	w.check(step, before, resealed, f)
}

// publishDirent write-maps the root through s, writes into its first free
// dirent slot a regular file named name whose chain starts at head —
// whatever page that is — and releases the root, whose verification
// adopts the file. It reports whether the dirent was published.
func publishDirent(s *Session, name string, head nvm.PageID) bool {
	info, err := s.MapFile(core.RootIno, core.RootLoc(), true)
	if err != nil {
		return false
	}
	as := s.AddressSpace()
	loc := core.FileLoc{Slot: -1}
	if loc.Page, err = core.IndexEntry(as, info.Inode.Head, 0); err == nil {
		for i := 0; i < core.SlotsPerDirPage && loc.Slot < 0; i++ {
			if ino, err := core.DirentIno(as, loc.Page, i); err == nil && ino == 0 {
				loc.Slot = i
			}
		}
	}
	var inos []core.Ino
	if err == nil && loc.Slot >= 0 {
		inos, err = s.AllocInos(0, 1)
	}
	published := err == nil && loc.Slot >= 0
	if published {
		uid, gid := s.Cred()
		in := core.Inode{Ino: inos[0], Type: core.TypeReg, Mode: 0o644, UID: uid, GID: gid, Head: head}
		published = errors.Join(core.WriteInodeBody(as, loc.Page, core.SlotOffset(loc.Slot), &in),
			core.WriteDirentName(as, loc.Page, loc.Slot, name)) == nil
		as.Fence()
		published = published && core.CommitDirentIno(as, loc.Page, loc.Slot, in.Ino) == nil
	}
	_ = s.UnmapFile(core.RootIno)
	return published
}

// store overwrites data page i of f through s, when s write-maps f and the
// page, and persists it.
func (w *modelWorld) store(s *Session, f *modelFile, i int, v uint64) error {
	p, as := f.data[i%len(f.data)], s.AddressSpace()
	if !w.writeMaps(s, f) || as.PermOf(p) != mmu.PermWrite {
		return nil
	}
	buf := make([]byte, nvm.PageSize)
	fillPage(buf, v)
	if err := as.Write(p, 0, buf); err != nil {
		return fmt.Errorf("store to writable page %d: %w", p, err)
	}
	return as.Persist(p, 0, nvm.PageSize)
}

// release unmaps f from s and returns the runs a clean write release
// resealed. A write release is checked first: its scoped verification and
// a full walk of the same image agree on the verdict and, when clean, on
// the page set. A file the release quarantines is one whose full walk
// failed, pinned on the releaser's group. Afterwards, while nothing is
// write-mapped and no file is quarantined, VerifyAll finds the tree clean.
func (w *modelWorld) release(s *Session, f *modelFile) []pageRun {
	t, c := w.t, w.c
	c.lockAll()
	fs := c.fileOf(f.ino)
	m := s.ls.mapped[f.ino]
	if fs == nil { // retired, with every mapping of it
		c.unlockAll()
		return nil
	}
	var runs []pageRun
	clean := true
	if m != nil && m.write {
		runs, clean = slices.Clone(m.runs), w.checkScoped(fs, s.ls)
	}
	was := fs.quarantined
	c.unlockAll()
	if err := s.UnmapFile(f.ino); err != nil && !errors.Is(err, ErrBadRequest) &&
		!errors.Is(err, ErrRevoked) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("session %d unmaps ino %d: %v", s.ID(), f.ino, err)
	} else if err != nil || !clean {
		runs = nil
	}
	c.lockAll()
	q := fs.quarantined
	qs := c.sessionOf(q)
	c.unlockAll()
	if q != was && (clean || m == nil || qs == nil || qs.group != s.Group()) {
		t.Fatalf("ino %d quarantined to session %d at session %d's release (full walk clean: %v)", f.ino, q, s.ID(), clean)
	}
	if m != nil && m.write && w.quiet() {
		// A create step's file names whatever page pick chose, so it may
		// fail I2 until it is unlinked, which no step does.
		if _, bad, first := w.c.VerifyAll(); bad > w.creates {
			t.Fatalf("VerifyAll after session %d released ino %d: %d bad, %d create steps: %s", s.ID(), f.ino, bad, w.creates, first)
		}
	}
	return runs
}

// checkScoped holds the release of fs by ls (lockAll held) to a full walk
// of the same image and reports whether that walk is clean.
func (w *modelWorld) checkScoped(fs *fileState, ls *libfsState) bool {
	t, c := w.t, w.c
	type verdict struct {
		ok    bool
		pages []pageRun
	}
	read := func(rep *verifier.Report, err error) verdict {
		if err != nil {
			t.Fatal(err)
		}
		v := verdict{ok: rep.OK(), pages: slices.Clone(fs.pages)}
		if !rep.Scoped {
			v.pages = nil
			for _, p := range rep.Pages {
				v.pages = appendPage(v.pages, p)
			}
			v.pages = normalizeRuns(v.pages)
		}
		return v
	}
	rep, err := c.verifyReleaseLocked(fs, ls, nil)
	scoped, wasScoped := read(rep, err), rep.Scoped
	rep, err = c.verifyLocked(fs, ls, nil, scopeFullWalk)
	full := read(rep, err)
	switch {
	case rep.Scoped:
		t.Fatal("scopeFullWalk skipped the walk")
	case scoped.ok != full.ok:
		t.Fatalf("ino %d: scoped (really scoped: %v) says ok=%v, the full walk ok=%v: %v", fs.ino, wasScoped, scoped.ok, full.ok, rep.Violations)
	case full.ok && !slices.Equal(scoped.pages, full.pages):
		t.Fatalf("ino %d: scoped (really scoped: %v) page set %v, full walk %v", fs.ino, wasScoped, scoped.pages, full.pages)
	}
	return full.ok
}

// quiet reports whether VerifyAll must find the tree clean: no write
// mapping is held, no file is quarantined or poisoned or was retired by a
// revocation (its slot keeps the ino its holder stored), and no crash may
// have persisted a store no verification saw.
func (w *modelWorld) quiet() bool {
	c := w.c
	c.lockAll()
	defer c.unlockAll()
	ok := !w.tainted
	for _, f := range w.files {
		ok = ok && c.fileOf(f.ino) != nil
	}
	for _, fs := range c.filesByIno() {
		ok = ok && fs.quarantined == 0 && !fs.corrupt && fs.writeHolder() == nil
	}
	return ok
}

// scrub runs a full pass: it finds nothing wrong, covers every page when
// full is set, and settles every page nobody write-maps but those of the
// files it skips — quarantined, poisoned or write-held.
func (w *modelWorld) scrub(full bool) {
	rep := w.c.ScrubAll()
	if rep.Mismatches != 0 {
		w.t.Fatalf("scrub: %+v", rep)
	}
	if full && rep.Covered != rep.Candidates {
		w.t.Fatalf("scrub coverage %d/%d with nothing mapped", rep.Covered, rep.Candidates)
	}
	n := w.census()
	w.c.lockAll()
	defer w.c.unlockAll()
	for p := range w.stored {
		if fs := w.c.fileOf(w.c.pageOwnerAt(p)); n[p] == 0 && (fs == nil || !fs.scrubSkipped()) {
			delete(w.stored, p)
		}
	}
}

// crash arms a crash point k persist points ahead, runs one release — or
// a write grant and a store — into it, pulls the power and mounts the
// device afresh; a full scrub then covers every page. The mount takes
// any image, a world dirent whose persisted metadata store changed its
// ino or made it a directory included: a remount error fails the input.
func (w *modelWorld) crash(s *Session, f *modelFile, k int64) {
	fp := nvm.NewFaultPlan()
	fp.ArmCrashPoint(k)
	w.dev.SetFaultPlan(fp)
	w.c.lockAll()
	held := s.ls.mapped[f.ino] != nil
	w.c.unlockAll()
	if held {
		_ = s.UnmapFile(f.ino) // may fail at the crash point
	} else if _, err := s.MapFile(f.ino, f.loc, true); err == nil {
		_ = w.store(s, f, int(k), uint64(k)) // may fail at the crash point
	}
	w.dev.Tracker().Crash()
	w.dev.SetFaultPlan(nil)
	w.c.Close()
	w.tainted = w.tainted || w.meta
	if err := w.mount(); err != nil {
		w.t.Fatalf("remount after the crash: %v", err)
	}
	clear(w.stored)
	w.scrub(true)
}

// check runs the oracles. before is the census ahead of the step (nil: a
// remount, nothing carried over), and resealed the runs of f a clean write
// release of the step resealed.
func (w *modelWorld) check(step int, before []int32, resealed []pageRun, f *modelFile) {
	t, c := w.t, w.c
	total := c.dev.NumPages()
	refs := w.census()
	w.refs = refs
	c.lockAll()
	defer c.unlockAll()

	// The opener model: a page nobody can store to any more is resealed
	// by a clean write release of its file; otherwise it may hold a store.
	for p := range before {
		switch q := nvm.PageID(p); {
		case before[p] == 0 || refs[p] > 0:
		case runsFind(resealed, q) >= 0 && (q == f.loc.Page || c.pageOwnerAt(q) == f.ino):
			delete(w.stored, q)
		default:
			w.stored[q] = true
		}
	}

	// Write references: one per session whose MMU lets it store, and a
	// page somebody can store to is never audited.
	for p := range refs {
		q := nvm.PageID(p)
		if got := c.writeRefsAt(q); got != refs[p] {
			t.Fatalf("step %d: writeRefsAt(%d) = %d, %d sessions can store to it", step, q, got, refs[p])
		}
		if refs[p] > 0 && !c.scrubBusyLocked(q) {
			t.Fatalf("step %d: page %d is write-mapped but not scrub-busy", step, q)
		}
	}

	// Ownership: a page is in at most one file's set, a file page, and
	// pageOwnerAt names exactly that file.
	owner := make([]core.Ino, total)
	for _, fs := range c.filesByIno() {
		ino := fs.ino
		for _, r := range fs.pages {
			for p := r.start; p < r.end(); p++ {
				if p < core.FirstFilePage || p >= core.ChecksumBase(total) {
					t.Fatalf("step %d: reserved page %d is in the set of ino %d", step, p, ino)
				}
				if owner[p] != 0 {
					t.Fatalf("step %d: page %d is in the sets of ino %d and ino %d", step, p, owner[p], ino)
				}
				owner[p] = ino
			}
		}
	}
	for p := range owner {
		if got := c.pageOwnerAt(nvm.PageID(p)); got != owner[p] {
			t.Fatalf("step %d: pageOwnerAt(%d) = %d, the page is in the set of ino %d", step, p, got, owner[p])
		}
	}
	// The ledger's four states are exclusive: a pool or parked page is in
	// one session's sets and bound to no file.
	held := map[nvm.PageID]LibFSID{}
	c.eachSession(func(ls *libfsState) {
		for p := range total {
			if !ls.pooled(p) {
				continue
			}
			if held[p] != 0 || owner[p] != 0 {
				t.Fatalf("step %d: page %d in the pool or parked set of session %d is session %d's too or bound to ino %d", step, p, ls.id, held[p], owner[p])
			}
			held[p] = ls.id
		}
	})

	checkGrantReach(t, c, step)

	// Checksum records against the opener: open while write-mapped;
	// trusted only with the content's CRC; sealed with it when neither
	// write-mapped nor stored to since the last seal.
	for p := core.FirstFilePage; p < core.ChecksumBase(total); p++ {
		if owner[p] == 0 {
			continue
		}
		rec, trusted, err := core.LoadChecksumTrusted(c.mem, total, p)
		if err != nil {
			t.Fatal(err)
		}
		if refs[p] > 0 {
			if trusted {
				t.Fatalf("step %d: page %d is write-mapped but its record is trusted (seq %d)", step, p, core.ChecksumSeq(rec))
			}
			continue
		}
		crc := core.PageCRC(c.dev.Page(p))
		match := core.ChecksumCRC(rec) == crc
		switch {
		case w.stored[p]:
			if trusted && !match {
				t.Fatalf("step %d: page %d stored to, its record trusted with a stale CRC", step, p)
			}
			if core.ChecksumSealed(rec) && match {
				delete(w.stored, p) // resealed
			}
		case !core.ChecksumSealed(rec) || !match:
			t.Fatalf("step %d: quiescent page %d: record seq %d CRC %08x, content CRC %08x",
				step, p, core.ChecksumSeq(rec), core.ChecksumCRC(rec), crc)
		}
	}
}

// checkGrantReach (lockAll held) is the one grant rule (clipGrantLocked,
// DESIGN.md §5a) and exclusivity, read from the sessions' own mappings:
// every page a session can reach is the dirent page of a file it maps, a
// page such a file owns, or in the pool or parked set of a session of its
// own trust group; a file's holders are exactly the sessions that map it,
// and no two trust groups write-map one file. The superblock and the
// checksum region, mapped read-only into every session at registration,
// are outside it.
func checkGrantReach(t testing.TB, c *Controller, step int) {
	t.Helper()
	for _, fs := range c.filesByIno() {
		ino := fs.ino
		var writers GroupID
		n := 0
		c.eachSession(func(o *libfsState) {
			m := o.mapped[ino]
			switch {
			case m == nil:
				return
			case !slices.Contains(fs.holders, m):
				t.Fatalf("step %d: session %d maps ino %d outside its holder set", step, o.id, ino)
			case m.write && writers != 0 && writers != o.group:
				t.Fatalf("step %d: groups %d and %d both write-map ino %d", step, writers, o.group, ino)
			case m.write:
				writers = o.group
			}
			n++
		})
		if n != len(fs.holders) {
			t.Fatalf("step %d: ino %d has %d holders, %d sessions map it", step, ino, len(fs.holders), n)
		}
	}
	c.eachSession(func(ls *libfsState) {
		for p := nvm.PageID(1); p < core.ChecksumBase(c.dev.NumPages()); p++ {
			perm := ls.as.PermOf(p)
			if perm == mmu.PermNone {
				continue
			}
			ok := false
			for ino := range ls.mapped {
				if fs := c.fileOf(ino); fs != nil && (fs.loc.Page == p || c.pageOwnerAt(p) == ino) {
					ok = true
				}
			}
			c.eachSession(func(o *libfsState) { ok = ok || (o.group == ls.group && o.pooled(p)) })
			if !ok {
				t.Fatalf("step %d: session %d (group %d) maps page %d %v: not its files', not its group's (owner ino %d)",
					step, ls.id, ls.group, p, perm, c.pageOwnerAt(p))
			}
		}
	})
}

// FuzzControllerModel: no sequence of steps leaves the controller out of
// line with an oracle — grant reach and exclusivity, write references,
// page ownership, checksum records against the per-page opener, and at
// every write release the scoped verdict against a full walk's, with
// VerifyAll clean once nothing is write-mapped.
func FuzzControllerModel(f *testing.F) {
	const s0, s1, s2 = 0, 1, 2  // trust groups 1, 1 and 2
	const f0, f1, fsp = 0, 1, 2 // the two shaped files and the sparse one
	type step = []byte
	seed := func(shape [4]byte, steps ...step) {
		in := shape[:]
		for _, s := range steps {
			in = append(in, s...)
		}
		f.Add(in)
	}
	do := func(op byte, s, file int) step { return mdStep(op, s, file, 0, 0, 0) }
	mapR := func(s, file int) step { return do(mdMapRead, s, file) }
	mapW := func(s, file int) step { return do(mdMapWrite, s, file) }
	unmap := func(s, file int) step { return do(mdUnmap, s, file) }
	store := func(s, file int, i uint16) step { return mdStep(mdStore, s, file, 0, i, 0) }
	scribble := func(s, file int, b uint16, v uint64) step { return mdStep(mdScribble, s, file, 0, b, v) }
	mutate := func(s, file, sel int, off uint16, v uint64) step { return mdStep(mdMutate, s, file, sel, off, v) }
	free := func(s, file int, v uint64) step { return mdStep(mdFree, s, file, 0, 0, v) }
	alloc := func(s int) step { return do(mdAlloc, s, 0) }
	crash := func(s, file int, v uint64) step { return mdStep(mdCrash, s, file, 0, 0, v) }
	create := func(s, file int, v uint64) step { return mdStep(mdCreate, s, file, 0, 0, v) }
	repeat := func(n int, s step) (out step) {
		for ; n > 0; n-- {
			out = append(out, s...)
		}
		return out
	}
	small := [4]byte{} // two one-page files, then the sparse one
	w := newModelWorld(f, small)
	sp := w.files[fsp]
	w.c.Close()

	// The one grant rule. pick(v) on the sparse file: 0 its dirent page,
	// 1–2 its index pages, 3–6 its data pages, 7 on the pages allocated.
	seed(small, // collusion: s0 names s2's fresh pool page in the index; s1 maps for reading, then writing
		alloc(s2), mapW(s0, fsp), scribble(s0, fsp, 3, 7), mapR(s1, fsp), unmap(s1, fsp), mapW(s1, fsp))
	seed(small, // a legitimate co-writer: s0 grows the file from its own pool, s1 maps
		mapW(s0, fsp), alloc(s0), scribble(s0, fsp, 9, 7), mapW(s1, fsp), unmap(s0, fsp))
	seed(small, // a dangling free: s0 frees a data page, s2 then allocates
		mapW(s0, fsp), free(s0, fsp, 3), alloc(s2), unmap(s0, fsp))
	// Found before the grant rule: s0 frees a data page with its index
	// entry left in place; s1's read map walked the index and was granted
	// the page, by then the allocator's.
	seed(small, mapW(s0, fsp), free(s0, fsp, 6), free(s0, fsp, 6), mapR(s1, fsp), free(s0, fsp, 6))
	// Found on the way: s2's dangling free quarantines the file to s2, the
	// freed page comes back into s2's pool, s2's map of its quarantined file
	// takes it into the mapping, and s2 frees it from the pool again: a free
	// must not hand the allocator a page a mapping still holds.
	seed(small, repeat(3, alloc(s0)), mapW(s2, fsp), free(s2, fsp, 4), alloc(s0), unmap(s2, fsp),
		repeat(17, alloc(s0)), alloc(s2), repeat(2, alloc(s0)), mapR(s2, fsp), free(s2, fsp, 66))
	seed(small, // stacked writers: s2's write map waits s1 out, not maps beside it
		mapW(s0, fsp), mapW(s1, fsp), unmap(s0, fsp), mapW(s2, fsp))
	seed(small, // a parked page's teardown: s1 must not reach the page s2 allocates after s0 closes
		mapW(s0, fsp), alloc(s0), scribble(s0, fsp, 9, 7), mapR(s1, fsp), scribble(s0, fsp, 9, 5),
		do(mdClose, s0, 0), alloc(s2))
	seed(small, // a truncate under a co-holder: the freed page leaves s1's mapping before s2 can get it
		mapW(s0, fsp), mapR(s1, fsp), free(s0, fsp, 3), alloc(s2), unmap(s0, fsp))

	// Write references at two sizes. With shape {4, 70, 9, 40}, f0's data
	// is pages 39–109 (granule 2 whole, granules 1 and 3 ragged) and f1's
	// tail shares granule 3; f0's targets[33] is page 70.
	whole := [4]byte{4, 70, 9, 40}
	seed(whole, // a whole granule split by a ragged unref of its own session (a truncate), released whole
		mapW(s0, f0), mapW(s0, f1), store(s0, f0, 40), free(s0, f0, 33), unmap(s0, f1), unmap(s0, f0))
	seed(whole, // two sessions hold one granule whole, a third ragged; one revoked
		mapW(s0, f0), mapW(s1, f0), mapR(s2, f1), store(s1, f0, 70), do(mdRevoke, s1, 0),
		unmap(s2, f1), unmap(s0, f0))
	seed(whole, // a pool page bound into a file with whole granules: the next grant has ragged ends
		alloc(s2), mapW(s2, f0), scribble(s2, f0, 1, 73), store(s2, f0, 5), unmap(s2, f0),
		mapW(s0, f0), unmap(s0, f0))
	seed([4]byte{0, 99, 31, 64}, // two whole granules read and written, then a ragged write in each
		mapR(s2, f0), mapW(s0, f1), mapW(s1, f0), store(s1, f0, 50), store(s0, f1, 3), unmap(s1, f0),
		do(mdRevoke, s0, 0))
	seed(small, // a whole granule of pool pages, each counted by its own page, torn down in one run
		repeat(64, alloc(s1)), do(mdClose, s1, 0))

	// The checksum region's two levels against the per-page opener.
	seed(whole, // a handover of a file with whole granules
		mapW(s0, f0), store(s0, f0, 40), unmap(s0, f0), mapW(s2, f0), store(s2, f0, 41), unmap(s2, f0),
		mapW(s0, f0), unmap(s0, f0), do(mdScrub, s0, 0))
	seed([4]byte{0, 99, 31, 64}, // stacked same-group writers: the first stores, the second releases last
		mapW(s0, f0), mapW(s1, f0), store(s0, f0, 50), unmap(s0, f0), store(s1, f0, 7), unmap(s1, f0),
		mapW(s2, f0), unmap(s2, f0))
	seed([4]byte{17, 80, 3, 33}, // a revoked writer, then a reader and a writer of another group
		mapW(s0, f1), store(s0, f1, 60), do(mdRevoke, s0, 0), mapR(s2, f1), mapW(s1, f1), store(s1, f1, 2),
		unmap(s1, f1), unmap(s2, f1), do(mdScrub, s0, 0))
	seed([4]byte{28, 64, 0, 32}, // crashes inside a release and inside a grant
		mapW(s0, f0), store(s0, f0, 33), crash(s0, f0, 3), mapW(s2, f0), store(s2, f0, 12), unmap(s2, f0),
		crash(s1, f0, 1), mapW(s1, f0), crash(s1, f0, 5))

	// The mount scan: a crash persists a write holder's index naming the
	// root's dirent page, another file's data page, the root inode page and
	// the checksum region. The remount gives a page two files claim to the
	// one it reaches first and keeps reserved pages out of every set.
	seed(small, mapW(s0, fsp), scribble(s0, fsp, 1, 0), mutate(s0, fsp, 1, 16, uint64(w.files[f0].data[0])),
		crash(s0, fsp, 0), mapW(s2, fsp), mapW(s1, f0), unmap(s2, fsp))
	seed(small, mapW(s0, fsp), mutate(s0, fsp, 1, 8, uint64(core.RootInodePage)),
		mutate(s0, fsp, 1, 16, uint64(core.ChecksumBase(w.dev.NumPages()))), crash(s0, fsp, 0), mapW(s2, fsp))

	// Close and crash reach every oracle: each followed by a cross-group
	// handover.
	seed(small, mapW(s0, fsp), scribble(s0, fsp, 9, 7), store(s0, fsp, 1), do(mdClose, s0, 0),
		mapW(s2, fsp), store(s2, fsp, 2), unmap(s2, fsp), mapW(s1, fsp), unmap(s1, fsp))
	seed(whole, mapW(s0, f0), store(s0, f0, 40), crash(s0, f0, 2), mapW(s2, f0), store(s2, f0, 41),
		unmap(s2, f0), mapW(s1, f0), unmap(s1, f0))

	// A lease-revoked holder whose own dirent slot names a foreign ino: the
	// revocation rolls the store back, as a release does — it is no unlink,
	// the holder does not write-hold the root.
	seed(small, mapW(s0, f0), mutate(s0, f0, 0, 0, 12345), mapR(s2, f0), mapW(s2, f0))

	// Scoped vs full verification: a write release by s2 after the stores
	// of verifier.FuzzVerifyRegular's corpus (the §6.5 attack classes),
	// aimed at the sparse file, plus the stores only the scoping can get
	// wrong. Targets: 0 the dirent page (offsets inside the file's slot),
	// 1–2 the index pages, 3 the first data page.
	idx0, idx1, d0 := uint64(sp.index[0]), uint64(sp.index[1]), uint64(sp.data[0])
	const next = core.IndexEntriesPerPage * 8
	for _, steps := range [][]step{
		{},                                  // clean handover
		{mutate(s2, fsp, 3, 100, 42)},       // data store only: scoped
		{mutate(s2, fsp, 0, 24, 4096)},      // size only: scoped
		{mutate(s2, fsp, 1, next, idx0)},    // index-chain cycle onto itself
		{mutate(s2, fsp, 1, 0, 99999)},      // extent beyond the device
		{mutate(s2, fsp, 1, 0, 1)},          // extent into reserved pages
		{mutate(s2, fsp, 1, 3*8, d0)},       // same data page referenced twice
		{mutate(s2, fsp, 1, next, d0)},      // index chain through a data page
		{mutate(s2, fsp, 0, 0, ^uint64(0))}, // trashed ino field
		{mutate(s2, fsp, 1, next, idx1), mutate(s2, fsp, 2, next, idx0)}, // cycle via the second index page
		{mutate(s2, fsp, 0, 32, uint64(sp.loc.Page))},                    // head points at the dirent page itself
		{mutate(s2, fsp, 0, 32, idx1)},                                   // head moved down the chain
		{mutate(s2, fsp, 2, 8, d0)},                                      // second index page steals a block
		{mutate(s2, fsp, 1, 0, d0)},                                      // a store that changes nothing
		{mutate(s2, fsp, 0, core.DirentNameLenOff, 0x622f610003)},        // own name "a/b"
		{free(s2, fsp, 3)},                                               // a data page freed, its index entry left in place
		{mutate(s2, fsp, 1, 0, 0), free(s2, fsp, 3)},                     // an honest truncate: entry cleared, page freed
		{free(s2, fsp, 2)},                                               // the second index page freed under the chain
	} {
		seed(small, append(append([]step{mapW(s2, fsp)}, steps...), unmap(s2, fsp))...)
	}

	// The one bind rule. A create by another trust group whose Head names
	// f0's index page (pick 1 on a small file) binds none of f0's pages; one
	// whose Head names a page freed by then binds it neither, so when the
	// allocator hands the page to s1 and f1's release binds it, it is f1's
	// alone.
	seed(small, create(s2, f0, 1), mapW(s2, f0), unmap(s2, f0))
	seed(small, alloc(s0), free(s0, fsp, 7), create(s2, fsp, 7), repeat(22, alloc(s1)), mapW(s1, f1),
		scribble(s1, f1, 1, 3), unmap(s1, f1))
	// A pool page the clip lent to the sparse file's grants (parked on s0 for
	// it) and then bound into f0 by s0's release leaves s1's mapping of the
	// sparse file.
	seed(small, mapW(s0, fsp), mapW(s0, f0), alloc(s0), scribble(s0, fsp, 9, 7), mapW(s1, fsp),
		scribble(s0, f0, 1, 3), unmap(s0, f0), mapW(s2, f0), store(s1, fsp, 0))
	// Preserve copies are pool pages: dangling frees of pages 56 and 75
	// (f0's targets[19] and [38]) are caught at s0's release, a preserve
	// copy lands on page 75, which the checkpoint still names, and its
	// record must open before the copy is written into it.
	seed(whole, mapW(s0, f0), free(s0, f0, 19), free(s0, f0, 38), unmap(s0, f0), mapR(s2, f0), mapW(s0, f0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		newModelWorld(t, [4]byte(data[:4])).run(data[4:])
	})
}
