package controller

import (
	"fmt"
	"testing"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// Coverage for the checksum region's two levels (ISSUE 27): a granule a
// write grant covers whole is opened by one bit, every other page by its
// record. The reference is what the per-page opener guaranteed before:
// a page is open — no reader trusts its record — while any session
// write-maps it or since a store its release has not resealed, and
// otherwise its record is sealed and carries its content's CRC.

// openerModel is that per-page opener's state, kept by the test: which
// sessions map which files, and which pages were stored to since their
// last seal — or lost their last write permission with no release to
// reseal them: a session's read mapping keeps a permission its write
// mapping of a sibling raised on their shared dirent page, and the
// per-page opener left such a page to the scrub. Who can store to a
// page is the MMU's word (PermOf), a layer FuzzPageTableModel holds to
// its own model.
type openerModel struct {
	files  []*ckFile
	sess   []*ckSess
	stored map[nvm.PageID]bool
}

type ckFile struct {
	ino   core.Ino
	loc   core.FileLoc
	pages []nvm.PageID // index and data pages
	data  []nvm.PageID
}

type ckSess struct {
	s     *Session
	group GroupID
	write map[core.Ino]bool // mapped files: true for a write mapping
}

// writeMapped reports whether some session can store to page p.
func (m *openerModel) writeMapped(p nvm.PageID) bool {
	for _, s := range m.sess {
		if s.s.AddressSpace().PermOf(p) == mmu.PermWrite {
			return true
		}
	}
	return false
}

// released is the per-page opener's release of f by s, whose permissions
// on f's pages were before: a write release seals every page nobody can
// store to any more; a read release that takes the last write permission
// leaves the page open.
func (m *openerModel) released(s *ckSess, f *ckFile, before map[nvm.PageID]mmu.Perm) {
	write := s.write[f.ino]
	delete(s.write, f.ino)
	for p, perm := range before {
		switch {
		case m.writeMapped(p):
		case write:
			delete(m.stored, p)
		case perm == mmu.PermWrite:
			m.stored[p] = true
		}
	}
}

// perms snapshots s's permissions on f's pages.
func (f *ckFile) perms(s *ckSess) map[nvm.PageID]mmu.Perm {
	out := map[nvm.PageID]mmu.Perm{}
	for _, p := range append([]nvm.PageID{f.loc.Page}, f.pages...) {
		out[p] = s.s.AddressSpace().PermOf(p)
	}
	return out
}

// checkPages holds every page of the files to the model: open while
// write-mapped; trusted only with its content's CRC; sealed with it when
// neither write-mapped nor stored to since its last seal.
func (m *openerModel) checkPages(t *testing.T, c *Controller, step int) {
	t.Helper()
	total := c.dev.NumPages()
	buf := make([]byte, nvm.PageSize)
	for _, f := range m.files {
		for _, p := range append([]nvm.PageID{f.loc.Page}, f.pages...) {
			rec, trusted, err := core.LoadChecksumTrusted(c.mem, total, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.mem.Read(p, 0, buf); err != nil {
				t.Fatal(err)
			}
			match := core.ChecksumCRC(rec) == core.PageCRC(buf)
			switch {
			case m.writeMapped(p):
				if trusted {
					t.Fatalf("step %d: page %d is write-mapped but its record is trusted (seq %d)", step, p, core.ChecksumSeq(rec))
				}
			case m.stored[p]:
				if trusted && !match {
					t.Fatalf("step %d: page %d stored to, its record trusted with a stale CRC", step, p)
				}
				if core.ChecksumSealed(rec) && match {
					delete(m.stored, p) // resealed
				}
			case !core.ChecksumSealed(rec) || !match:
				t.Fatalf("step %d: quiescent page %d: record seq %d CRC %08x, content CRC %08x",
					step, p, core.ChecksumSeq(rec), core.ChecksumCRC(rec), core.PageCRC(buf))
			}
		}
	}
}

// ckWorld is one fuzz input's world: a controller on a crash-tracking
// device, three sessions in two trust groups — two of them same-group
// writers that stack — and two files whose pages start at an alignment
// and run for a length the input picks.
type ckWorld struct {
	dev *nvm.Device
	c   *Controller
	m   *openerModel
}

func newCkWorld(t *testing.T, shape [4]byte) *ckWorld {
	t.Helper()
	w := &ckWorld{
		dev: nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 1024, TrackPersistence: true}),
		m:   &openerModel{stored: map[nvm.PageID]bool{}},
	}
	var err error
	if w.c, err = New(w.dev, Options{}); err != nil {
		t.Fatal(err)
	}
	w.register()
	owner := w.m.sess[0].s
	for i := 0; i < 2; i++ {
		if pad := int(shape[2*i]) % 40; pad > 0 {
			if _, err := owner.AllocPages(0, pad); err != nil {
				t.Fatal(err)
			}
		}
		ino, loc := mkBigFile(t, owner, fmt.Sprintf("f%d", i), 1+int(shape[2*i+1])%100)
		f := &ckFile{ino: ino, loc: loc}
		index, data := filePages(t, w.c, loc)
		f.pages, f.data = append(index, data...), data
		w.m.files = append(w.m.files, f)
	}
	return w
}

// register gives the world its three sessions.
func (w *ckWorld) register() {
	w.m.sess = w.m.sess[:0]
	for _, g := range []GroupID{1, 1, 2} {
		w.m.sess = append(w.m.sess, &ckSess{s: w.c.Register(1000, 1000, 0, g), group: g, write: map[core.Ino]bool{}})
	}
}

// Operations of FuzzChecksumOpenModel, three bytes each: op, then two
// arguments.
const (
	ckWriteGrant = iota
	ckReadGrant
	ckStore
	ckRelease
	ckRevoke
	ckScrub
	ckCrash
	ckOps
)

// conflict reports whether a grant of f to s would wait out another trust
// group's write lease (the driver never blocks).
func (w *ckWorld) conflict(s *ckSess, f *ckFile) bool {
	for _, o := range w.m.sess {
		if o.group != s.group && o.write[f.ino] {
			return true
		}
	}
	return false
}

// grant maps f to s, dropping the other groups' readers a write grant
// revokes.
func (w *ckWorld) grant(t *testing.T, s *ckSess, f *ckFile, write bool) {
	t.Helper()
	if w.conflict(s, f) {
		return
	}
	if held, ok := s.write[f.ino]; ok && (held || !write) {
		return
	}
	if _, err := s.s.MapFile(f.ino, f.loc, write); err != nil {
		t.Fatalf("map %d write=%v: %v", f.ino, write, err)
	}
	s.write[f.ino] = write
	if write {
		for _, o := range w.m.sess {
			if o.group != s.group && !o.write[f.ino] {
				delete(o.write, f.ino)
			}
		}
	}
}

// store overwrites data page i of f through s's mapping and persists it.
func (w *ckWorld) store(s *ckSess, f *ckFile, i int, v uint64) error {
	p := f.data[i%len(f.data)]
	buf := make([]byte, nvm.PageSize)
	fillPage(buf, v)
	as := s.s.AddressSpace()
	if err := as.Write(p, 0, buf); err != nil {
		return err
	}
	w.m.stored[p] = true
	return as.Persist(p, 0, nvm.PageSize)
}

func (w *ckWorld) release(t *testing.T, s *ckSess, f *ckFile) {
	t.Helper()
	if _, ok := s.write[f.ino]; !ok {
		return
	}
	before := f.perms(s)
	if err := s.s.UnmapFile(f.ino); err != nil {
		t.Fatalf("unmap %d: %v", f.ino, err)
	}
	w.m.released(s, f, before)
}

// scrub runs a full pass: it may find nothing wrong, and settles every
// page nobody write-maps.
func (w *ckWorld) scrub(t *testing.T, full bool) {
	t.Helper()
	rep := w.c.ScrubAll()
	if rep.Mismatches != 0 {
		t.Fatalf("scrub: %+v", rep)
	}
	if full && rep.Covered != rep.Candidates {
		t.Fatalf("scrub coverage %d/%d with nothing mapped", rep.Covered, rep.Candidates)
	}
	for p := range w.m.stored {
		if !w.m.writeMapped(p) {
			delete(w.m.stored, p)
		}
	}
}

// crash arms a crash point k persist points ahead, runs one release or
// grant with a store into it, pulls the power, and mounts the device
// afresh: nothing is mapped any more, and a scrub leaves every page
// sealed with its content's CRC at full coverage.
func (w *ckWorld) crash(t *testing.T, s *ckSess, f *ckFile, k int64) {
	t.Helper()
	fp := nvm.NewFaultPlan()
	fp.ArmCrashPoint(k)
	w.dev.SetFaultPlan(fp)
	if _, ok := s.write[f.ino]; ok {
		s.s.UnmapFile(f.ino) // may fail at the crash point
	} else if !w.conflict(s, f) {
		if _, err := s.s.MapFile(f.ino, f.loc, true); err == nil {
			w.store(s, f, int(k), uint64(k))
		}
	}
	w.dev.Tracker().Crash()
	w.dev.SetFaultPlan(nil)
	w.c.Close()
	var err error
	if w.c, err = New(w.dev, Options{}); err != nil {
		t.Fatalf("remount after the crash: %v", err)
	}
	w.register()
	clear(w.m.stored)
	w.scrub(t, true)
}

// runCkModel drives the world through the operations data encodes.
func runCkModel(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	w := newCkWorld(t, [4]byte(data[:4]))
	defer func() { w.c.Close() }()
	w.m.checkPages(t, w.c, -1)
	data = data[4:]
	for step := 0; len(data) >= 3 && step < 200; step, data = step+1, data[3:] {
		op, a, b := data[0]%ckOps, int(data[1]), int(data[2])
		s, f := w.m.sess[a%len(w.m.sess)], w.m.files[(a/len(w.m.sess))%len(w.m.files)]
		switch op {
		case ckWriteGrant:
			w.grant(t, s, f, true)
		case ckReadGrant:
			w.grant(t, s, f, false)
		case ckStore:
			if s.write[f.ino] {
				if err := w.store(s, f, b, uint64(step)<<8|uint64(b)); err != nil {
					t.Fatalf("step %d: store: %v", step, err)
				}
			}
		case ckRelease:
			w.release(t, s, f)
		case ckRevoke:
			// Torn down without a harvest: every page it could store to
			// counts as stored to, and nothing is resealed until a release
			// or a scrub gets to it.
			for _, g := range w.m.files {
				for p, perm := range g.perms(s) {
					if perm == mmu.PermWrite {
						w.m.stored[p] = true
					}
				}
			}
			s.s.Abandon()
			if err := w.c.Reap(s.s.ID()); err != nil {
				t.Fatal(err)
			}
			s.s, s.write = w.c.Register(1000, 1000, 0, s.group), map[core.Ino]bool{}
		case ckScrub:
			w.scrub(t, false)
		case ckCrash:
			w.crash(t, s, f, 1+int64(b%12))
		}
		w.m.checkPages(t, w.c, step)
	}
	// Everything released: every page sealed with its content's CRC.
	for _, s := range w.m.sess {
		for _, f := range w.m.files {
			w.release(t, s, f)
		}
	}
	w.m.checkPages(t, w.c, -2)
	w.scrub(t, true)
	w.m.checkPages(t, w.c, -3)
}

// ckStep encodes one operation of FuzzChecksumOpenModel's input.
func ckStep(op, a, b byte) []byte { return []byte{op, a, b} }

// FuzzChecksumOpenModel: no sequence of write and read grants, stores,
// releases, revocations, scrub passes and crashes with a remount — over
// three sessions in two trust groups, same-group writers stacked, and two
// files of any alignment and length — leaves a page the per-page opener
// would call open with a trusted record, or one it would call sealed
// without a sealed record of its content's CRC.
func FuzzChecksumOpenModel(f *testing.F) {
	cat := func(shape []byte, steps ...[]byte) []byte {
		for _, s := range steps {
			shape = append(shape, s...)
		}
		return shape
	}
	// Session a%3, file a/3%2: a = 0 is session 0 (group 1) on file 0,
	// 1 session 1 (group 1), 2 session 2 (group 2), 3..5 the same on file 1.
	f.Add(cat([]byte{4, 70, 9, 40}, // a handover of a file with whole granules
		ckStep(ckWriteGrant, 0, 0), ckStep(ckStore, 0, 40), ckStep(ckRelease, 0, 0),
		ckStep(ckWriteGrant, 2, 0), ckStep(ckStore, 2, 41), ckStep(ckRelease, 2, 0),
		ckStep(ckWriteGrant, 0, 0), ckStep(ckRelease, 0, 0), ckStep(ckScrub, 0, 0)))
	f.Add(cat([]byte{0, 99, 31, 64}, // stacked same-group writers: the first stores, the second releases last
		ckStep(ckWriteGrant, 0, 0), ckStep(ckWriteGrant, 1, 0), ckStep(ckStore, 0, 50),
		ckStep(ckRelease, 0, 0), ckStep(ckStore, 1, 7), ckStep(ckRelease, 1, 0),
		ckStep(ckWriteGrant, 2, 0), ckStep(ckRelease, 2, 0)))
	f.Add(cat([]byte{17, 80, 3, 33}, // a revoked writer, then a reader and a writer of another group
		ckStep(ckWriteGrant, 3, 0), ckStep(ckStore, 3, 60), ckStep(ckRevoke, 3, 0),
		ckStep(ckReadGrant, 5, 0), ckStep(ckWriteGrant, 4, 0), ckStep(ckStore, 4, 2),
		ckStep(ckRelease, 4, 0), ckStep(ckRelease, 5, 0), ckStep(ckScrub, 0, 0)))
	f.Add(cat([]byte{28, 64, 0, 32}, // crashes inside a release and inside a grant
		ckStep(ckWriteGrant, 0, 0), ckStep(ckStore, 0, 33), ckStep(ckCrash, 0, 3),
		ckStep(ckWriteGrant, 2, 0), ckStep(ckStore, 2, 12), ckStep(ckRelease, 2, 0),
		ckStep(ckCrash, 1, 1), ckStep(ckWriteGrant, 1, 0), ckStep(ckCrash, 1, 5)))
	f.Fuzz(func(t *testing.T, data []byte) { runCkModel(t, data) })
}
