package controller

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// Coverage for the batched MapFiles/UnmapFiles: every entry gets the
// verdict the per-call MapFile/UnmapFile would have given it — same
// MapInfo, same access control, same lease semantics — while the batch
// pays one trap, one admission slot and one verifier IPC.

// mapVia is the route a test's map/unmap calls take, so one body can
// run down both.
type mapVia string

const (
	viaSync  mapVia = "sync"    // MapFile / UnmapFile, one crossing per call
	viaBatch mapVia = "batched" // a one-entry MapFiles / UnmapFiles
)

func (v mapVia) mapFile(s *Session, ino core.Ino, loc core.FileLoc, write bool) (*MapInfo, error) {
	if v == viaSync {
		return s.MapFile(ino, loc, write)
	}
	var out [1]MapRes
	if err := s.MapFiles([]MapReq{{ino, loc, write}}, out[:]); err != nil {
		return nil, err
	}
	if out[0].Err != nil {
		return nil, out[0].Err
	}
	return &out[0].Info, nil
}

func (v mapVia) unmapFile(s *Session, ino core.Ino) error {
	if v == viaSync {
		return s.UnmapFile(ino)
	}
	var errs [1]error
	if err := s.UnmapFiles([]core.Ino{ino}, errs[:]); err != nil {
		return err
	}
	return errs[0]
}

// mkFiles creates n small files under root through s. Root is left
// write-mapped (like mkFile), so the files are not adopted yet.
func mkFiles(t *testing.T, s *Session, prefix string, n int) []MapReq {
	t.Helper()
	files := make([]MapReq, n)
	for i := range files {
		files[i].Ino, files[i].Loc = mkFile(t, s, fmt.Sprintf("%s%d", prefix, i), []byte(fmt.Sprintf("%s file %d", prefix, i)))
	}
	return files
}

func unmapRoot(t *testing.T, s *Session) {
	t.Helper()
	if err := s.UnmapFile(core.RootIno); err != nil {
		t.Fatalf("unmap root: %v", err)
	}
}

// asWrite returns the requests with Write set.
func asWrite(reqs []MapReq) []MapReq {
	w := slices.Clone(reqs)
	for i := range w {
		w[i].Write = true
	}
	return w
}

func inosOf(reqs []MapReq) []core.Ino {
	inos := make([]core.Ino, len(reqs))
	for i, r := range reqs {
		inos[i] = r.Ino
	}
	return inos
}

// wantErrs checks one verdict per entry; a nil want means success.
func wantErrs(t *testing.T, what string, got []error, want ...error) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", what, len(got), len(want))
	}
	for i := range want {
		if (want[i] == nil) != (got[i] == nil) || !errors.Is(got[i], want[i]) {
			t.Fatalf("%s: entry %d: %v, want %v", what, i, got[i], want[i])
		}
	}
}

func mapErrs(out []MapRes) []error {
	errs := make([]error, len(out))
	for i := range out {
		errs[i] = out[i].Err
	}
	return errs
}

func noWriteRefs(t *testing.T, c *Controller) {
	t.Helper()
	c.tabMu.Lock()
	defer c.tabMu.Unlock()
	for p, n := range c.writeRefs {
		if n != 0 {
			t.Errorf("page %d: %d write references left behind", p, n)
		}
	}
}

func TestBatchContract(t *testing.T) {
	// Every case starts from six adopted files owned by uid 1000 (mode
	// 0644): `other` (uid 2000) may read them and may not write them.
	type rig struct {
		c            *Controller
		owner, other *Session
		files        []MapReq
	}
	cases := []struct {
		name string
		run  func(t *testing.T, r rig)
	}{
		{"empty batch", func(t *testing.T, r rig) {
			st0 := r.c.Stats().Snapshot()
			if err := r.owner.MapFiles(nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := r.owner.UnmapFiles(nil, nil); err != nil {
				t.Fatal(err)
			}
			if st := r.c.Stats().Snapshot().Sub(st0); st.MapCount != 0 || st.UnmapCount != 0 {
				t.Fatalf("an empty batch counted calls: %+v", st)
			}
		}},
		{"one entry is MapFile", func(t *testing.T, r rig) {
			f := r.files[0]
			batch, err := viaBatch.mapFile(r.other, f.Ino, f.Loc, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := viaBatch.unmapFile(r.other, f.Ino); err != nil {
				t.Fatal(err)
			}
			call, err := r.other.MapFile(f.Ino, f.Loc, false)
			if err != nil {
				t.Fatal(err)
			}
			if *batch != *call {
				t.Fatalf("batch %+v, call %+v", *batch, *call)
			}
		}},
		{"a failing entry leaves the others granted", func(t *testing.T, r rig) {
			reqs := []MapReq{r.files[0], asWrite(r.files)[1], {Ino: 1 << 30, Loc: r.files[2].Loc}, r.files[2]}
			out := make([]MapRes, len(reqs))
			if err := r.other.MapFiles(reqs, out); err != nil {
				t.Fatal(err)
			}
			wantErrs(t, "map", mapErrs(out), nil, ErrPermission, ErrUnknownFile, nil)
			if len(r.other.ls.mapped) != 2 || r.other.ls.mapped[reqs[0].Ino] == nil || r.other.ls.mapped[reqs[3].Ino] == nil {
				t.Fatalf("mapped set %v, want entries 0 and 3", r.other.ls.mapped)
			}
			if perm := r.other.AddressSpace().PermOf(out[3].Info.Inode.Head); perm != mmu.PermRead {
				t.Fatalf("granted entry's index page is %v", perm)
			}
			errs := make([]error, 3)
			if err := r.other.UnmapFiles(inosOf(reqs[:3]), errs); err != nil {
				t.Fatal(err)
			}
			wantErrs(t, "unmap", errs, nil, ErrBadRequest, ErrBadRequest)
			if len(r.other.ls.mapped) != 1 {
				t.Fatalf("mapped set %v after unmapping entry 0", r.other.ls.mapped)
			}
		}},
		{"the same file twice", func(t *testing.T, r rig) {
			f := r.files[0]
			out := make([]MapRes, 2)
			if err := r.other.MapFiles([]MapReq{f, f}, out); err != nil {
				t.Fatal(err)
			}
			wantErrs(t, "map", mapErrs(out), nil, nil)
			if out[0].Info != out[1].Info {
				t.Fatalf("re-map verdict %+v differs from the grant %+v", out[1].Info, out[0].Info)
			}
			errs := make([]error, 2)
			if err := r.other.UnmapFiles([]core.Ino{f.Ino, f.Ino}, errs); err != nil {
				t.Fatal(err)
			}
			wantErrs(t, "unmap", errs, nil, ErrBadRequest)
			if perm := r.other.AddressSpace().PermOf(out[0].Info.Inode.Head); perm != mmu.PermNone {
				t.Fatalf("index page still %v: the re-map took a second reference", perm)
			}
		}},
		{"read to write upgrade", func(t *testing.T, r rig) {
			f, w := r.files[0], asWrite(r.files)[0]
			out := make([]MapRes, 3)
			if err := r.owner.MapFiles([]MapReq{f, w, f}, out); err != nil {
				t.Fatal(err)
			}
			wantErrs(t, "map", mapErrs(out), nil, nil, nil)
			if out[0].Info.Write || !out[1].Info.Write || !out[2].Info.Write {
				t.Fatalf("grants %v %v %v, want read, write, write (idempotent)", out[0].Info.Write, out[1].Info.Write, out[2].Info.Write)
			}
			if err := viaBatch.unmapFile(r.owner, f.Ino); err != nil {
				t.Fatal(err)
			}
			noWriteRefs(t, r.c)
		}},
		{"fast and adopting entries mixed", func(t *testing.T, r rig) {
			fresh := asWrite(mkFiles(t, r.owner, "fresh", 2)) // root stays write-mapped: not adopted
			reqs := []MapReq{r.files[0], fresh[0], r.files[1], fresh[1]}
			out := make([]MapRes, len(reqs))
			if err := r.owner.MapFiles(reqs, out); err != nil {
				t.Fatal(err)
			}
			wantErrs(t, "map", mapErrs(out), nil, nil, nil, nil)
			for i, q := range reqs {
				if out[i].Info.Ino != q.Ino || out[i].Info.Write != q.Write {
					t.Fatalf("entry %d: verdict %+v for request %+v", i, out[i].Info, q)
				}
				if !r.c.files.has(q.Ino) {
					t.Fatalf("entry %d: ino %d not adopted", i, q.Ino)
				}
			}
			errs := make([]error, len(reqs)+1)
			if err := r.owner.UnmapFiles(append(inosOf(reqs), core.RootIno), errs); err != nil {
				t.Fatal(err)
			}
			wantErrs(t, "unmap", errs, nil, nil, nil, nil, nil)
			noWriteRefs(t, r.c)
		}},
		{"short verdict slice and over-long batch refused", func(t *testing.T, r rig) {
			st0 := r.c.Stats().Snapshot()
			long := make([]MapReq, MaxBatch+1)
			for i := range long {
				long[i] = r.files[i%len(r.files)]
			}
			for what, err := range map[string]error{
				"short out":   r.other.MapFiles(r.files[:3], make([]MapRes, 2)),
				"long map":    r.other.MapFiles(long, make([]MapRes, len(long))),
				"short errs":  r.other.UnmapFiles(inosOf(r.files[:3]), make([]error, 2)),
				"long unmaps": r.other.UnmapFiles(inosOf(long), make([]error, len(long))),
			} {
				if !errors.Is(err, ErrBadRequest) {
					t.Fatalf("%s: %v, want ErrBadRequest", what, err)
				}
			}
			if len(r.other.ls.mapped) != 0 {
				t.Fatalf("a refused batch mapped %v", r.other.ls.mapped)
			}
			st := r.c.Stats().Snapshot().Sub(st0)
			home := st.PerShard[r.c.shardIdxSession(r.other.ID())]
			if st.MapCount != 0 || st.UnmapCount != 0 || home.Admitted != 0 {
				t.Fatalf("a refused batch was counted: maps %d unmaps %d admitted %d", st.MapCount, st.UnmapCount, home.Admitted)
			}
		}},
		{"one admission slot per batch", func(t *testing.T, r rig) {
			st0 := r.c.Stats().Snapshot()
			out := make([]MapRes, len(r.files))
			if err := r.other.MapFiles(r.files, out); err != nil {
				t.Fatal(err)
			}
			wantErrs(t, "map", mapErrs(out), make([]error, len(r.files))...)
			st := r.c.Stats().Snapshot().Sub(st0)
			if home := st.PerShard[r.c.shardIdxSession(r.other.ID())]; home.Admitted != 1 || st.MapCount != int64(len(r.files)) {
				t.Fatalf("batch of %d: %d admissions, %d maps counted", len(r.files), home.Admitted, st.MapCount)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newCtl(t, smallCfg())
			r := rig{c: c, owner: c.Register(1000, 1000, 0, 0), other: c.Register(2000, 2000, 0, 0)}
			r.files = mkFiles(t, r.owner, "f", 6)
			unmapRoot(t, r.owner)
			tc.run(t, r)
			for _, s := range []*Session{r.owner, r.other} {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			noWriteRefs(t, c)
			if checked, bad, first := c.VerifyAll(); bad != 0 {
				t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
			}
		})
	}
}

// TestBatchCrossingsCounted: the amortization is observable — a window
// of 8 crosses the boundary once and carries 8 operations, and the 8
// writer unmaps reach the verifier in one round trip.
func TestBatchCrossingsCounted(t *testing.T) {
	cfg := smallCfg()
	cfg.Cost = nvm.DefaultCostModel()
	c, _ := newCtl(t, cfg)
	s := c.Register(1000, 1000, 0, 0)
	files := asWrite(mkFiles(t, s, "w", 8))
	unmapRoot(t, s)

	reg := telemetry.Default()
	reg.Enable()
	defer reg.Disable()
	names := []string{"nvm.cost_traps", "nvm.cost_trap_ops", "nvm.cost_ipcs", "nvm.cost_ipc_ops"}
	read := func() (v [4]int64) {
		for i, name := range names {
			v[i] = reg.NewCounter(name).Load()
		}
		return v
	}
	delta := func(from [4]int64) (d [4]int64) {
		for i, v := range read() {
			d[i] = v - from[i]
		}
		return d
	}

	v0 := read()
	out := make([]MapRes, len(files))
	if err := s.MapFiles(files, out); err != nil {
		t.Fatal(err)
	}
	wantErrs(t, "map", mapErrs(out), make([]error, len(files))...)
	if d := delta(v0); d != [4]int64{1, 8, 0, 0} {
		t.Fatalf("MapFiles of 8: traps, trap ops, ipcs, ipc ops = %v, want [1 8 0 0]", d)
	}
	v0 = read()
	errs := make([]error, len(files))
	if err := s.UnmapFiles(inosOf(files), errs); err != nil {
		t.Fatal(err)
	}
	wantErrs(t, "unmap", errs, make([]error, len(files))...)
	if d := delta(v0); d != [4]int64{1, 8, 1, 8} {
		t.Fatalf("UnmapFiles of 8 writers: traps, trap ops, ipcs, ipc ops = %v, want [1 8 1 8]", d)
	}
	// The per-call route, for contrast: one crossing per operation.
	v0 = read()
	if _, err := s.MapFile(files[0].Ino, files[0].Loc, true); err != nil {
		t.Fatal(err)
	}
	if err := s.UnmapFile(files[0].Ino); err != nil {
		t.Fatal(err)
	}
	if d := delta(v0); d != [4]int64{2, 2, 1, 1} {
		t.Fatalf("MapFile+UnmapFile: traps, trap ops, ipcs, ipc ops = %v, want [2 2 1 1]", d)
	}
}

// batchTwin is one of two identically built controllers a differential
// trace runs against.
type batchTwin struct {
	c     *Controller
	sess  []*Session
	files []MapReq      // six adopted files, two fresh ones, the root directory, a bogus ino
	data  [8]nvm.PageID // first data page of each real file
}

func newBatchTwin(t *testing.T) *batchTwin {
	t.Helper()
	c, _ := newCtl(t, smallCfg())
	w := &batchTwin{c: c, sess: []*Session{
		c.Register(1000, 1000, 0, 1), // the creator
		c.Register(1000, 1000, 0, 1), // its trust-group peer: shared write mappings
		c.Register(1000, 1000, 0, 2), // same credentials, another trust domain
		c.Register(2000, 2000, 0, 3), // may read, may not write
	}}
	w.files = mkFiles(t, w.sess[0], "old", 6)
	unmapRoot(t, w.sess[0])
	// Two files the controller has not seen, and root left write-mapped
	// by the creator: adoption and directory verification are in play.
	w.files = append(w.files, mkFiles(t, w.sess[0], "new", 2)...)
	for i, f := range w.files {
		in, err := core.ReadDirentInode(c.mem, f.Loc.Page, f.Loc.Slot)
		if err != nil {
			t.Fatal(err)
		}
		if w.data[i], err = core.IndexEntry(c.mem, in.Head, 0); err != nil {
			t.Fatal(err)
		}
	}
	w.files = append(w.files,
		MapReq{Ino: core.RootIno, Loc: core.RootLoc()},
		MapReq{Ino: 1 << 30, Loc: w.files[0].Loc})
	return w
}

// cleanClaimsHold checks what a cleanOpen mark promises once nobody
// write-maps the page: its open record still carries the CRC of the
// content, so closing it unread is sound. (A mark outliving a record the
// scrubber sealed is dead: the next grant rewrites it.)
func (w *batchTwin) cleanClaimsHold(t *testing.T, step int) {
	t.Helper()
	c := w.c
	buf := make([]byte, nvm.PageSize)
	for p, clean := range c.cleanOpen {
		if !clean || c.writeRefs[p] != 0 {
			continue
		}
		rec, err := core.LoadChecksum(c.mem, c.dev.NumPages(), nvm.PageID(p))
		if err == nil {
			err = c.mem.Read(nvm.PageID(p), 0, buf)
		}
		if err != nil || core.ChecksumIsOpen(rec) && core.ChecksumCRC(rec) != core.PageCRC(buf) {
			t.Fatalf("step %d: page %d marked cleanOpen: record CRC %08x, content CRC %08x: %v",
				step, p, core.ChecksumCRC(rec), core.PageCRC(buf), err)
		}
	}
}

// wouldWait reports whether a map of ino by session si would sleep on a
// foreign trust domain's lease; the trace never blocks.
func (w *batchTwin) wouldWait(si int, ino core.Ino) bool {
	w.c.lockAll()
	defer w.c.unlockAll()
	fs, _ := w.c.files.get(ino)
	return fs != nil && fs.writer != 0 && fs.writerGroup != w.sess[si].ls.group
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBatchDifferential drives one seeded trace of map windows, unmap
// windows and stores against twin devices — per call on one, batched on
// the other — and requires identical verdicts, identical page
// permissions and write references after every step, every cleanOpen
// mark truthful on both, and a clean VerifyAll and scrub at the end.
func TestBatchDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runBatchDifferential(t, seed) })
	}
}

func runBatchDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	call, batch := newBatchTwin(t), newBatchTwin(t)
	if !slices.Equal(call.files, batch.files) || call.data != batch.data {
		t.Fatal("the twins were not built alike")
	}
	sameState := func(step int) {
		t.Helper()
		if !slices.Equal(call.c.writeRefs, batch.c.writeRefs) {
			t.Fatalf("step %d: writeRefs differ", step)
		}
		// cleanOpen is compared by what it promises, not bit for bit: a
		// batch finishes its escalated entries after the rest, so when
		// two files of one window share a dirent page the session's last
		// reference to it — the one whose release harvests the dirty bit
		// — may drop in one twin and not yet in the other.
		for _, w := range []*batchTwin{call, batch} {
			w.cleanClaimsHold(t, step)
		}
		for si := range call.sess {
			a, b := call.sess[si].AddressSpace(), batch.sess[si].AddressSpace()
			for p := nvm.PageID(0); p < call.c.dev.NumPages(); p++ {
				if a.PermOf(p) != b.PermOf(p) {
					t.Fatalf("step %d: session %d page %d: %v per call, %v batched", step, si, p, a.PermOf(p), b.PermOf(p))
				}
			}
		}
	}
	var granted, refused, released, stores int
	for step := 0; step < 300; step++ {
		si := rng.Intn(len(call.sess))
		cs, bs := call.sess[si], batch.sess[si]
		switch k := rng.Intn(20); {
		case k < 10: // a window of maps
			var reqs []MapReq
			for n := 1 + rng.Intn(8); n > 0; n-- {
				r := call.files[rng.Intn(len(call.files))]
				r.Write = rng.Intn(2) == 0
				if !call.wouldWait(si, r.Ino) {
					reqs = append(reqs, r)
				}
			}
			out := make([]MapRes, len(reqs))
			if err := bs.MapFiles(reqs, out); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for i, r := range reqs {
				var want MapInfo
				info, err := cs.MapFile(r.Ino, r.Loc, r.Write)
				if err == nil {
					want = *info
					granted++
				} else {
					refused++
				}
				if out[i].Info != want || errText(out[i].Err) != errText(err) {
					t.Fatalf("step %d session %d entry %d %+v: batched (%+v, %v), per call (%+v, %v)",
						step, si, i, r, out[i].Info, out[i].Err, want, err)
				}
			}
		case k < 17: // a window of unmaps: mostly mapped files, some not
			var inos []core.Ino
			for ino := range cs.ls.mapped {
				if rng.Intn(2) == 0 && len(inos) < 8 {
					inos = append(inos, ino)
				}
			}
			slices.Sort(inos) // map order is not the trace's to depend on
			if rng.Intn(3) == 0 {
				inos = append(inos, call.files[rng.Intn(len(call.files))].Ino)
			}
			errs := make([]error, len(inos))
			if err := bs.UnmapFiles(inos, errs); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for i, ino := range inos {
				err := cs.UnmapFile(ino)
				if errText(err) != errText(errs[i]) {
					t.Fatalf("step %d session %d unmap %d of ino %d: batched %v, per call %v", step, si, i, ino, errs[i], err)
				}
				if err == nil {
					released++
				} else {
					refused++
				}
			}
		default: // a store through every write mapping of a real file
			for i, p := range call.data {
				if m := cs.ls.mapped[call.files[i].Ino]; m != nil && m.write {
					for _, s := range []*Session{cs, bs} {
						if err := s.AddressSpace().WriteU64(p, 8*(step%512), uint64(step)); err != nil {
							t.Fatalf("step %d: store: %v", step, err)
						}
						s.AddressSpace().Persist(p, 0, nvm.PageSize)
					}
					stores++
				}
			}
		}
		sameState(step)
	}
	for _, w := range []*batchTwin{call, batch} {
		for _, s := range w.sess {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		noWriteRefs(t, w.c)
		if checked, bad, first := w.c.VerifyAll(); bad != 0 {
			t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
		}
		// A record closed clean over a stored-to page would vouch for the
		// wrong content: the scrub is what finds it.
		if rep := w.c.ScrubAll(); rep.Mismatches != 0 {
			t.Fatalf("scrub: %+v", rep)
		}
	}
	sameState(-1)
	// A trace that grants or refuses nothing compares nothing.
	if granted < 100 || refused < 50 || released < 50 || stores < 20 {
		t.Fatalf("thin trace: %d grants, %d refusals, %d releases, %d stores", granted, refused, released, stores)
	}
	st := batch.c.Stats().Snapshot()
	t.Logf("%d grants, %d refusals, %d releases, %d stores; %d verifications, %d checkpoints",
		granted, refused, released, stores, st.VerifyCount, st.Checkpoints)
}

// TestBatchReapMidBatch: the session dies while its batch sleeps on a
// lease between two entries. The entry granted before the death is
// reclaimed by the reap like any mapping, the waiting entry and every
// later one get ErrSessionDead, and no reference outlives the session.
func TestBatchReapMidBatch(t *testing.T) {
	dev := nvm.MustNewDevice(smallCfg())
	c, err := New(dev, Options{LeaseTime: time.Hour}) // the holder's lease never runs out
	if err != nil {
		t.Fatal(err)
	}
	holder := c.Register(1000, 1000, 0, 1)
	victim := c.Register(1000, 1000, 0, 2)
	files := mkFiles(t, holder, "f", 3)
	unmapRoot(t, holder)
	held := asWrite(files)[1]
	if _, err := holder.MapFile(held.Ino, held.Loc, true); err != nil {
		t.Fatal(err)
	}

	reqs := []MapReq{asWrite(files)[0], held, files[2]}
	out := make([]MapRes, len(reqs))
	done := make(chan error, 1)
	go func() { done <- victim.MapFiles(reqs, out) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		c.lockAll()
		fs, _ := c.files.get(held.Ino)
		waiting := fs.waiters > 0
		c.unlockAll()
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the batch never reached the lease wait")
		}
	}
	victim.Abandon()
	if err := c.Reap(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wantErrs(t, "map", mapErrs(out), nil, ErrSessionDead, ErrSessionDead)

	errs := make([]error, len(reqs))
	if err := victim.UnmapFiles(inosOf(reqs), errs); err != nil {
		t.Fatal(err)
	}
	wantErrs(t, "unmap", errs, ErrSessionDead, ErrSessionDead, ErrSessionDead)
	if got := victim.ls.as.Mapped(); got != 0 {
		t.Errorf("reaped address space still maps %d pages", got)
	}
	if fs, _ := c.files.get(files[0].Ino); fs.writer != 0 {
		t.Errorf("the dead session is still the writer of entry 0's file")
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	noWriteRefs(t, c)
	if checked, bad, first := c.VerifyAll(); bad != 0 {
		t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
	}
}

// TestBatchLeaseWait: a cross-group write conflict in the middle of a
// batch is waited out — lease remainder, then forcible revocation of a
// holder with no recall handler — exactly as MapFile waits it out, and
// the entries around it are granted.
func TestBatchLeaseWait(t *testing.T) {
	for _, via := range []mapVia{viaSync, viaBatch} {
		t.Run(string(via), func(t *testing.T) {
			c, _ := newCtl(t, smallCfg()) // LeaseTime 5ms, RecallTimeout 10ms
			a := c.Register(1000, 1000, 0, 0)
			b := c.Register(1000, 1000, 0, 0)
			files := mkFiles(t, a, "f", 3)
			unmapRoot(t, a)
			reqs := []MapReq{files[0], asWrite(files)[1], files[2]}
			start := time.Now() // the holder's lease runs from its grant
			if _, err := a.MapFile(reqs[1].Ino, reqs[1].Loc, true); err != nil {
				t.Fatal(err)
			}

			st0 := c.Stats().Snapshot()
			out := make([]MapRes, len(reqs))
			if via == viaBatch {
				if err := b.MapFiles(reqs, out); err != nil {
					t.Fatal(err)
				}
			} else {
				for i, r := range reqs {
					var info *MapInfo
					if info, out[i].Err = b.MapFile(r.Ino, r.Loc, r.Write); out[i].Err == nil {
						out[i].Info = *info
					}
				}
			}
			elapsed := time.Since(start)
			wantErrs(t, "map", mapErrs(out), nil, nil, nil)
			if !out[1].Info.Write || out[0].Info.Write || out[2].Info.Write {
				t.Fatalf("grants: %+v", out)
			}
			if elapsed < c.opts.LeaseTime || elapsed > 2*time.Second {
				t.Fatalf("granted %v after the holder: the lease is %v", elapsed, c.opts.LeaseTime)
			}
			if st := c.Stats().Snapshot().Sub(st0); st.LeaseExpiries != 1 || st.ReapVerifies == 0 || st.Reaps != 0 {
				t.Fatalf("escalation: %+v", st)
			}
			if err := a.UnmapFile(reqs[1].Ino); !errors.Is(err, ErrRevoked) {
				t.Fatalf("holder unmap after revocation: %v", err)
			}
		})
	}
}

// TestBatchMapUnmapChurn: several sessions hammer batched windows over
// a shared set of files; every granted entry carries its own file's
// inode and maps readable content.
func TestBatchMapUnmapChurn(t *testing.T) {
	dev := nvm.MustNewDevice(smallCfg())
	c, err := New(dev, Options{LeaseTime: 5 * time.Millisecond, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	setup := c.Register(1000, 1000, 0, 0)
	files := mkFiles(t, setup, "churn", 6)
	unmapRoot(t, setup)

	const sessions, iters, window = 5, 100, 3
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		s := c.Register(2000, 2000, 0, 0)
		wg.Add(1)
		go func(g int, s *Session) {
			defer wg.Done()
			defer s.Close()
			as := s.AddressSpace()
			buf := make([]byte, 64)
			reqs, out, errs := make([]MapReq, window), make([]MapRes, window), make([]error, window)
			for i := 0; i < iters; i++ {
				for j := range reqs {
					reqs[j] = files[(g+i+j)%len(files)]
				}
				if err := s.MapFiles(reqs, out); err != nil {
					errCh <- err
					return
				}
				for j, r := range reqs {
					want := fmt.Sprintf("churn file %d", (g+i+j)%len(files))
					if out[j].Err != nil || out[j].Info.Inode.Ino != r.Ino || out[j].Info.Inode.Size != uint64(len(want)) {
						errCh <- fmt.Errorf("g%d iter %d entry %d: verdict %+v", g, i, j, out[j])
						return
					}
					p, err := core.IndexEntry(as, out[j].Info.Inode.Head, 0)
					if err == nil {
						err = as.Read(p, 0, buf[:len(want)])
					}
					if err != nil || string(buf[:len(want)]) != want {
						errCh <- fmt.Errorf("g%d iter %d entry %d: read %q: %v", g, i, j, buf[:len(want)], err)
						return
					}
				}
				if err := s.UnmapFiles(inosOf(reqs), errs); err != nil {
					errCh <- err
					return
				}
				if i := slices.IndexFunc(errs, func(e error) bool { return e != nil }); i >= 0 {
					errCh <- fmt.Errorf("g%d iter %d unmap %d: %w", g, i, i, errs[i])
					return
				}
			}
		}(g, s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := setup.Close(); err != nil {
		t.Fatalf("setup close: %v", err)
	}
}

// TestBatchWindowVerdicts: a full window of maps, then of unmaps, round
// after round; verdict i always belongs to request i.
func TestBatchWindowVerdicts(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	setup := c.Register(1000, 1000, 0, 0)
	files := make([]MapReq, 8)
	for i := range files {
		files[i].Ino, files[i].Loc = mkFile(t, setup, fmt.Sprintf("a%d", i), make([]byte, i+1))
	}
	unmapRoot(t, setup)

	s := c.Register(2000, 2000, 0, 0)
	defer s.Close()
	out, errs := make([]MapRes, len(files)), make([]error, len(files))
	for round := 0; round < 50; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
		if err := s.MapFiles(files, out); err != nil {
			t.Fatal(err)
		}
		for i, f := range files {
			if out[i].Err != nil || out[i].Info.Ino != f.Ino || out[i].Info.Loc != f.Loc {
				t.Fatalf("round %d: verdict %d is %+v for request %+v", round, i, out[i], f)
			}
		}
		if err := s.UnmapFiles(inosOf(files), errs); err != nil {
			t.Fatal(err)
		}
		wantErrs(t, "unmap", errs, make([]error, len(files))...)
	}
}

// TestBatchWriteSemantics: writers of distinct trust groups contend for
// one file through batches that also carry an uncontended entry; every
// batch waits its turn and comes back with a write grant.
func TestBatchWriteSemantics(t *testing.T) {
	dev := nvm.MustNewDevice(smallCfg())
	c, err := New(dev, Options{LeaseTime: 5 * time.Millisecond, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	setup := c.Register(1000, 1000, 0, 0)
	files := mkFiles(t, setup, "w", 2)
	unmapRoot(t, setup)
	if err := setup.Close(); err != nil {
		t.Fatal(err)
	}
	reqs := []MapReq{files[0], asWrite(files)[1]}

	const writers, iters = 4, 40
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for g := 0; g < writers; g++ {
		s := c.Register(1000, 1000, 0, GroupID(g+1)) // distinct groups: real conflicts
		wg.Add(1)
		go func(g int, s *Session) {
			defer wg.Done()
			defer s.Close()
			out, errs := make([]MapRes, len(reqs)), make([]error, len(reqs))
			for i := 0; i < iters; i++ {
				if err := s.MapFiles(reqs, out); err != nil {
					errCh <- err
					return
				}
				if out[0].Err != nil || out[1].Err != nil || !out[1].Info.Write {
					errCh <- fmt.Errorf("writer %d iter %d: verdicts %+v", g, i, out)
					return
				}
				if err := s.UnmapFiles(inosOf(reqs), errs); err != nil {
					errCh <- err
					return
				}
				// A holder descheduled past its lease is revoked: legal.
				if errs[0] != nil || (errs[1] != nil && !errors.Is(errs[1], ErrRevoked)) {
					errCh <- fmt.Errorf("writer %d iter %d: unmap verdicts %v", g, i, errs)
					return
				}
			}
		}(g, s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	noWriteRefs(t, c)
}
