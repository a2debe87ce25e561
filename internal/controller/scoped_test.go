package controller

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"trio/internal/core"
	"trio/internal/nvm"
)

// Coverage for verification scoped by dirty metadata (ISSUE 23,
// DESIGN.md §5a): index pages nobody stored to since their last clean
// walk keep the facts that walk proved, a grant is built from the
// recorded page set, and the checkpoint keeps its images.

// TestRollbackRestoresDirentName: a LibFS that write-maps a shared
// regular file can store to the file's own dirent slot — the inode lives
// there — and so to its name. The checkpoint used to hold the inode
// alone: the rollback left the scribbled name in place, its
// re-verification failed I1, and the file ended quarantined to the
// attacker with the parent directory unverifiable — a one-store denial
// of a shared file where §4.3 promises rollback.
func TestRollbackRestoresDirentName(t *testing.T) {
	scribbles := map[string][]byte{
		"slash":         append([]byte{3, 0}, "a/b"...),
		"over-long len": {0xff, 0xff},
	}
	for name, raw := range scribbles {
		t.Run(name, func(t *testing.T) {
			c, _ := newCtl(t, smallCfg())
			a := c.Register(1000, 1000, 0, 1)
			b := c.Register(1000, 1000, 0, 2)
			ino, loc := mkFile(t, a, "victim", []byte("shared data"))
			if err := a.UnmapFile(core.RootIno); err != nil {
				t.Fatal(err)
			}
			if _, err := a.MapFile(ino, loc, true); err != nil {
				t.Fatal(err)
			}
			if err := a.AddressSpace().Write(loc.Page, core.SlotOffset(loc.Slot)+core.DirentNameLenOff, raw); err != nil {
				t.Fatal(err)
			}
			st0 := c.Stats().Snapshot()
			if err := a.UnmapFile(ino); err != nil {
				t.Fatalf("attacker unmap: %v", err)
			}
			if st := c.Stats().Snapshot().Sub(st0); st.Corruptions != 1 || st.Rollbacks != 1 {
				t.Fatalf("verdict: %d corruptions, %d rollbacks, want 1 and 1", st.Corruptions, st.Rollbacks)
			}
			if got, err := core.ReadDirentName(c.mem, loc.Page, loc.Slot); err != nil || got != "victim" {
				t.Fatalf("name after rollback = %q, %v; want \"victim\"", got, err)
			}
			if _, err := b.MapFile(ino, loc, false); err != nil {
				t.Fatalf("the other domain cannot map the rolled-back file: %v", err)
			}
			if checked, bad, first := c.VerifyAll(); bad != 0 {
				t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
			}
		})
	}
}

// scopedStats is the slice of the counters these tests read.
type scopedStats struct{ scoped, full, indexReads, checkpoints, corruptions int64 }

func scopedDelta(c *Controller, since Snapshot) scopedStats {
	d := c.Stats().Snapshot().Sub(since)
	return scopedStats{d.VerifyScoped, d.VerifyFull, d.IndexPagesRead, d.Checkpoints, d.Corruptions}
}

// TestScopedHandover walks one 2 MiB file through every transition of
// the facts: absent, established by a full walk, carried over by
// overwrite handovers (no index page read by verification, grant or
// checkpoint), lost to an index store, withheld from a stacked
// same-group writer, and gone after recovery — with the rollback of a
// corrupted index page restoring it from images the checkpoint kept
// rather than read.
func TestScopedHandover(t *testing.T) {
	handoverModes(t, func(t *testing.T, c *Controller, via mapVia) {
		a := c.Register(1000, 1000, 0, 1)
		a2 := c.Register(1000, 1000, 0, 1) // a's trust group
		b := c.Register(1000, 1000, 0, 2)
		ino, loc := mkBigFile(t, a, "shared", handoverPages)
		index, data := filePages(t, c, loc)
		buf := make([]byte, nvm.PageSize)

		// handover maps for s, runs store, unmaps, and returns the grant's
		// generation with the counters the handover moved.
		handover := func(s *Session, store func()) (uint64, scopedStats) {
			t.Helper()
			st0 := c.Stats().Snapshot()
			info, err := via.mapFile(s, ino, loc, true)
			if err != nil {
				t.Fatal(err)
			}
			if store != nil {
				store()
			}
			if err := via.unmapFile(s, ino); err != nil {
				t.Fatal(err)
			}
			return info.Gen, scopedDelta(c, st0)
		}
		overwrite := func(s *Session, i int) func() {
			return func() {
				fillPage(buf, uint64(9000+i))
				if err := s.AddressSpace().Write(data[i], 0, buf); err != nil {
					t.Fatal(err)
				}
				s.AddressSpace().Persist(data[i], 0, nvm.PageSize)
			}
		}

		// Fresh from adoption nothing is vouched for: the grant walks, the
		// unmap walks, and that walk establishes the facts.
		gen, st := handover(b, overwrite(b, 3))
		if gen != 0 || st.scoped != 0 || st.full != 1 || st.indexReads == 0 {
			t.Fatalf("first handover: gen %d, %+v; want gen 0 and a full walk", gen, st)
		}
		// The next grant is built from the recorded set and vouches for
		// it; its checkpoint has no images to take back yet.
		g1, st := handover(a, overwrite(a, 4))
		if g1 == 0 || st.scoped != 1 || st.full != 0 || st.indexReads != int64(len(index)) {
			t.Fatalf("second handover: gen %d, %+v; want a generation, a scoped verification, %d checkpoint reads", g1, st, len(index))
		}
		// Steady state: same generation, nothing read, still one report
		// and one checkpoint per handover.
		for i, s := range []*Session{b, a, b} {
			gen, st = handover(s, overwrite(s, 10+i))
			if want := (scopedStats{scoped: 1, checkpoints: 1}); gen != g1 || st != want {
				t.Fatalf("steady handover %d: gen %d (want %d), %+v (want %+v)", i, gen, g1, st, want)
			}
		}

		// Between grants the controller holds exactly this file's chain.
		if kept := c.Stats().Snapshot().KeptIndexPages; kept != int64(len(index)) {
			t.Fatalf("kept index-page images = %d, want the chain's %d", kept, len(index))
		}

		// Rollback from kept images: the checkpoint of this grant read no
		// page, and must still restore the index page byte for byte.
		want := slices.Clone(c.dev.Page(index[0]))
		_, st = handover(a, func() {
			if err := core.SetIndexEntry(a.AddressSpace(), index[0], 5, nvm.PageID(1)<<40); err != nil {
				t.Fatal(err)
			}
		})
		if st.corruptions != 1 || !bytes.Equal(c.dev.Page(index[0]), want) {
			t.Fatalf("corrupted index page: %+v, restored = %v", st, bytes.Equal(c.dev.Page(index[0]), want))
		}
		if checked, bad, first := c.VerifyAll(); bad != 0 {
			t.Fatalf("VerifyAll after rollback: %d of %d bad: %s", bad, checked, first)
		}
		// The rollback's re-verification was a full walk of the restored
		// state: a new generation, vouched for again.
		g2, st := handover(b, overwrite(b, 20))
		if g2 == 0 || g2 == g1 || st.scoped != 1 {
			t.Fatalf("after rollback: gen %d (was %d), %+v", g2, g1, st)
		}

		// A store to an index page — even one that changes nothing — costs
		// the facts: this unmap walks, and re-establishes them.
		first, err := core.IndexEntry(c.mem, index[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		clear0 := c.Stats().fullWhy[scopeFactsClear].Load()
		gen, st = handover(a, func() {
			if err := core.SetIndexEntry(a.AddressSpace(), index[1], 0, first); err != nil {
				t.Fatal(err)
			}
		})
		if got := c.Stats().fullWhy[scopeFactsClear].Load() - clear0; gen != g2 || st.full != 1 || got != 1 {
			t.Fatalf("index store: gen %d, %+v, facts_clear reason +%d", gen, st, got)
		}
		g3, st := handover(b, nil)
		if g3 == 0 || g3 == g2 || st.scoped != 1 {
			t.Fatalf("after the index store: gen %d (was %d), %+v", g3, g2, st)
		}

		// A stacked same-group writer is vouched nothing (it could be
		// racing the first holder's stores), and the first holder's
		// release walks because somebody else can store to the index.
		if info, err := via.mapFile(a, ino, loc, true); err != nil || info.Gen != g3 {
			t.Fatalf("first holder: %v, gen %v", err, info)
		}
		if info, err := via.mapFile(a2, ino, loc, true); err != nil || info.Gen != 0 {
			t.Fatalf("stacked writer: %v, gen %v; want 0", err, info)
		}
		st0 := c.Stats().Snapshot()
		if err := via.unmapFile(a, ino); err != nil {
			t.Fatal(err)
		}
		if st := scopedDelta(c, st0); st.full != 1 || c.Stats().fullWhy[scopeOtherWriter].Load() != 1 {
			t.Fatalf("release under a co-holder: %+v, other_writer reason %d", st, c.Stats().fullWhy[scopeOtherWriter].Load())
		}
		if err := via.unmapFile(a2, ino); err != nil {
			t.Fatal(err)
		}

		// The facts are volatile: recovery forgets them wholesale.
		if g, _ := handover(b, nil); g == 0 {
			t.Fatal("no generation before recovery")
		}
		c.Recover(nil)
		gen, st = handover(a, nil)
		if gen != 0 || st.full != 1 {
			t.Fatalf("after Recover: gen %d, %+v; want 0 and a full walk", gen, st)
		}

		// A moved Head is the verifier's to notice: it reads the inode.
		handover(b, nil)
		gen, _ = handover(a, func() {
			if err := core.UpdateInodeHead(a.AddressSpace(), loc, nvm.NilPage); err != nil {
				t.Fatal(err)
			}
		})
		if gen == 0 || c.Stats().fullWhy[scopeHeadMoved].Load() != 1 {
			t.Fatalf("head move: gen %d, head_moved reason %d", gen, c.Stats().fullWhy[scopeHeadMoved].Load())
		}
		if checked, bad, first := c.VerifyAll(); bad != 0 {
			t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
		}
		if rep := c.ScrubAll(); rep.Mismatches != 0 {
			t.Fatalf("scrub: %+v", rep)
		}
	})
}

// scopedWorld is a small shared file — two index pages, a few data
// pages — that went through one full-walk handover, so its facts hold
// and b's next write grant is vouched for.
type scopedWorld struct {
	c       *Controller
	a, b    *Session
	ino     core.Ino
	loc     core.FileLoc
	targets []nvm.PageID // the dirent page, the index pages, the data pages
}

func newScopedWorld(t testing.TB) *scopedWorld {
	t.Helper()
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 256})
	c, err := New(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	w := &scopedWorld{c: c, a: c.Register(1000, 1000, 0, 1), b: c.Register(1000, 1000, 0, 2)}
	w.ino, w.loc, w.targets = mkSparseFile(t, w.a)
	if _, err := w.b.MapFile(w.ino, w.loc, true); err != nil {
		t.Fatal(err)
	}
	if err := w.b.UnmapFile(w.ino); err != nil {
		t.Fatal(err)
	}
	return w
}

// mkSparseFile installs, through s, a sparse regular file under the root —
// two index pages, two blocks under each — and returns its pages: the
// dirent page, the index pages, the data pages. It gives the root an index
// and a dirent page when it has none. Root is unmapped on return.
func mkSparseFile(t testing.TB, s *Session) (core.Ino, core.FileLoc, []nvm.PageID) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	as := s.AddressSpace()
	info, err := s.MapFile(core.RootIno, core.RootLoc(), true)
	must(err)
	fresh := 6
	if info.Inode.Head == nvm.NilPage {
		fresh += 2
	}
	pages, err := s.AllocPages(0, fresh)
	must(err)
	zero := make([]byte, nvm.PageSize)
	for _, p := range pages {
		must(as.Write(p, 0, zero))
		must(as.Persist(p, 0, nvm.PageSize))
	}
	if info.Inode.Head == nvm.NilPage {
		must(core.SetIndexEntry(as, pages[0], 0, pages[1]))
		must(core.UpdateInodeHead(as, core.RootLoc(), pages[0]))
		info.Inode.Head, pages = pages[0], pages[1:]
	} else {
		direntPage, err := core.IndexEntry(as, info.Inode.Head, 0)
		must(err)
		pages = append([]nvm.PageID{direntPage}, pages...)
	}
	direntPage, index, data := pages[0], pages[1:3], pages[3:7]
	slot := -1
	for i := 0; i < core.SlotsPerDirPage && slot < 0; i++ {
		if ino, err := core.DirentIno(as, direntPage, i); err == nil && ino == 0 {
			slot = i
		}
	}
	if slot < 0 {
		t.Fatal("root dirent page full")
	}
	// A sparse file: two blocks under each index page.
	must(core.SetIndexEntry(as, index[0], 0, data[0]))
	must(core.SetIndexEntry(as, index[0], 7, data[1]))
	must(core.SetNextIndexPage(as, index[0], index[1]))
	must(core.SetIndexEntry(as, index[1], 1, data[2]))
	must(core.SetIndexEntry(as, index[1], 2, data[3]))
	inos, err := s.AllocInos(0, 1)
	must(err)
	in := core.Inode{Ino: inos[0], Type: core.TypeReg, Mode: 0o666, UID: 1000, GID: 1000,
		Size: 8 * nvm.PageSize, Head: index[0]} // sparse; the verifier bounds size by the device only
	loc := core.FileLoc{Page: direntPage, Slot: slot}
	must(core.WriteInodeBody(as, direntPage, core.SlotOffset(slot), &in))
	must(core.WriteDirentName(as, direntPage, slot, "data.bin"))
	as.Fence()
	must(core.CommitDirentIno(as, direntPage, slot, in.Ino))
	must(s.UnmapFile(core.RootIno))
	return in.Ino, loc, pages
}

// TestKeptImagesLevel: Stats.KeptPages is the number of index-page
// images the controller holds between write grants — a file's chain once
// a vouched-for grant has cut them, none while a grant has taken them
// back, none once the file is forgotten.
func TestKeptImagesLevel(t *testing.T) {
	w := newScopedWorld(t)
	c, chain := w.c, int64(2)
	kept := func() int64 { return c.Stats().Snapshot().KeptIndexPages }
	if kept() != 0 {
		t.Fatalf("kept = %d before any vouched-for grant", kept())
	}
	if _, err := w.b.MapFile(w.ino, w.loc, true); err != nil {
		t.Fatal(err)
	}
	if err := w.b.UnmapFile(w.ino); err != nil {
		t.Fatal(err)
	}
	if kept() != chain {
		t.Fatalf("kept = %d after a scoped handover, want the chain's %d", kept(), chain)
	}
	if _, err := w.a.MapFile(w.ino, w.loc, true); err != nil {
		t.Fatal(err)
	}
	if kept() != 0 {
		t.Fatalf("kept = %d while the grant holds the images as its checkpoint", kept())
	}
	if err := w.a.UnmapFile(w.ino); err != nil {
		t.Fatal(err)
	}
	c.lockAll()
	fs := c.fileOf(w.ino)
	c.forgetFileLocked(w.a.ls, fs)
	c.unlockAll()
	if kept() != 0 {
		t.Fatalf("kept = %d for a forgotten file", kept())
	}
}

// TestFreeBoundPageVoidsFacts: FreePages of a page bound into a
// write-mapped file shrinks the recorded page set with no store to any
// index page — no dirty bit, no facts bit cleared. The release must walk
// all the same: an honest truncate (entry cleared, then freed) commits
// the smaller file under a new generation, and a free that leaves the
// entry in place is caught as the I2 violation it is and pinned on the
// freer, never carried over as "index clean" with the file still naming
// a page the allocator will hand to somebody else.
func TestFreeBoundPageVoidsFacts(t *testing.T) {
	for _, honest := range []bool{true, false} {
		t.Run(map[bool]string{true: "truncate", false: "dangling-reference"}[honest], func(t *testing.T) {
			w := newScopedWorld(t)
			c, b := w.c, w.b
			index, victim := w.targets[1], w.targets[3] // index[0] entry 0 → data[0]
			info, err := b.MapFile(w.ino, w.loc, true)
			if err != nil || info.Gen == 0 {
				t.Fatalf("write grant: %v, %+v; want a vouched-for generation", err, info)
			}
			if honest {
				if err := core.SetIndexEntry(b.AddressSpace(), index, 0, nvm.NilPage); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.FreePages([]nvm.PageID{victim}); err != nil {
				t.Fatal(err)
			}
			st0 := c.Stats().Snapshot()
			clear0 := c.Stats().fullWhy[scopeFactsClear].Load()
			if err := b.UnmapFile(w.ino); err != nil {
				t.Fatal(err)
			}
			st := scopedDelta(c, st0)
			if st.scoped != 0 || c.Stats().fullWhy[scopeFactsClear].Load() == clear0 {
				t.Fatalf("release after FreePages of a bound page did not walk: %+v", st)
			}
			c.lockAll()
			fs := c.fileOf(w.ino)
			quarantined, inSet := fs.quarantined, runsFind(fs.pages, victim) >= 0
			c.unlockAll()
			if honest {
				if st.corruptions != 0 || quarantined != 0 || inSet {
					t.Fatalf("honest truncate: %+v, quarantined to %d, freed page still recorded: %v", st, quarantined, inSet)
				}
				// (Zero is fine: the voided chain left the truncate's own dirty
				// bit for the release to harvest, so the next handover walks.)
				if next, err := w.a.MapFile(w.ino, w.loc, true); err != nil || next.Gen == info.Gen {
					t.Fatalf("grant after the truncate: %v, gen %d (was %d); want another generation", err, next.Gen, info.Gen)
				}
				if checked, bad, first := c.VerifyAll(); bad != 0 {
					t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
				}
				return
			}
			// Caught at this release and pinned on the freer, one of two ways,
			// as before there were facts to carry over. The freed page is the
			// allocator's and no checkpoint holds it, so the rollback's
			// re-verification fails and the file ends private to the freer —
			// unless the rollback's preserve step happened to draw that very
			// page back into the freer's pool, where the walk rebinds it.
			if st.corruptions != 1 {
				t.Fatalf("dangling reference: %+v; want one corruption", st)
			}
			_, err = w.a.MapFile(w.ino, w.loc, true)
			switch {
			case quarantined == b.ID() && errors.Is(err, ErrQuarantined):
			case quarantined == 0 && err == nil:
				if checked, bad, first := c.VerifyAll(); bad != 0 {
					t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
				}
			default:
				t.Fatalf("quarantined to %d (the freer is %d), the other domain's map: %v", quarantined, b.ID(), err)
			}
		})
	}
}
