package controller

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// Coverage for the write-set-proportional handover (ISSUE 15): the
// unmap-time seal closes a record with the CRC it carried into the grant
// when the MMU dirty bits say nobody stored to the page, and streams
// only the rest.

const handoverPages = 512 // a 2 MiB file: two index pages, 512 data pages

func handoverCfg() nvm.Config { return nvm.Config{Nodes: 1, PagesPerNode: 4096} }

// handoverModes runs fn with its handovers issued per call and as
// one-entry batches; the seal is the same code under both.
func handoverModes(t *testing.T, fn func(t *testing.T, c *Controller, via mapVia)) {
	for _, via := range []mapVia{viaSync, viaBatch} {
		t.Run(string(via), func(t *testing.T) {
			dev := nvm.MustNewDevice(handoverCfg())
			c, err := New(dev, Options{LeaseTime: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			fn(t, c, via)
		})
	}
}

// mkBigFile is mkFile for files of more than one index page: nData
// pages, page i filled with a pattern of i. Root is unmapped on return,
// so the file is adopted and every page sealed.
func mkBigFile(t testing.TB, s *Session, name string, nData int) (core.Ino, core.FileLoc) {
	t.Helper()
	as := s.AddressSpace()
	if _, err := s.MapFile(core.RootIno, core.RootLoc(), true); err != nil {
		t.Fatalf("map root: %v", err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	zero := make([]byte, nvm.PageSize)
	root, err := core.ReadDirentInode(as, core.RootInodePage, 0)
	must(err)
	if root.Head == nvm.NilPage {
		pages, err := s.AllocPages(0, 2)
		must(err)
		must(as.Write(pages[0], 0, zero))
		must(as.Write(pages[1], 0, zero))
		must(core.SetIndexEntry(as, pages[0], 0, pages[1]))
		root.Head = pages[0]
		must(core.WriteInode(as, core.RootInodePage, core.SlotOffset(0), &root))
		as.Fence()
	}
	direntPage, err := core.IndexEntry(as, root.Head, 0)
	must(err)
	slot := -1
	for i := 0; i < core.SlotsPerDirPage && slot < 0; i++ {
		ino, err := core.DirentIno(as, direntPage, i)
		must(err)
		if ino == 0 {
			slot = i
		}
	}
	if slot < 0 {
		t.Fatal("root dirent page full")
	}

	nIndex := (nData + core.IndexEntriesPerPage - 1) / core.IndexEntriesPerPage
	pages, err := s.AllocPages(0, nIndex+nData)
	must(err)
	index, data := pages[:nIndex], pages[nIndex:]
	for i, ip := range index {
		must(as.Write(ip, 0, zero))
		if i > 0 {
			must(core.SetNextIndexPage(as, index[i-1], ip))
		}
	}
	buf := make([]byte, nvm.PageSize)
	for i, dp := range data {
		fillPage(buf, uint64(i))
		must(as.Write(dp, 0, buf))
		must(as.Persist(dp, 0, nvm.PageSize))
		must(core.SetIndexEntry(as, index[i/core.IndexEntriesPerPage], i%core.IndexEntriesPerPage, dp))
	}
	inos, err := s.AllocInos(0, 1)
	must(err)
	uid, gid := s.Cred()
	in := core.Inode{
		Ino: inos[0], Type: core.TypeReg, Mode: 0o666, UID: uid, GID: gid,
		Size: uint64(nData) * nvm.PageSize, Head: index[0],
	}
	must(core.WriteInodeBody(as, direntPage, core.SlotOffset(slot), &in))
	must(core.WriteDirentName(as, direntPage, slot, name))
	as.Fence()
	must(core.CommitDirentIno(as, direntPage, slot, in.Ino))
	must(s.UnmapFile(core.RootIno))
	return in.Ino, core.FileLoc{Page: direntPage, Slot: slot}
}

func fillPage(buf []byte, v uint64) {
	for off := 0; off < len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], v*0x9E3779B97F4A7C15+uint64(off))
	}
}

// sealCounts reads the two seal counters.
func sealCounts(c *Controller) (clean, streamed int64) {
	st := c.Stats().Snapshot()
	return st.SealCleanPages, st.SealStreamedPages
}

// checkSealed requires every page of the file (and its dirent page) to
// carry a sealed record whose CRC is the CRC of the page's content.
func checkSealed(t *testing.T, c *Controller, loc core.FileLoc) {
	t.Helper()
	index, data := filePages(t, c, loc)
	total := c.dev.NumPages()
	buf := make([]byte, nvm.PageSize)
	for _, p := range append(append([]nvm.PageID{loc.Page}, index...), data...) {
		rec, err := core.LoadChecksum(c.mem, total, p)
		if err != nil {
			t.Fatal(err)
		}
		if !core.ChecksumSealed(rec) {
			t.Fatalf("page %d: record not sealed (seq %d)", p, core.ChecksumSeq(rec))
		}
		if err := c.mem.Read(p, 0, buf); err != nil {
			t.Fatal(err)
		}
		if got := core.PageCRC(buf); got != core.ChecksumCRC(rec) {
			t.Fatalf("page %d: sealed CRC %08x, content CRC %08x", p, core.ChecksumCRC(rec), got)
		}
	}
}

// TestHandoverStreamsOnlyWrittenPages is the deterministic count: one
// 4 KiB overwrite handover of a sealed 2 MiB file streams the data page
// (plus the dirent page when the inode is touched) and closes every
// other record clean; a handover that stores nothing streams nothing.
func TestHandoverStreamsOnlyWrittenPages(t *testing.T) {
	handoverModes(t, func(t *testing.T, c *Controller, via mapVia) {
		a := c.Register(1000, 1000, 0, 1)
		b := c.Register(1000, 1000, 0, 2)
		ino, loc := mkBigFile(t, a, "shared", handoverPages)
		checkSealed(t, c, loc)
		index, data := filePages(t, c, loc)
		granted := int64(1 + len(index) + len(data))
		buf := make([]byte, nvm.PageSize)

		handover := func(s *Session, store func()) (clean, streamed int64) {
			t.Helper()
			c0, s0 := sealCounts(c)
			if _, err := via.mapFile(s, ino, loc, true); err != nil {
				t.Fatal(err)
			}
			store()
			if err := via.unmapFile(s, ino); err != nil {
				t.Fatal(err)
			}
			checkSealed(t, c, loc)
			c1, s1 := sealCounts(c)
			return c1 - c0, s1 - s0
		}

		// Nothing stored: nothing streamed.
		if clean, streamed := handover(b, func() {}); streamed != 0 || clean != granted {
			t.Fatalf("idle handover: %d clean, %d streamed; want %d, 0", clean, streamed, granted)
		}
		// One data page.
		clean, streamed := handover(a, func() {
			fillPage(buf, 7001)
			if err := a.AddressSpace().Write(data[17], 0, buf); err != nil {
				t.Fatal(err)
			}
			a.AddressSpace().Persist(data[17], 0, nvm.PageSize)
		})
		if streamed != 1 || clean != granted-1 {
			t.Fatalf("data-page handover: %d clean, %d streamed; want %d, 1", clean, streamed, granted-1)
		}
		// A data page through a delegation view plus the inode's mtime —
		// what a LibFS overwrite does: data page and dirent page.
		clean, streamed = handover(b, func() {
			as := b.AddressSpace()
			fillPage(buf, 7002)
			if err := as.View(0).WriteRange(data[300], 0, buf); err != nil {
				t.Fatal(err)
			}
			as.Persist(data[300], 0, nvm.PageSize)
			if err := core.UpdateInodeSizeMtime(as, loc, handoverPages*nvm.PageSize, 12345); err != nil {
				t.Fatal(err)
			}
		})
		if streamed != 2 || clean != granted-2 {
			t.Fatalf("overwrite handover: %d clean, %d streamed; want %d, 2", clean, streamed, granted-2)
		}
		if rep := c.ScrubAll(); rep.Mismatches != 0 {
			t.Fatalf("scrub after handovers: %+v", rep)
		}
	})
}

// TestCleanCloseKeepsPreGrantCRC: a bit that rots in a page the writer
// never touches, while the file is write-mapped, used to be blessed by
// the reseal-from-content at unmap. The clean close carries the
// pre-grant CRC instead, so the scrub after the unmap reports it.
func TestCleanCloseKeepsPreGrantCRC(t *testing.T) {
	dev := nvm.MustNewDevice(handoverCfg())
	c, err := New(dev, Options{LeaseTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := c.Register(1000, 1000, 0, 1)
	b := c.Register(1000, 1000, 0, 2)
	ino, loc := mkBigFile(t, a, "rot", handoverPages)
	_, data := filePages(t, c, loc)

	if _, err := b.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	dev.Page(data[400])[1234] ^= 0x10 // media rot, not a store
	buf := make([]byte, nvm.PageSize)
	fillPage(buf, 99)
	if err := b.AddressSpace().Write(data[3], 0, buf); err != nil {
		t.Fatal(err)
	}
	b.AddressSpace().Persist(data[3], 0, nvm.PageSize)
	if err := b.UnmapFile(ino); err != nil {
		t.Fatal(err)
	}

	if got := c.Stats().Snapshot().ScrubDetected; got != 0 {
		t.Fatalf("ScrubDetected = %d before the scrub", got)
	}
	rep := c.ScrubAll()
	if rep.Mismatches != 1 {
		t.Fatalf("scrub after unmap: %+v; want exactly one mismatch (the rotted page)", rep)
	}
	// The mismatch is the flipped page: its file is the one poisoned.
	if fs := c.fileOf(ino); fs == nil || !fs.corrupt {
		t.Fatal("the rotted file was not quarantined")
	}
	rec, err := core.LoadChecksum(c.mem, dev.NumPages(), data[3])
	if err != nil {
		t.Fatal(err)
	}
	if !core.ChecksumSealed(rec) || core.ChecksumCRC(rec) != core.PageCRC(buf) {
		t.Fatal("the stored-to page was not resealed from its new content")
	}
}

// TestUnharvestedTeardownResealsFromContent: a session torn down without
// its dirty bits being collected — Abandon + Reap in the middle of a
// write window — leaves no page clean, so a stored-to page can never be
// closed with its stale pre-grant CRC by the next handover. The
// cooperative Close harvests like any unmap.
func TestUnharvestedTeardownResealsFromContent(t *testing.T) {
	for _, teardown := range []string{"abandon+reap", "close"} {
		t.Run(teardown, func(t *testing.T) {
			dev := nvm.MustNewDevice(handoverCfg())
			c, err := New(dev, Options{LeaseTime: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			a := c.Register(1000, 1000, 0, 1)
			b := c.Register(1000, 1000, 0, 2)
			ino, loc := mkBigFile(t, a, "torn", 64)
			index, data := filePages(t, c, loc)
			granted := int64(1 + len(index) + len(data))

			if _, err := a.MapFile(ino, loc, true); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, nvm.PageSize)
			fillPage(buf, 4242)
			if err := a.AddressSpace().Write(data[9], 0, buf); err != nil {
				t.Fatal(err)
			}
			a.AddressSpace().Persist(data[9], 0, nvm.PageSize)

			_, s0 := sealCounts(c)
			switch teardown {
			case "abandon+reap":
				a.Abandon()
				if err := c.Reap(a.ID()); err != nil {
					t.Fatal(err)
				}
				// The reaper seals nothing; every record the dead session
				// could store through stays open and not clean.
				for _, p := range data {
					if c.cleanOpen[p] {
						t.Fatalf("page %d still clean after an unharvested teardown", p)
					}
				}
			case "close":
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				checkSealed(t, c, loc)
			}

			// The next domain's idle handover must not close data[9] with
			// the CRC it had before a stored to it.
			if _, err := b.MapFile(ino, loc, true); err != nil {
				t.Fatal(err)
			}
			if err := b.UnmapFile(ino); err != nil {
				t.Fatal(err)
			}
			checkSealed(t, c, loc)
			_, s1 := sealCounts(c)
			want := int64(1) // close: the one stored-to page
			if teardown == "abandon+reap" {
				want = granted // reap: every write-mapped page, from content
			}
			if s1-s0 != want {
				t.Fatalf("streamed %d pages across teardown and the next handover, want %d", s1-s0, want)
			}
			if rep := c.ScrubAll(); rep.Mismatches != 0 {
				t.Fatalf("scrub: %+v", rep)
			}
		})
	}
}

// TestHandoverSealProperty drives seeded random handovers — two trust
// groups, two same-group writers holding the file together, stores
// through the direct and the delegated path, appends that grow the file
// — against a model of which pages were stored to since their last
// seal. After every UnmapFile the seal must have streamed exactly the
// modelled pages (stored to, or never sealed) among those it could
// seal, and whenever no writer remains every page of the file carries a
// sealed record matching its content.
func TestHandoverSealProperty(t *testing.T) {
	handoverModes(t, func(t *testing.T, c *Controller, via mapVia) {
		for seed := int64(1); seed <= 3; seed++ {
			runHandoverProperty(t, c, via, seed)
		}
	})
}

type propActor struct {
	s     *Session
	group int
	held  bool
	pages map[nvm.PageID]bool // pages this actor's mapping write-maps
}

func runHandoverProperty(t *testing.T, c *Controller, via mapVia, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	actors := []*propActor{
		{s: c.Register(1000, 1000, 0, 1), group: 1},
		{s: c.Register(1000, 1000, 0, 1), group: 1},
		{s: c.Register(1000, 1000, 0, 2), group: 2},
	}
	ino, loc := mkBigFile(t, actors[0].s, fmt.Sprintf("prop%d", seed), 40)
	nData := 40
	dirty := map[nvm.PageID]bool{} // stored to since the page's last seal
	buf := make([]byte, nvm.PageSize)

	holders := func() (n int, group int) {
		for _, a := range actors {
			if a.held {
				n++
				group = a.group
			}
		}
		return
	}
	// unmap releases a's mapping and checks the seal against the model:
	// it covers the pages nobody else still maps, and streams the dirty
	// ones among them.
	unmap := func(a *propActor, step int) {
		t.Helper()
		want := int64(0)
	pages:
		for p := range a.pages {
			for _, o := range actors {
				if o != a && o.held && o.pages[p] {
					continue pages
				}
			}
			if dirty[p] {
				want++
				delete(dirty, p)
			}
		}
		_, s0 := sealCounts(c)
		if err := via.unmapFile(a.s, ino); err != nil {
			t.Fatalf("seed %d step %d: unmap: %v", seed, step, err)
		}
		_, s1 := sealCounts(c)
		if s1-s0 != want {
			t.Fatalf("seed %d step %d: seal streamed %d pages, model says %d", seed, step, s1-s0, want)
		}
		a.held, a.pages = false, nil
		if n, _ := holders(); n == 0 {
			checkSealed(t, c, loc)
		}
	}
	for step := 0; step < 400; step++ {
		a := actors[rng.Intn(len(actors))]
		n, g := holders()
		switch {
		case !a.held:
			if n > 0 && g != a.group {
				continue // would wait out a lease; the driver never blocks
			}
			if _, err := via.mapFile(a.s, ino, loc, true); err != nil {
				t.Fatalf("seed %d step %d: map: %v", seed, step, err)
			}
			index, data := filePages(t, c, loc)
			a.held, a.pages = true, map[nvm.PageID]bool{loc.Page: true}
			for _, p := range append(index, data...) {
				a.pages[p] = true
			}

		case n == 1 && rng.Intn(8) == 0:
			// Append one page, then hand the file back at once: until the
			// appender's own unmap binds the page, a co-holder's
			// verification would not find it in its pool.
			as := a.s.AddressSpace()
			pages, err := a.s.AllocPages(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			np := pages[0]
			fillPage(buf, uint64(seed)<<32|uint64(step))
			if err := as.Write(np, 0, buf); err != nil {
				t.Fatal(err)
			}
			as.Persist(np, 0, nvm.PageSize)
			index, _ := filePages(t, c, loc)
			ip := index[nData/core.IndexEntriesPerPage]
			if err := core.SetIndexEntry(as, ip, nData%core.IndexEntriesPerPage, np); err != nil {
				t.Fatal(err)
			}
			nData++
			if err := core.UpdateInodeSizeMtime(as, loc, uint64(nData)*nvm.PageSize, uint64(step)); err != nil {
				t.Fatal(err)
			}
			a.pages[np] = true
			dirty[np], dirty[ip], dirty[loc.Page] = true, true, true
			unmap(a, step)

		case rng.Intn(4) == 0:
			unmap(a, step)

		default:
			// Overwrite one data page, directly or through a view.
			_, data := filePages(t, c, loc)
			p := data[rng.Intn(len(data))]
			if !a.pages[p] {
				continue // appended by the co-holder after this actor's grant
			}
			as := a.s.AddressSpace()
			fillPage(buf, uint64(seed)<<40|uint64(step))
			var err error
			switch rng.Intn(3) {
			case 0:
				err = as.Write(p, 0, buf)
			case 1:
				err = as.View(0).WriteRange(p, 0, buf)
			default:
				err = as.WriteU64(p, 8*rng.Intn(512), rng.Uint64())
			}
			if err != nil {
				t.Fatalf("seed %d step %d: store: %v", seed, step, err)
			}
			as.Persist(p, 0, nvm.PageSize)
			dirty[p] = true
		}
	}
	for _, a := range actors {
		if a.held {
			if err := a.s.UnmapFile(ino); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSealed(t, c, loc)
	if rep := c.ScrubAll(); rep.Mismatches != 0 {
		t.Fatalf("seed %d: scrub: %+v", seed, rep)
	}
	for _, a := range actors {
		if err := a.s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandoverMapsOnFastPath: a cross-domain write handover of a 2 MiB
// file — share-handover's and BenchmarkHandover2M's shape — is granted on
// the fast path every time (controller.map_escalations does not move),
// while a stacked same-group writer, whose grant the clip judges against
// its co-writer's pool, is granted under lockAll.
func TestHandoverMapsOnFastPath(t *testing.T) {
	c, _ := newCtl(t, handoverCfg())
	a, b, a2 := c.Register(1000, 1000, 0, 1), c.Register(1000, 1000, 0, 2), c.Register(1000, 1000, 0, 1)
	ino, loc := mkBigFile(t, a, "fast", handoverPages)
	_, data := filePages(t, c, loc)
	esc := c.Stats().MapEscalations
	buf := make([]byte, nvm.PageSize)
	for i := 0; i < 20; i++ {
		s, e0 := []*Session{a, b}[i&1], esc.Load()
		if _, err := s.MapFile(ino, loc, true); err != nil {
			t.Fatal(err)
		}
		if got := esc.Load() - e0; i >= 4 && got != 0 {
			t.Fatalf("handover %d: %d map escalations, want 0", i, got)
		}
		p := data[(i*37)%len(data)]
		if err := s.AddressSpace().Write(p, 0, buf); err != nil {
			t.Fatal(err)
		}
		s.AddressSpace().Persist(p, 0, nvm.PageSize)
		if err := s.UnmapFile(ino); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	e0 := esc.Load()
	if _, err := a2.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	if got := esc.Load() - e0; got != 1 {
		t.Fatalf("stacked same-group write map: %d escalations, want 1", got)
	}
}

// BenchmarkHandover2M is one cross-domain write handover of a 2 MiB
// file per iteration — write-map, store 4 KiB, unmap — reporting how
// many pages the seal streamed, how many index pages verification,
// grant and checkpoint together read, and how many checksum records the
// grant and the release rewrote per handover, next to allocs/op.
// The timed handovers are the steady state: the first few, which
// establish the facts everything later rides on, run before the clock.
func BenchmarkHandover2M(b *testing.B) { benchHandover2M(b, false) }

// BenchmarkHandoverIndexDirty2M is the same handover with one more
// store: an index entry rewritten with the value it holds, which is what
// an append's or a hole fill's index store looks like to the controller.
// The page's dirty bit costs the file its facts, so every release walks
// (and re-establishes them) and every grant and checkpoint reads the
// chain — the pre-scoping handover plus the release-time harvest and its
// shootdown barrier. Not gated: it is here so that path's cost is a
// number (CHANGES.md, PR 23) rather than an assumption.
func BenchmarkHandoverIndexDirty2M(b *testing.B) { benchHandover2M(b, true) }

func benchHandover2M(b *testing.B, dirtyIndex bool) {
	dev := nvm.MustNewDevice(handoverCfg())
	c, err := New(dev, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess := [2]*Session{c.Register(1000, 1000, 0, 1), c.Register(1000, 1000, 0, 2)}
	ino, loc := mkBigFile(b, sess[0], "bench", handoverPages)
	var data []nvm.PageID
	in, err := core.ReadDirentInode(c.mem, loc.Page, loc.Slot)
	if err != nil {
		b.Fatal(err)
	}
	core.WalkFile(c.mem, in.Head, int(dev.NumPages()), nil,
		func(_ uint64, p nvm.PageID) bool { data = append(data, p); return true })
	buf := make([]byte, nvm.PageSize)
	handover := func(i int) {
		s := sess[i&1]
		if _, err := s.MapFile(ino, loc, true); err != nil {
			b.Fatal(err)
		}
		p := data[(i*37)%len(data)]
		if err := s.AddressSpace().Write(p, 0, buf); err != nil {
			b.Fatal(err)
		}
		s.AddressSpace().Persist(p, 0, nvm.PageSize)
		if dirtyIndex {
			if err := core.SetIndexEntry(s.AddressSpace(), in.Head, 0, data[0]); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.UnmapFile(ino); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		handover(i)
	}
	st0 := c.Stats().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handover(i)
	}
	b.StopTimer()
	st := c.Stats().Snapshot().Sub(st0)
	b.ReportMetric(float64(st.SealStreamedPages)/float64(b.N), "streamed-pages/op")
	b.ReportMetric(float64(st.IndexPagesRead)/float64(b.N), "index-pages-read/op")
	b.ReportMetric(float64(st.ChecksumRecords)/float64(b.N), "records/op")
	// The page-table words a handover's mapping calls act on, counted off
	// the clock: the default registry counts only while enabled, and its
	// other instruments would be on the timed path.
	const sample = 64
	telemetry.Default().Enable()
	defer telemetry.Default().Disable()
	words := telemetry.Default().Snapshot().Get("mmu.pt_words")
	for i := 0; i < sample; i++ {
		handover(b.N + i)
	}
	b.ReportMetric(float64(telemetry.Default().Snapshot().Get("mmu.pt_words")-words)/sample, "pt-words/op")
}
