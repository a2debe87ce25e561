package controller

import (
	"slices"
	"testing"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// Coverage for write references at two sizes: a whole granule's raise
// or release moves granWrite, one count for 32 pages, and anything
// ragged moves the pages' own counts, splitting a granule counted whole
// first. The reference is refModel (runs_test.go): the per-page counts
// the controller kept before, which writeRefsAt must equal page for page.

// tabGranules is how many granules the fuzz world's runs fall in, from
// tabBase on.
const (
	tabBase     = nvm.PageID(4 * nvm.GranulePages)
	tabGranules = 4
	tabPages    = tabGranules * nvm.GranulePages
)

// Operations of FuzzControllerTablesModel, three bytes each.
const (
	tabGrant = iota
	tabRelease
	tabPoolRef
	tabPoolUnref
	tabStore
	tabRevoke
	tabOps
)

// tabRun decodes a grant's run from two bytes: a whole granule, two
// whole granules, a ragged run inside or across granules, or a whole
// granule with ragged ends — aligned and not, so grants of one session
// split the large words of another's or its own.
func tabRun(a, b int) pageRun {
	g := nvm.PageID(b % tabGranules)
	x := (b / tabGranules) % nvm.GranulePages
	gs := tabBase + g<<nvm.GranuleShift
	switch (a / 3) % 4 {
	case 0:
		return pageRun{start: gs, n: nvm.GranulePages}
	case 1:
		return pageRun{start: tabBase + min(g, tabGranules-2)<<nvm.GranuleShift, n: 2 * nvm.GranulePages}
	case 2:
		return pageRun{start: gs + nvm.PageID(x), n: 1 + a%40}
	}
	head := nvm.PageID(x % 5)
	if g == 0 {
		head = 0
	}
	return pageRun{start: gs - head, n: int(head) + nvm.GranulePages + x%3}
}

// runTablesModel drives three sessions through the operations data
// encodes and holds the controller's tables to the model after each.
func runTablesModel(t *testing.T, data []byte) {
	c, dev := newCtl(t, smallCfg())
	total := dev.NumPages()
	model := &refModel{total: total, writeRefs: map[nvm.PageID]int32{}, cleanOpen: map[nvm.PageID]bool{}}
	fresh := func() *modelSession {
		return &modelSession{ls: c.Register(1000, 1000, 0, 0).ls, model: newSessModel(total)}
	}
	sess := []*modelSession{fresh(), fresh(), fresh()}
	window := []pageRun{{start: tabBase, n: tabPages}}

	check := func(step int, what string) {
		t.Helper()
		c.tabMu.Lock()
		for p := tabBase; p < tabBase+tabPages; p++ {
			want := model.writeRefs[p]
			if got := c.writeRefsAt(p); got != want {
				c.tabMu.Unlock()
				t.Fatalf("step %d (%s): writeRefsAt(%d) = %d (page %d + granule %d), model %d",
					step, what, p, got, c.writeRefs[p], c.granWrite[p>>nvm.GranuleShift], want)
			}
			if got := c.scrubBusyLocked(p); got != (want > 0) {
				c.tabMu.Unlock()
				t.Fatalf("step %d (%s): scrubBusyLocked(%d) = %v, model write references %d", step, what, p, got, want)
			}
			if got, want := c.cleanOpen[p], model.cleanOpen[p]; got != want {
				c.tabMu.Unlock()
				t.Fatalf("step %d (%s): cleanOpen[%d] = %v, model %v", step, what, p, got, want)
			}
			for i, s := range sess {
				if got, want := s.ls.as.PermOf(p), s.model.perm[p]; got != want {
					c.tabMu.Unlock()
					t.Fatalf("step %d (%s): session %d PermOf(%d) = %v, model %v", step, what, i, p, got, want)
				}
			}
		}
		c.tabMu.Unlock()
		for i, s := range sess {
			if got, want := s.ls.as.Mapped(), len(s.model.perm); got != want {
				t.Fatalf("step %d (%s): session %d maps %d pages, model %d", step, what, i, got, want)
			}
		}
		// The record decisions: a seal closes exactly the records nobody can
		// store to, and a grant's open skips exactly the records somebody
		// already can (a granule nobody opened by its bit, so the per-page
		// rule decides). Seal, open, seal: the pages the model calls
		// quiescent end sealed and not cleanOpen, the rest untouched.
		before := tabRecords(t, c)
		c.sealQuiescentLocked(window, nil, telemetry.Span{})
		sealed := tabRecords(t, c)
		c.openGrantedLocked(window, nil, nil)
		opened := tabRecords(t, c)
		c.sealQuiescentLocked(window, nil, telemetry.Span{})
		after := tabRecords(t, c)
		for i, p := 0, tabBase; i < tabPages; i, p = i+1, p+1 {
			if model.writeRefs[p] > 0 {
				if sealed[i] != before[i] || opened[i] != before[i] || after[i] != before[i] {
					t.Fatalf("step %d (%s): page %d is write-mapped, its record moved %#x → %#x → %#x → %#x",
						step, what, p, before[i], sealed[i], opened[i], after[i])
				}
				continue
			}
			if !core.ChecksumSealed(sealed[i]) || !core.ChecksumIsOpen(opened[i]) || !core.ChecksumSealed(after[i]) {
				t.Fatalf("step %d (%s): quiescent page %d: record %#x → %#x → %#x → %#x, want sealed, open, sealed",
					step, what, p, before[i], sealed[i], opened[i], after[i])
			}
			model.cleanOpen[p] = false
		}
	}

	check(-1, "start")
	for step := 0; len(data) >= 3 && step < 300; step, data = step+1, data[3:] {
		op, a, b := data[0]%tabOps, int(data[1]), int(data[2])
		s := sess[a%len(sess)]
		what := ""
		switch op {
		case tabGrant:
			what = "grant"
			perm := mmu.PermWrite
			if b&0x80 != 0 {
				perm = mmu.PermRead
			}
			m := &modelMapping{runs: []pageRun{tabRun(a, b)}}
			for p := m.runs[0].start; p < m.runs[0].end(); p++ {
				m.pages = append(m.pages, p)
			}
			s.ls.refRunsLocked(m.runs, perm)
			for _, p := range m.pages {
				model.ref(s.model, p, perm)
			}
			s.mappings = append(s.mappings, m)
		case tabRelease:
			what = "release"
			if len(s.mappings) == 0 {
				continue
			}
			i := b % len(s.mappings)
			m := s.mappings[i]
			s.mappings = slices.Delete(s.mappings, i, i+1)
			s.ls.unrefRunsLocked(m.runs)
			for _, p := range m.pages {
				model.unref(s.model, p)
			}
		case tabPoolRef:
			what = "pool ref"
			p := tabBase + nvm.PageID(b%tabPages)
			s.ls.refPageLocked(p, mmu.PermWrite)
			model.ref(s.model, p, mmu.PermWrite)
			s.pool = append(s.pool, p)
		case tabPoolUnref:
			what = "pool unref"
			if len(s.pool) == 0 {
				continue
			}
			i := b % len(s.pool)
			p := s.pool[i]
			s.pool = slices.Delete(s.pool, i, i+1)
			s.ls.unrefPageLocked(p)
			model.unref(s.model, p)
		case tabStore:
			what = "store"
			p := tabBase + nvm.PageID(b%tabPages)
			err := s.ls.as.WriteU64(p, 0, uint64(step))
			if want := s.model.perm[p] == mmu.PermWrite; (err == nil) != want {
				t.Fatalf("step %d: store to %d err %v, model writable %v", step, p, err, want)
			}
			if err == nil {
				s.model.dirty[p] = true
			}
		case tabRevoke:
			what = "revoke"
			c.revokeSpaceLocked(s.ls)
			model.revoke(s.model)
			check(step, what)
			for _, m := range s.mappings {
				s.ls.unrefRunsLocked(m.runs)
				for _, p := range m.pages {
					model.unref(s.model, p)
				}
			}
			for _, p := range s.pool {
				s.ls.unrefPageLocked(p)
				model.unref(s.model, p)
			}
			*s = *fresh()
		}
		check(step, what)
	}
	for _, s := range sess {
		c.revokeSpaceLocked(s.ls)
		model.revoke(s.model)
	}
	check(-2, "final revoke")
	c.tabMu.Lock()
	defer c.tabMu.Unlock()
	for g, n := range c.granWrite {
		if n != 0 {
			t.Fatalf("granule %d: %d whole write references left behind", g, n)
		}
	}
	if n := c.stats.GranWriteRefs.Load(); n != 0 {
		t.Fatalf("controller.gran_write_refs reads %d with nothing mapped", n)
	}
}

// tabRecords reads the checksum records of the fuzz world's pages.
func tabRecords(t *testing.T, c *Controller) []uint64 {
	t.Helper()
	out := make([]uint64, tabPages)
	for i := range out {
		rec, err := core.LoadChecksum(c.mem, c.dev.NumPages(), tabBase+nvm.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rec
	}
	return out
}

// FuzzControllerTablesModel: no sequence of whole-granule and ragged
// grants and releases, pool references, stores and revocations over
// three sessions — grants splitting the large words of earlier ones —
// leaves writeRefsAt of any page different from the per-page count, or a
// scrub, seal or record-open decision different from the one that count
// makes.
func FuzzControllerTablesModel(f *testing.F) {
	steps := func(s ...[3]byte) []byte {
		var out []byte
		for _, x := range s {
			out = append(out, x[:]...)
		}
		return out
	}
	// a%3 is the session, a/3%4 the run's kind (whole, two whole, ragged,
	// whole with ragged ends); b%4 the granule, bit 7 a read grant.
	f.Add(steps( // a whole granule, split by a ragged re-ref of its own session, released whole
		[3]byte{tabGrant, 0, 1}, [3]byte{tabGrant, 6, 9}, [3]byte{tabStore, 0, 40},
		[3]byte{tabRelease, 0, 0}, [3]byte{tabRelease, 0, 0}))
	f.Add(steps( // two sessions hold one granule whole, a third ragged; one revoked
		[3]byte{tabGrant, 0, 2}, [3]byte{tabGrant, 1, 2}, [3]byte{tabGrant, 11, 66},
		[3]byte{tabStore, 1, 70}, [3]byte{tabRevoke, 1, 0}, [3]byte{tabRelease, 2, 0},
		[3]byte{tabRelease, 0, 0}))
	f.Add(steps( // a pool page inside a granule a grant then takes whole, and ragged ends
		[3]byte{tabPoolRef, 2, 33}, [3]byte{tabGrant, 2, 1}, [3]byte{tabGrant, 11, 21},
		[3]byte{tabPoolUnref, 2, 0}, [3]byte{tabRelease, 2, 1}, [3]byte{tabRelease, 2, 0}))
	f.Add(steps( // two whole granules read and write, then a ragged write in each
		[3]byte{tabGrant, 3, 0x81}, [3]byte{tabGrant, 4, 1}, [3]byte{tabGrant, 7, 5},
		[3]byte{tabGrant, 7, 2}, [3]byte{tabRelease, 1, 0}, [3]byte{tabRevoke, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) { runTablesModel(t, data) })
}
