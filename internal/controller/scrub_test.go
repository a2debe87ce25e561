package controller

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/nvm"
)

// filePages walks a file's core state through the controller's trusted
// accessor, returning its index and data pages.
func filePages(t testing.TB, c *Controller, loc core.FileLoc) (index, data []nvm.PageID) {
	t.Helper()
	in, err := core.ReadDirentInode(c.mem, loc.Page, loc.Slot)
	if err != nil {
		t.Fatal(err)
	}
	err = core.WalkFile(c.mem, in.Head, int(c.dev.NumPages()),
		func(p nvm.PageID) bool { index = append(index, p); return true },
		func(_ uint64, p nvm.PageID) bool { data = append(data, p); return true })
	if err != nil {
		t.Fatal(err)
	}
	return index, data
}

func TestScrubAllSealsQuiescentPages(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	s := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, s, "cold", bytes.Repeat([]byte{0xA5}, 2*nvm.PageSize))
	if err := s.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}

	rep := c.ScrubAll()
	if rep.Mismatches != 0 {
		t.Fatalf("clean tree scrubbed %d mismatches", rep.Mismatches)
	}
	if rep.Candidates == 0 || rep.Covered != rep.Candidates {
		t.Fatalf("coverage %d/%d after full pass", rep.Covered, rep.Candidates)
	}

	// A second pass finds everything already sealed and still clean.
	rep = c.ScrubAll()
	if rep.Sealed != 0 || rep.Mismatches != 0 {
		t.Fatalf("second pass: sealed %d, mismatches %d", rep.Sealed, rep.Mismatches)
	}
	_ = ino
	_ = loc
}

func TestScrubRepairsHoleFromZeroCandidate(t *testing.T) {
	c, dev := newCtl(t, smallCfg())
	s := c.Register(1000, 1000, 0, 0)
	_, loc := mkFile(t, s, "holes", make([]byte, nvm.PageSize))
	if err := s.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	c.ScrubAll() // seal everything

	_, data := filePages(t, c, loc)
	if len(data) != 1 {
		t.Fatalf("want 1 data page, got %d", len(data))
	}
	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	if err := fp.FlipBits(data[0], 123, 0x40); err != nil {
		t.Fatal(err)
	}

	rep := c.ScrubAll()
	if rep.Mismatches != 1 || rep.Repaired != 1 || rep.Quarantined != 0 {
		t.Fatalf("report %+v: want 1 mismatch repaired", rep)
	}
	buf := make([]byte, nvm.PageSize)
	if err := c.mem.Read(data[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x after hole re-zeroing", i, b)
		}
	}
	if got := c.Stats().Snapshot(); got.ScrubRepaired != 1 || got.ScrubDetected != 1 {
		t.Fatalf("stats %+v", got)
	}
}

func TestScrubRebuildsDirentPage(t *testing.T) {
	c, dev := newCtl(t, smallCfg())
	s := c.Register(1000, 1000, 0, 0)
	_, loc := mkFile(t, s, "victim", []byte("dirent rebuild fodder"))
	if err := s.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	c.ScrubAll()

	pre := make([]byte, nvm.PageSize)
	if err := c.mem.Read(loc.Page, 0, pre); err != nil {
		t.Fatal(err)
	}
	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	// Hit the name bytes of the dirent — metadata the children list can
	// reconstruct.
	if err := fp.FlipBits(loc.Page, core.SlotOffset(loc.Slot)+core.DirentNameOff, 0xFF); err != nil {
		t.Fatal(err)
	}

	rep := c.ScrubAll()
	if rep.Mismatches != 1 || rep.Repaired != 1 {
		t.Fatalf("report %+v: want dirent rebuild repair", rep)
	}
	post := make([]byte, nvm.PageSize)
	if err := c.mem.Read(loc.Page, 0, post); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, post) {
		t.Fatal("rebuilt dirent page is not byte-identical to the original")
	}
}

func TestScrubQuarantinesUnrepairablePage(t *testing.T) {
	c, dev := newCtl(t, smallCfg())
	s := c.Register(1000, 1000, 0, 0)
	content := bytes.Repeat([]byte("irreplaceable"), 300)
	ino, loc := mkFile(t, s, "doomed", content)
	if err := s.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	c.ScrubAll()

	// A reader holds the file while the rot lands.
	reader := c.Register(1000, 1000, 0, 0)
	if _, err := reader.MapFile(ino, loc, false); err != nil {
		t.Fatal(err)
	}

	_, data := filePages(t, c, loc)
	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	if err := fp.FlipBits(data[0], 77, 0x08); err != nil {
		t.Fatal(err)
	}

	rep := c.ScrubAll()
	if rep.Mismatches != 1 || rep.Repaired != 0 || rep.Quarantined != 1 {
		t.Fatalf("report %+v: want quarantine", rep)
	}
	// The reader's mapping was revoked; a re-map is refused with the
	// typed corruption error, so garbage is never served.
	if _, err := reader.MapFile(ino, loc, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("re-map of quarantined file: %v, want ErrCorrupt", err)
	}
	if _, err := s.MapFile(ino, loc, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("write map of quarantined file: %v, want ErrCorrupt", err)
	}
	if got := c.Stats().Snapshot(); got.ScrubQuarantined != 1 {
		t.Fatalf("stats %+v", got)
	}
	// A quarantined file is not re-audited: the corruption was acted on
	// once, later passes skip its pages instead of re-counting it.
	rep = c.ScrubAll()
	if rep.Mismatches != 0 || rep.Quarantined != 0 {
		t.Fatalf("second pass re-detected the quarantined file: %+v", rep)
	}
}

// TestScrubCleanAfterChmod: changing permission bits stores into the
// parent's dirent page, which is sealed once the file is quiescent. The
// attr refresh must go through the checksum protocol (open → store →
// reseal), or the next scrub pass sees a stale sealed CRC and either
// "repairs" the page back to its pre-chmod image or quarantines the
// parent.
func TestScrubCleanAfterChmod(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	s := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, s, "attrs", []byte("chmod fodder"))
	if err := s.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	c.ScrubAll() // seal everything, including the dirent page

	if err := s.Chmod(ino, 0o600); err != nil {
		t.Fatal(err)
	}
	rep := c.ScrubAll()
	if rep.Mismatches != 0 || rep.Quarantined != 0 {
		t.Fatalf("scrub after chmod: %+v", rep)
	}
	// The refreshed attrs survived the pass (no stale-image "repair").
	in, err := core.ReadDirentInode(c.mem, loc.Page, loc.Slot)
	if err != nil {
		t.Fatal(err)
	}
	if in.Mode != 0o600 {
		t.Fatalf("mode %#o after scrub, want 0o600", in.Mode)
	}
	// The parent was not quarantined: mapping under it still works.
	if _, err := s.MapFile(ino, loc, false); err != nil {
		t.Fatalf("map after chmod+scrub: %v", err)
	}
}

func TestScrubSkipsWriteMappedPages(t *testing.T) {
	c, dev := newCtl(t, smallCfg())
	s := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, s, "hot", []byte("live writer data"))
	if err := s.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	c.ScrubAll()
	if _, err := s.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}

	_, data := filePages(t, c, loc)
	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	if err := fp.FlipBits(data[0], 5, 0x01); err != nil {
		t.Fatal(err)
	}
	// While the writer holds the page the scrubber must not judge it:
	// the record is open (grant re-opened it), stores are in flight.
	rep := c.ScrubAll()
	if rep.Mismatches != 0 {
		t.Fatalf("scrub judged a write-mapped page: %+v", rep)
	}
}

// TestScrubSweeperAgreesWithScrubAll: the sweepers and ScrubAll run one
// audit. Two controllers built by the same steps get the same two flips —
// a hole the zero page repairs, a data page nothing can — and one is
// scrubbed by ScrubAll, the other by every shard's sweep with a budget
// that covers the device. Both must count the same and poison the same
// file.
func TestScrubSweeperAgreesWithScrubAll(t *testing.T) {
	type result struct {
		detected, repaired, quarantined int64
		corrupt                         [2]bool
	}
	run := func(sweep bool) result {
		c, dev := newCtl(t, smallCfg())
		s := c.Register(1000, 1000, 0, 0)
		holeIno, holeLoc := mkFile(t, s, "hole", make([]byte, nvm.PageSize))
		rotIno, rotLoc := mkFile(t, s, "rot", bytes.Repeat([]byte("irreplaceable"), 300))
		if err := s.UnmapFile(core.RootIno); err != nil {
			t.Fatal(err)
		}
		c.ScrubAll() // seal everything
		fp := nvm.NewFaultPlan()
		dev.SetFaultPlan(fp)
		for _, loc := range []core.FileLoc{holeLoc, rotLoc} {
			_, data := filePages(t, c, loc)
			if err := fp.FlipBits(data[0], 99, 0x04); err != nil {
				t.Fatal(err)
			}
		}

		st0 := c.Stats().Snapshot()
		if sweep {
			c.opts.ScrubPagesPerSweep = int(dev.NumPages()) * len(c.shards)
			for i := range c.shards {
				c.scrubShard(i)
			}
		} else {
			c.ScrubAll()
		}
		st := c.Stats().Snapshot().Sub(st0)
		r := result{detected: st.ScrubDetected, repaired: st.ScrubRepaired, quarantined: st.ScrubQuarantined}
		reader := c.Register(1000, 1000, 0, 0)
		for i, f := range []struct {
			ino core.Ino
			loc core.FileLoc
		}{{holeIno, holeLoc}, {rotIno, rotLoc}} {
			_, err := reader.MapFile(f.ino, f.loc, false)
			r.corrupt[i] = errors.Is(err, ErrCorrupt)
		}
		return r
	}
	all, swept := run(false), run(true)
	if all != swept {
		t.Fatalf("ScrubAll %+v, sweepers %+v", all, swept)
	}
	if want := (result{detected: 2, repaired: 1, quarantined: 1, corrupt: [2]bool{false, true}}); all != want {
		t.Fatalf("ScrubAll %+v, want %+v", all, want)
	}
}

func TestScrubBackgroundSweepConverges(t *testing.T) {
	dev := nvm.MustNewDevice(smallCfg())
	c, err := New(dev, Options{
		LeaseTime:  5 * time.Millisecond,
		LeaseSweep: time.Millisecond,
		// Tiny budget: convergence must come from the wrapping cursor,
		// not from one giant pass.
		ScrubPagesPerSweep: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Register(1000, 1000, 0, 0)
	_, loc := mkFile(t, s, "swept", make([]byte, nvm.PageSize))
	if err := s.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	_, data := filePages(t, c, loc)

	// Wait for the sweeper to seal the cold page, then rot it and wait
	// for detection + repair — all without calling ScrubAll.
	deadline := time.After(5 * time.Second)
	for {
		if rec, err := core.LoadChecksum(c.mem, dev.NumPages(), data[0]); err == nil && core.ChecksumSealed(rec) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sweeper never sealed the cold page")
		case <-time.After(time.Millisecond):
		}
	}
	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	if err := fp.FlipBits(data[0], 200, 0x10); err != nil {
		t.Fatal(err)
	}
	for {
		if snap := c.Stats().Snapshot(); snap.ScrubRepaired >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sweeper never repaired the rotted page")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestScrubBudgetResolution(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	c.opts.ScrubPagesPerSweep = 17
	if got := c.scrubBudget(); got != 17 {
		t.Fatalf("explicit budget: %d", got)
	}
	c.opts.ScrubPagesPerSweep = -1
	if got := c.scrubBudget(); got > 0 {
		t.Fatalf("disabled budget: %d", got)
	}
	c.opts.ScrubPagesPerSweep = 0
	c.opts.LeaseSweep = 0
	if got := c.scrubBudget(); got != scrubDefaultBudget {
		t.Fatalf("default budget: %d", got)
	}
	// With a cost model and a sweep period, the budget tracks a small
	// share of read bandwidth.
	c.cost = nvm.DefaultCostModel()
	c.opts.LeaseSweep = 10 * time.Millisecond
	want := int(c.cost.ReadBandwidth * scrubBandwidthShare * 0.010 / nvm.PageSize)
	if got := c.scrubBudget(); got != want {
		t.Fatalf("auto budget %d, want %d", got, want)
	}
}
