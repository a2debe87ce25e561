package libfs

import (
	"fmt"
	"testing"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/nvm"
)

// TestAppendFillsWholeGranules: a file grown by 4 KiB appends on a fresh
// mount lands in whole aligned granules — 512 blocks are 16 of them, each
// block at its offset in its granule — with its index pages outside
// them. Once the controller adopted it, a write grant holds those 16
// granules whole: 16 opened by their bit, 16 write references counted
// one per granule, and per-page records only for the dirent and index
// pages.
func TestAppendFillsWholeGranules(t *testing.T) {
	const blocks = 512
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(ctl.Register(1000, 1000, 0, 1), Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.NewClient(0).Create("/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, nvm.PageSize)
	for i := 0; i < blocks; i++ {
		if _, err := f.Append(buf); err != nil {
			t.Fatal(err)
		}
	}
	n := f.(*Handle).n
	if err := fs.Session().UnmapFile(core.RootIno); err != nil { // adoption
		t.Fatal(err)
	}

	m := core.Direct(dev, 0)
	in, err := core.ReadDirentInode(m, n.loc().Page, n.loc().Slot)
	if err != nil {
		t.Fatal(err)
	}
	var index, data []nvm.PageID
	if err := core.WalkFile(m, in.Head, int(dev.NumPages()),
		func(p nvm.PageID) bool { index = append(index, p); return true },
		func(_ uint64, p nvm.PageID) bool { data = append(data, p); return true }); err != nil {
		t.Fatal(err)
	}
	if len(data) != blocks || len(index) != 2 {
		t.Fatalf("walk found %d data and %d index pages, want %d and 2", len(data), len(index), blocks)
	}
	granules := map[nvm.PageID]bool{}
	for b, p := range data {
		base := data[b&^(nvm.GranulePages-1)]
		if base%nvm.GranulePages != 0 || p != base+nvm.PageID(b%nvm.GranulePages) {
			t.Fatalf("block %d at page %d: its granule's first block is at %d, not an aligned whole granule", b, p, base)
		}
		granules[p>>nvm.GranuleShift] = true
	}
	if len(granules) != blocks/nvm.GranulePages {
		t.Fatalf("data spans %d granules, want %d", len(granules), blocks/nvm.GranulePages)
	}
	for _, p := range append(index, n.loc().Page) {
		if granules[p>>nvm.GranuleShift] {
			t.Fatalf("metadata page %d sits inside a data granule", p)
		}
	}

	// The controller's view: a write grant from another trust group.
	other := ctl.Register(1000, 1000, 0, 2)
	st0 := ctl.Stats().Snapshot()
	if _, err := other.MapFile(n.ino, n.loc(), true); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats().Snapshot().Sub(st0)
	if st.GranuleOpens != blocks/nvm.GranulePages || st.GranWriteRefs != blocks/nvm.GranulePages {
		t.Fatalf("grant opened %d granules by bit and counts %d write references whole, want %d of each",
			st.GranuleOpens, st.GranWriteRefs, blocks/nvm.GranulePages)
	}
	if st.ChecksumRecords > 3 {
		t.Fatalf("grant opened %d records, want at most 3 (dirent and index pages)", st.ChecksumRecords)
	}
	if err := other.UnmapFile(n.ino); err != nil {
		t.Fatal(err)
	}
	// What stays counted whole is the creator's pool: granules it fetched
	// and has not used.
	if got := ctl.Stats().Snapshot().GranWriteRefs; got != st0.GranWriteRefs {
		t.Fatalf("%d granules counted whole after the release, %d before the grant", got, st0.GranWriteRefs)
	}
}

// TestOneBlockPlacementCrossings: placement must not cost a small-file
// workload controller calls. 2,000 create/append/close/unlink cycles of
// one-block files — each file's block 0 asks for a whole granule — make
// no more AllocPages/FreePages calls than a cache without placement
// would: that cache fetches a batch only when it runs dry and spills
// nothing below 16 batches, so it makes one call per batch of the most
// pages the loop ever holds outside the cache.
func TestOneBlockPlacementCrossings(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(ctl.Register(1000, 1000, 0, 0), Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := fs.NewClient(0)
	buf := make([]byte, nvm.PageSize)
	free0 := ctl.FreePagesCount()
	last, crossings, peak := free0, 0, 0
	note := func() {
		free := ctl.FreePagesCount()
		if free != last {
			crossings++ // one page batch fetched or spilled
			last = free
		}
		cached := 0
		for _, pc := range fs.percpu[0].pages {
			cached += pc.n
		}
		peak = max(peak, free0-free-cached)
	}
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("/f%03d", i%100)
		f, err := c.Create(name, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append(buf); err != nil {
			t.Fatal(err)
		}
		f.Close()
		note()
		if err := c.Unlink(name); err != nil {
			t.Fatal(err)
		}
		note()
	}
	without := (peak + fs.cfg.PageBatch - 1) / fs.cfg.PageBatch
	if crossings > without {
		t.Fatalf("%d page-batch calls with placement; without it, %d (peak %d pages held)", crossings, without, peak)
	}
	t.Logf("%d page-batch calls, %d without placement (peak %d pages held)", crossings, without, peak)
}
