package libfs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/nvm"
)

// newVerifyFS mounts an FS with read-path CRC verification enabled.
func newVerifyFS(t *testing.T) (*FS, *controller.Controller, *nvm.Device) {
	t.Helper()
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{LeaseTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(ctl.Register(1000, 1000, 0, 0), Config{CPUs: 4, VerifyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	return fs, ctl, dev
}

// sealFile writes content to name (in the root dir), then releases the
// write mapping so the controller seals the file's checksum records,
// returning the file's data pages.
func sealFile(t *testing.T, fs *FS, dev *nvm.Device, name string, content []byte) []nvm.PageID {
	t.Helper()
	c := fs.NewClient(0)
	f, err := c.Create("/"+name, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h := fs.Hooks()
	d, err := h.ResolveDir("/")
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := h.Lookup(d, name)
	if err != nil || !ok {
		t.Fatalf("lookup %s: ok=%v err=%v", name, ok, err)
	}
	// The creator accesses the new file through its parent mapping and
	// allocation pool; unmapping the root directory makes the
	// controller verify the tree, adopt the child, and seal its pages.
	// The LibFS's cached node state self-heals: the next access faults
	// and withMapped re-maps.
	if err := fs.Session().UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	m := core.Direct(dev, 0)
	in, err := core.ReadDirentInode(m, e.Loc.Page, e.Loc.Slot)
	if err != nil {
		t.Fatal(err)
	}
	var data []nvm.PageID
	err = core.WalkFile(m, in.Head, int(dev.NumPages()), nil,
		func(_ uint64, p nvm.PageID) bool { data = append(data, p); return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("no data pages found")
	}
	for _, p := range data {
		rec, err := core.LoadChecksum(m, dev.NumPages(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !core.ChecksumSealed(rec) {
			t.Fatalf("page %d record %#x not sealed after unmap", p, rec)
		}
	}
	return data
}

func TestVerifyReadsPassesOnCleanData(t *testing.T) {
	fs, _, dev := newVerifyFS(t)
	content := bytes.Repeat([]byte{0x5C}, 3*nvm.PageSize)
	sealFile(t, fs, dev, "clean.bin", content)

	f, err := fs.NewClient(0).Open("/clean.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(content) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
}

func TestVerifyReadsRejectsRottedPage(t *testing.T) {
	fs, _, dev := newVerifyFS(t)
	content := bytes.Repeat([]byte{0xD7}, 2*nvm.PageSize)
	data := sealFile(t, fs, dev, "rotted.bin", content)

	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	if err := fp.FlipBits(data[len(data)-1], 1000, 0x20); err != nil {
		t.Fatal(err)
	}

	f, err := fs.NewClient(0).Open("/rotted.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if _, err := f.ReadAt(got, 0); !errors.Is(err, fsapi.ErrCorrupt) {
		t.Fatalf("read of rotted page: %v, want fsapi.ErrCorrupt", err)
	}
	// A partial read that does not cover the rotted page in full is not
	// CRC-checkable and must still succeed (first page only).
	if n, err := f.ReadAt(got[:nvm.PageSize], 0); err != nil || n != nvm.PageSize {
		t.Fatalf("clean-page read: %d, %v", n, err)
	}
}

func TestVerifyReadsOffByDefault(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{LeaseTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(ctl.Register(1000, 1000, 0, 0), Config{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte{0x11}, nvm.PageSize)
	data := sealFile(t, fs, dev, "unchecked.bin", content)

	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	if err := fp.FlipBits(data[0], 0, 0x01); err != nil {
		t.Fatal(err)
	}
	// Without VerifyReads the libfs read path does not consult the
	// table; only the background scrubber would catch this.
	f, err := fs.NewClient(0).Open("/unchecked.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("unverified read failed: %v", err)
	}
	if got[0] == content[0] {
		t.Fatal("expected the rotted byte to pass through unverified")
	}
}

// lookupEntry resolves name in the root directory.
func lookupEntry(t *testing.T, fs *FS, name string) Entry {
	t.Helper()
	h := fs.Hooks()
	d, err := h.ResolveDir("/")
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := h.Lookup(d, name)
	if err != nil || !ok {
		t.Fatalf("lookup %s: ok=%v err=%v", name, ok, err)
	}
	return e
}

// TestVerifyReadsOpenGranule: a VerifyReads reader racing a writer whose
// grants hold whole granules of the files open by their bit — records
// untouched, so sealed and stale while it stores — never condemns a
// page. The writer alternates between two files, so each file's bits
// clear while it holds the other and the reader checks those pages
// again; and once they are clear, rot in a page the writer stored to is
// caught.
func TestVerifyReadsOpenGranule(t *testing.T) {
	fs, ctl, dev := newVerifyFS(t)
	const pages = 100 // three whole granules and a ragged end of four pages
	var data [2][]nvm.PageID
	var ents [2]Entry
	for i, name := range []string{"x.bin", "y.bin"} {
		data[i] = sealFile(t, fs, dev, name, bytes.Repeat([]byte{byte(0x30 + i)}, pages*nvm.PageSize))
		ents[i] = lookupEntry(t, fs, name)
		if g := data[i][pages-1] >> nvm.GranuleShift; data[i][pages-5]>>nvm.GranuleShift == g || data[i][pages-4]>>nvm.GranuleShift != g {
			t.Fatalf("%s: its last four pages are not a ragged end of their own granule", name)
		}
	}
	w := ctl.Register(1000, 1000, 0, fs.Session().Group()) // a same-group writer: the reader keeps its mapping
	buf := make([]byte, nvm.PageSize)
	handover := func(i, round int) {
		if _, err := w.MapFile(ents[i].Ino, ents[i].Loc, true); err != nil {
			t.Error(err)
			return
		}
		for k := 0; k < 8; k++ {
			p := data[i][(round*13+k*11)%pages]
			for j := range buf {
				buf[j] = byte(round + k + j)
			}
			if err := w.AddressSpace().Write(p, 0, buf); err != nil {
				t.Error(err)
				return
			}
			w.AddressSpace().Persist(p, 0, nvm.PageSize)
		}
		if err := w.UnmapFile(ents[i].Ino); err != nil {
			t.Error(err)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 200; round++ {
			handover(round&1, round)
		}
	}()
	got := make([]byte, pages*nvm.PageSize)
	c := fs.NewClient(0)
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for _, name := range []string{"/x.bin", "/y.bin"} {
			f, err := c.Open(name, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatalf("read racing a granule's writer: %v", err)
			}
			f.Close()
		}
	}
	if st := ctl.Stats().Snapshot(); st.GranuleOpens == 0 {
		t.Fatal("the writer's grants opened no granule by its bit")
	}

	// x's bits cleared behind the fence of y's last grant; a scrub pass
	// clears y's. Rot in a page the writer stored to is caught again.
	ctl.ScrubAll()
	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	rotted := data[0][(198*13)%pages]
	if err := fp.FlipBits(rotted, 77, 0x40); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/x.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(got, 0); !errors.Is(err, fsapi.ErrCorrupt) {
		t.Fatalf("read of a rotted page after its granule closed: %v, want fsapi.ErrCorrupt", err)
	}
}
