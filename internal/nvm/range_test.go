package nvm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestRangeRoundTripMatchesPerPage cross-checks the coalesced range ops
// against the per-page ops they replace, over random unaligned spans.
func TestRangeRoundTripMatchesPerPage(t *testing.T) {
	d := MustNewDevice(Config{Nodes: 2, PagesPerNode: 16})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := PageID(rng.Intn(28))
		off := rng.Intn(PageSize)
		n := 1 + rng.Intn(3*PageSize)
		if int(p)*PageSize+off+n > int(d.NumPages())*PageSize {
			continue
		}
		data := make([]byte, n)
		rng.Read(data)
		if err := d.WriteRange(0, p, off, data); err != nil {
			t.Fatalf("WriteRange(%d,%d,%d): %v", p, off, n, err)
		}
		// Read back page by page with the old op.
		got := make([]byte, n)
		pos, q, pgOff := 0, p, off
		for pos < n {
			chunk := PageSize - pgOff
			if rem := n - pos; chunk > rem {
				chunk = rem
			}
			if err := d.ReadAt(0, q, pgOff, got[pos:pos+chunk]); err != nil {
				t.Fatal(err)
			}
			pos, q, pgOff = pos+chunk, q+1, 0
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("WriteRange/ReadAt mismatch at span (%d,%d,%d)", p, off, n)
		}
		// And the coalesced read over the same span.
		clear(got)
		if err := d.ReadRange(1, p, off, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("ReadRange mismatch at span (%d,%d,%d)", p, off, n)
		}
	}
}

func TestRangeBounds(t *testing.T) {
	d := MustNewDevice(Config{Nodes: 1, PagesPerNode: 4})
	buf := make([]byte, PageSize)
	if err := d.ReadRange(0, 0, PageSize, buf); err == nil {
		t.Fatal("offset past page start accepted")
	}
	if err := d.ReadRange(0, 0, -1, buf); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := d.WriteRange(0, 3, 1, buf); err == nil {
		t.Fatal("span past device end accepted")
	}
	if err := d.PersistRange(3, 1, PageSize); err == nil {
		t.Fatal("persist span past device end accepted")
	}
	if err := d.WriteRange(0, 3, 0, buf); err != nil {
		t.Fatalf("exact last-page span rejected: %v", err)
	}
	if err := d.ReadRange(0, 0, 100, nil); err != nil {
		t.Fatalf("empty read rejected: %v", err)
	}
}

// TestOnePageAccessorsStayInPage: ReadAt, WriteAt and Persist are the
// span bodies held to one page — an access running past its page or a
// page past the device is refused, and a refused persist makes no line
// durable — while the span forms cross the same boundary.
func TestOnePageAccessorsStayInPage(t *testing.T) {
	d := MustNewDevice(Config{Nodes: 1, PagesPerNode: 4, TrackPersistence: true})
	buf := make([]byte, 128)
	if err := d.WriteRange(0, 1, PageSize-64, buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p   PageID
		off int
	}{{1, PageSize - 64}, {1, PageSize}, {4, 0}, {1 << 40, 0}} {
		if err := d.ReadAt(0, c.p, c.off, buf); err == nil {
			t.Errorf("ReadAt(%d, %d, %d bytes) accepted", c.p, c.off, len(buf))
		}
		if err := d.WriteAt(0, c.p, c.off, buf); err == nil {
			t.Errorf("WriteAt(%d, %d, %d bytes) accepted", c.p, c.off, len(buf))
		}
		if err := d.Persist(c.p, c.off, len(buf)); err == nil {
			t.Errorf("Persist(%d, %d, %d) accepted", c.p, c.off, len(buf))
		}
	}
	if got := d.Tracker().DirtyLines(); got != 2 {
		t.Fatalf("refused persists changed the dirty lines: %d, want 2", got)
	}
	if err := d.ReadRange(0, 1, PageSize-64, buf); err != nil {
		t.Fatalf("ReadRange across a page boundary: %v", err)
	}
	if err := d.PersistRange(1, PageSize-64, len(buf)); err != nil {
		t.Fatalf("PersistRange across a page boundary: %v", err)
	}
	if got := d.Tracker().DirtyLines(); got != 0 {
		t.Fatalf("%d lines dirty after the span persist, want 0", got)
	}
}

// TestWriteRangeFaultLeavesPrefix checks the crash surface: a media
// fault on a middle page of a run must leave exactly the pages before
// it written, as the per-block loop would have.
func TestWriteRangeFaultLeavesPrefix(t *testing.T) {
	d := MustNewDevice(Config{Nodes: 1, PagesPerNode: 8})
	fp := NewFaultPlan()
	fp.InjectWriteFault(2, 0, 1)
	d.SetFaultPlan(fp)

	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = 0xAB
	}
	err := d.WriteRange(0, 1, 0, data)
	if !errors.Is(err, ErrMediaWrite) {
		t.Fatalf("err = %v, want ErrMediaWrite", err)
	}
	d.SetFaultPlan(nil)
	got := make([]byte, PageSize)
	if err := d.ReadAt(0, 1, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB || got[PageSize-1] != 0xAB {
		t.Fatal("page before the fault not written")
	}
	if err := d.ReadAt(0, 2, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("faulted page was written")
	}
	if err := d.ReadAt(0, 3, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("page after the fault was written")
	}
}

// TestPersistRangeKeepsPerPagePoints checks persist coalescing does not
// erase crash points: persisting a k-page run must advance the persist-
// point counter by k, exactly like k per-page Persist calls.
func TestPersistRangeKeepsPerPagePoints(t *testing.T) {
	d := MustNewDevice(Config{Nodes: 1, PagesPerNode: 16})
	fp := NewFaultPlan()
	d.SetFaultPlan(fp)
	data := make([]byte, 5*PageSize)
	if err := d.WriteRange(0, 1, 0, data); err != nil {
		t.Fatal(err)
	}
	before := fp.PersistPoints()
	if err := d.PersistRange(1, 0, 5*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := fp.PersistPoints() - before; got != 5 {
		t.Fatalf("PersistRange over 5 pages advanced %d points, want 5", got)
	}
	// A crash armed at a mid-run point must fire inside the run.
	d2 := MustNewDevice(Config{Nodes: 1, PagesPerNode: 16})
	fp2 := NewFaultPlan()
	fp2.ArmCrashPoint(3)
	d2.SetFaultPlan(fp2)
	if err := d2.WriteRange(0, 1, 0, data); err != nil {
		t.Fatal(err)
	}
	err := d2.PersistRange(1, 0, 5*PageSize)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("err = %v, want ErrCrashPoint", err)
	}
	if !fp2.Fired() {
		t.Fatal("armed crash point did not fire mid-run")
	}
}

// TestRangeTrackerEquivalence checks an unpersisted WriteRange is lost
// on crash exactly like unpersisted per-page writes.
func TestRangeTrackerEquivalence(t *testing.T) {
	d := MustNewDevice(Config{Nodes: 1, PagesPerNode: 8, TrackPersistence: true})
	persisted := make([]byte, 2*PageSize)
	lost := make([]byte, 2*PageSize)
	for i := range persisted {
		persisted[i], lost[i] = 0x11, 0x22
	}
	if err := d.WriteRange(0, 1, 0, persisted); err != nil {
		t.Fatal(err)
	}
	if err := d.PersistRange(1, 0, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	d.Fence()
	if err := d.WriteRange(0, 4, 0, lost); err != nil {
		t.Fatal(err)
	}
	d.Tracker().Crash()
	got := make([]byte, 2*PageSize)
	if err := d.ReadRange(0, 1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, persisted) {
		t.Fatal("persisted range did not survive crash")
	}
	if err := d.ReadRange(0, 4, 0, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b == 0x22 {
			t.Fatal("unpersisted range survived crash")
		}
	}
}
