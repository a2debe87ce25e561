package mmu

import (
	"bytes"
	"errors"
	"testing"

	"trio/internal/nvm"
)

// TestRangePermissionWholeSpan: a range access must check every page of
// the span — one unmapped or under-privileged page anywhere rejects the
// whole access before the device is touched.
func TestRangePermissionWholeSpan(t *testing.T) {
	as := newAS(t)
	as.Map(4, 2, PermWrite) // pages 4,5 writable; page 6 unmapped
	buf := make([]byte, 3*nvm.PageSize)
	if err := as.WriteRange(4, 0, buf); !errors.Is(err, ErrFault) {
		t.Fatalf("range over unmapped tail: err = %v, want ErrFault", err)
	}
	// The mapped prefix must be untouched: the check precedes the copy.
	probe := make([]byte, 8)
	for i := range buf {
		buf[i] = 0xEE
	}
	_ = as.WriteRange(4, 0, buf)
	if err := as.Read(4, 0, probe); err != nil {
		t.Fatal(err)
	}
	if probe[0] == 0xEE {
		t.Fatal("failed range access wrote through the mapped prefix")
	}
	// Read-only page mid-span rejects a write range the same way.
	as.Map(6, 1, PermRead)
	if err := as.WriteRange(4, 0, buf); !errors.Is(err, ErrFault) {
		t.Fatalf("range over RO tail: err = %v, want ErrFault", err)
	}
	if err := as.ReadRange(4, 0, buf); err != nil {
		t.Fatalf("read range over RO tail: %v", err)
	}
	if err := as.PersistRange(4, 0, len(buf)); err != nil {
		t.Fatalf("persist range over readable span: %v", err)
	}
}

// TestViewRangeRoundTrip checks the NUMA-view range ops against the
// address-space ones.
func TestViewRangeRoundTrip(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 2, PagesPerNode: 32})
	as := NewAddressSpace(dev, 0)
	as.Map(30, 4, PermWrite) // 30,31 on node 0; 32,33 on node 1
	v := as.View(1)
	data := make([]byte, 3*nvm.PageSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := v.WriteRange(30, 512, data); err != nil {
		t.Fatal(err)
	}
	if err := v.PersistRange(30, 512, len(data)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadRange(30, 512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("view range write / AS range read mismatch")
	}
}

// TestRangeRevokedFaults: after Revoke, range ops fault like the
// per-page ops.
func TestRangeRevokedFaults(t *testing.T) {
	as := newAS(t)
	as.Map(0, 4, PermWrite)
	as.Revoke(nil)
	buf := make([]byte, 2*nvm.PageSize)
	if err := as.ReadRange(0, 0, buf); !errors.Is(err, ErrFault) {
		t.Fatalf("read range after revoke: err = %v, want ErrFault", err)
	}
	if err := as.WriteRange(0, 0, buf); !errors.Is(err, ErrFault) {
		t.Fatalf("write range after revoke: err = %v, want ErrFault", err)
	}
	if err := as.PersistRange(0, 0, len(buf)); !errors.Is(err, ErrFault) {
		t.Fatalf("persist range after revoke: err = %v, want ErrFault", err)
	}
}

// TestPersistStaysInPage: a one-page access is checked against its one
// page, so it must not run on into the next. A session that maps only
// page 3 persisting [4032, 4160) of it would flush page 4's first line —
// a line of a page it cannot reach. The persist is refused and page 4's
// line stays dirty; the View it goes through refuses the same.
func TestPersistStaysInPage(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 16, TrackPersistence: true})
	if err := dev.WriteAt(0, 4, 0, []byte("another file's bytes")); err != nil {
		t.Fatal(err)
	}
	as := NewAddressSpace(dev, 0)
	as.Map(3, 1, PermWrite)
	if err := as.Persist(3, 4032, 128); err == nil {
		t.Fatal("Persist(3, 4032, 128) through a page-3-only mapping succeeded")
	}
	if err := as.View(0).Persist(3, 4032, 128); err == nil {
		t.Fatal("the home view's Persist(3, 4032, 128) succeeded")
	}
	buf := make([]byte, 128)
	if err := as.Read(3, 4032, buf); err == nil {
		t.Fatal("Read(3, 4032, 128) through a page-3-only mapping succeeded")
	}
	if err := as.Write(3, 4032, buf); err == nil {
		t.Fatal("Write(3, 4032, 128) through a page-3-only mapping succeeded")
	}
	if got := dev.Tracker().DirtyLines(); got != 1 {
		t.Fatalf("%d dirty lines, want page 4's one", got)
	}
	if as.View(as.Node()) != as.View(as.Node()) {
		t.Fatal("the home view is not one view")
	}
}
