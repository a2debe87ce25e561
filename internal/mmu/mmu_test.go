package mmu

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"trio/internal/nvm"
)

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 2, PagesPerNode: 32})
	return NewAddressSpace(dev, 0)
}

func TestUnmappedAccessFaults(t *testing.T) {
	as := newAS(t)
	buf := make([]byte, 8)
	if err := as.Read(1, 0, buf); !errors.Is(err, ErrFault) {
		t.Errorf("read of unmapped page: err = %v, want ErrFault", err)
	}
	if err := as.Write(1, 0, buf); !errors.Is(err, ErrFault) {
		t.Errorf("write of unmapped page: err = %v, want ErrFault", err)
	}
}

func TestReadOnlyMappingRejectsWrites(t *testing.T) {
	as := newAS(t)
	as.Map(2, 1, PermRead)
	buf := make([]byte, 8)
	if err := as.Read(2, 0, buf); err != nil {
		t.Errorf("read of RO page failed: %v", err)
	}
	if err := as.Write(2, 0, buf); !errors.Is(err, ErrFault) {
		t.Errorf("write through RO mapping: err = %v, want ErrFault", err)
	}
}

func TestWriteMappingAllowsBoth(t *testing.T) {
	as := newAS(t)
	as.Map(3, 1, PermWrite)
	want := []byte("core state")
	if err := as.Write(3, 64, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := as.Read(3, 64, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip got %q, want %q", got, want)
	}
}

func TestUnmapRevokesAccess(t *testing.T) {
	as := newAS(t)
	as.Map(4, 2, PermWrite)
	as.Unmap(4, 1)
	if err := as.Read(4, 0, make([]byte, 1)); !errors.Is(err, ErrFault) {
		t.Error("access after unmap should fault")
	}
	if err := as.Read(5, 0, make([]byte, 1)); err != nil {
		t.Errorf("page 5 still mapped, read failed: %v", err)
	}
	as.UnmapAll(nil)
	if err := as.Read(5, 0, make([]byte, 1)); !errors.Is(err, ErrFault) {
		t.Error("access after UnmapAll should fault")
	}
}

func TestMappedCountAndPermOf(t *testing.T) {
	as := newAS(t)
	for _, p := range []nvm.PageID{7, 9, 11} {
		as.Map(p, 1, PermRead)
	}
	if as.Mapped() != 3 {
		t.Fatalf("Mapped = %d, want 3", as.Mapped())
	}
	if as.PermOf(9) != PermRead {
		t.Fatalf("PermOf(9) = %v, want r", as.PermOf(9))
	}
	if as.PermOf(8) != PermNone {
		t.Fatalf("PermOf(8) = %v, want none", as.PermOf(8))
	}
	as.Unmap(7, 1)
	as.Unmap(10, 4) // page 11, and a clip at nothing mapped
	if as.Mapped() != 1 {
		t.Fatalf("Mapped after Unmap = %d, want 1", as.Mapped())
	}
}

func TestTwoAddressSpacesAreIsolated(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 16})
	a := NewAddressSpace(dev, 0)
	b := NewAddressSpace(dev, 0)
	a.Map(1, 1, PermWrite)
	if err := a.Write(1, 0, []byte("A's page")); err != nil {
		t.Fatal(err)
	}
	// B cannot read A's page without its own mapping...
	if err := b.Read(1, 0, make([]byte, 8)); !errors.Is(err, ErrFault) {
		t.Error("B read A's page without a mapping")
	}
	// ...but shares content once the (trusted) controller maps it.
	b.Map(1, 1, PermRead)
	got := make([]byte, 8)
	if err := b.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "A's page" {
		t.Fatalf("B read %q", got)
	}
}

func TestU64RoundTrip(t *testing.T) {
	as := newAS(t)
	as.Map(6, 1, PermWrite)
	if err := as.WriteU64(6, 24, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(6, 24)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("ReadU64 = %#x", v)
	}
}

func TestWriteU128Alignment(t *testing.T) {
	as := newAS(t)
	as.Map(6, 1, PermWrite)
	var b [16]byte
	if err := as.WriteU128(6, 8, b); err == nil {
		t.Error("unaligned WriteU128 should fail")
	}
	if err := as.WriteU128(6, 32, b); err != nil {
		t.Errorf("aligned WriteU128 failed: %v", err)
	}
}

func TestPersistRequiresMapping(t *testing.T) {
	as := newAS(t)
	if err := as.Persist(1, 0, 64); !errors.Is(err, ErrFault) {
		t.Error("persist of unmapped page should fault")
	}
	as.Map(1, 1, PermRead)
	if err := as.Persist(1, 0, 64); err != nil {
		t.Errorf("persist of mapped page failed: %v", err)
	}
}

func TestPropertyPermissionLattice(t *testing.T) {
	// For any page and any mapped permission, reads succeed iff
	// perm >= PermRead and writes succeed iff perm >= PermWrite.
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 64})
	f := func(page uint8, perm uint8) bool {
		as := NewAddressSpace(dev, 0)
		p := nvm.PageID(page) % dev.NumPages()
		pm := Perm(perm % 3)
		if pm != PermNone {
			as.Map(p, 1, pm)
		}
		rErr := as.Read(p, 0, make([]byte, 1))
		wErr := as.Write(p, 0, make([]byte, 1))
		wantR := pm >= PermRead
		wantW := pm >= PermWrite
		return (rErr == nil) == wantR && (wErr == nil) == wantW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
