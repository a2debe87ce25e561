package core

import (
	"errors"
	"testing"

	"trio/internal/nvm"
)

func TestChecksumGeometry(t *testing.T) {
	for _, tc := range []struct {
		total nvm.PageID
		want  nvm.PageID // table pages
	}{
		{64, 1}, {512, 1}, {513, 2}, {8192, 16}, {1 << 15, 64},
	} {
		if got := ChecksumTablePages(tc.total); got != tc.want {
			t.Errorf("ChecksumTablePages(%d) = %d, want %d", tc.total, got, tc.want)
		}
		base := ChecksumBase(tc.total)
		if ChecksumHeaderPages(tc.total) != 1 {
			t.Errorf("total %d: %d header pages, want 1", tc.total, ChecksumHeaderPages(tc.total))
		}
		if base+ChecksumHeaderPages(tc.total)+ChecksumTablePages(tc.total) != tc.total {
			t.Errorf("total %d: base %d + header + table %d != total", tc.total, base, ChecksumTablePages(tc.total))
		}
		// The open bit of every allocatable page's granule lands in the
		// header, 8-byte aligned.
		for _, p := range []nvm.PageID{FirstFilePage, base - 1} {
			w, bit := GranuleBit(p)
			hp, off := GranuleWordLoc(tc.total, w)
			if hp != base || off%8 != 0 || off+8 > nvm.PageSize || bit != 1<<(p/nvm.GranulePages%64) {
				t.Errorf("total %d: open bit of page %d at page %d offset %d bit %#x", tc.total, p, hp, off, bit)
			}
		}
		// Every allocatable page's record must land inside the table.
		for _, p := range []nvm.PageID{FirstFilePage, base - 1} {
			tp, off := ChecksumLoc(tc.total, p)
			if tp <= base || tp >= tc.total {
				t.Errorf("total %d: record of page %d on page %d outside table [%d, %d)",
					tc.total, p, tp, base, tc.total)
			}
			if off < 0 || off+ChecksumRecordSize > nvm.PageSize || off%ChecksumRecordSize != 0 {
				t.Errorf("total %d: record of page %d at bad offset %d", tc.total, p, off)
			}
			// 8-byte aligned records never straddle a cacheline.
			if off/nvm.CacheLineSize != (off+ChecksumRecordSize-1)/nvm.CacheLineSize {
				t.Errorf("record of page %d straddles a cacheline", p)
			}
		}
	}
}

func TestChecksumRecordStates(t *testing.T) {
	if ChecksumSealed(0) || ChecksumIsOpen(0) {
		t.Fatal("zero record must be unknown: neither sealed nor open")
	}
	rec := PackChecksum(1, 0xdeadbeef)
	if !ChecksumIsOpen(rec) || ChecksumSealed(rec) {
		t.Fatal("odd sequence must be open")
	}
	rec = PackChecksum(2, 0xdeadbeef)
	if !ChecksumSealed(rec) || ChecksumIsOpen(rec) {
		t.Fatal("even sequence >= 2 must be sealed")
	}
	if ChecksumCRC(rec) != 0xdeadbeef || ChecksumSeq(rec) != 2 {
		t.Fatal("pack/unpack mismatch")
	}
}

func TestChecksumOpenSealCycle(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 64})
	m := Direct(dev, 0)
	total := dev.NumPages()
	const p = nvm.PageID(5)

	rec, err := LoadChecksum(m, total, p)
	if err != nil || rec != 0 {
		t.Fatalf("fresh record = %#x, %v (want unknown)", rec, err)
	}

	// unknown -> open
	wrote, err := OpenChecksum(m, total, p)
	if err != nil || !wrote {
		t.Fatalf("OpenChecksum = %v, %v", wrote, err)
	}
	// open -> open is a no-op
	wrote, err = OpenChecksum(m, total, p)
	if err != nil || wrote {
		t.Fatalf("re-open wrote = %v, %v", wrote, err)
	}

	data := make([]byte, nvm.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.Write(p, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := SealChecksum(m, total, p, PageCRC(data)); err != nil {
		t.Fatal(err)
	}
	rec, err = LoadChecksum(m, total, p)
	if err != nil || !ChecksumSealed(rec) {
		t.Fatalf("after seal: rec %#x, %v", rec, err)
	}
	if ChecksumCRC(rec) != PageCRC(data) {
		t.Fatal("sealed CRC does not match content")
	}

	// sealed -> open bumps the epoch; seal again closes it.
	seq := ChecksumSeq(rec)
	if wrote, err := OpenChecksum(m, total, p); err != nil || !wrote {
		t.Fatalf("open sealed record = %v, %v", wrote, err)
	}
	rec, _ = LoadChecksum(m, total, p)
	if ChecksumSeq(rec) != seq+1 || !ChecksumIsOpen(rec) {
		t.Fatalf("open seq = %d, want %d", ChecksumSeq(rec), seq+1)
	}
	if err := SealChecksum(m, total, p, PageCRC(data)); err != nil {
		t.Fatal(err)
	}
	rec, _ = LoadChecksum(m, total, p)
	if ChecksumSeq(rec) != seq+2 || !ChecksumSealed(rec) {
		t.Fatalf("re-seal seq = %d, want %d", ChecksumSeq(rec), seq+2)
	}
}

// TestChecksumCrashRollsSealBackToOpen is the crash-consistency core of
// the protocol: the open mark persists before the data stores, the seal
// only after, so a crash anywhere inside the window leaves the record
// open (no check) rather than sealed-but-stale (false positive).
func TestChecksumCrashRollsSealBackToOpen(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 64, TrackPersistence: true})
	m := Direct(dev, 0)
	total := dev.NumPages()
	const p = nvm.PageID(7)

	// Seal a baseline.
	if err := SealChecksum(m, total, p, PageCRC(make([]byte, nvm.PageSize))); err != nil {
		t.Fatal(err)
	}
	m.Fence()

	// Open (persisted, fenced), store new data, seal — but crash before
	// the seal's persist takes effect by tearing nothing: simply crash
	// after writing the seal without persisting it.
	if _, err := OpenChecksum(m, total, p); err != nil {
		t.Fatal(err)
	}
	m.Fence()
	if err := m.Write(p, 0, []byte("fresh data")); err != nil {
		t.Fatal(err)
	}
	tp, off := ChecksumLoc(total, p)
	openRec, _ := m.ReadU64(tp, off)
	// Unpersisted seal write: must roll back at crash.
	if err := m.WriteU64(tp, off, PackChecksum(ChecksumSeq(openRec)+1, 0x12345678)); err != nil {
		t.Fatal(err)
	}
	dev.Tracker().Crash()

	rec, err := LoadChecksum(m, total, p)
	if err != nil {
		t.Fatal(err)
	}
	if !ChecksumIsOpen(rec) {
		t.Fatalf("post-crash record %#x: want the durable open mark", rec)
	}
}

// TestFormatVersionChecked: a mount reads the superblock's version and
// the checksum region's magic, version and granule size, and a device
// that differs in any of them is refused with ErrFormatVersion — a blank
// one with ErrUnformatted, which a mount formats.
func TestFormatVersionChecked(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 256})
	m := Direct(dev, 0)
	total := dev.NumPages()
	if err := CheckFormat(m, total); !errors.Is(err, ErrUnformatted) {
		t.Fatalf("blank device: %v, want ErrUnformatted", err)
	}
	if err := Format(dev); err != nil {
		t.Fatal(err)
	}
	if err := CheckFormat(m, total); err != nil {
		t.Fatalf("fresh format: %v", err)
	}
	for _, tc := range []struct {
		name string
		page nvm.PageID
		off  int
	}{
		{"superblock version", 0, 8},
		{"region magic", ChecksumBase(total), 1},
		{"region version", ChecksumBase(total), 3},
		{"region granule size", ChecksumBase(total), 4},
	} {
		dev.Page(tc.page)[tc.off]++
		if err := CheckFormat(m, total); !errors.Is(err, ErrFormatVersion) {
			t.Errorf("%s changed: %v, want ErrFormatVersion", tc.name, err)
		}
		dev.Page(tc.page)[tc.off]--
	}
	if err := CheckFormat(m, total); err != nil {
		t.Fatalf("restored: %v", err)
	}
}
