// Per-page CRC32C checksum records: the end-to-end integrity layer the
// online scrubber audits (ISSUE 5). The last pages of the device hold a
// flat table with one 8-byte record per page; the allocator never hands
// those pages out, so the table is core state shared — like everything
// else in this package — by every LibFS, the controller and the
// verifier.
//
// Record format (one little-endian uint64):
//
//	bits  0..31  CRC32C (Castagnoli) of the page's 4096 bytes
//	bits 32..63  sequence word:
//	               0        unknown — never sealed (fresh device); no check
//	               odd      open    — a writer holds the page; no check
//	               even ≥ 2 sealed  — the CRC matches the page content
//
// Update protocol ("checksum-behind" with the sequence word as epoch
// bit): before the first store to a sealed page the writer marks the
// record open (seq+1, odd) and persists it; only after the data stores
// are durable may anyone seal the record (even seq) with the new CRC.
// A crash inside the window therefore rolls the record back to open or
// unknown — states the scrubber skips — and a sealed record can never
// disagree with durable content, so recovery sees no false positives.
// An 8-byte aligned record never straddles a cacheline, so a torn
// record is impossible on the modeled hardware.
package core

import (
	"hash/crc32"

	"trio/internal/nvm"
)

// ChecksumRecordSize is the per-page record footprint in the table.
const ChecksumRecordSize = 8

// ChecksumRecordsPerPage is how many page records one table page holds.
const ChecksumRecordsPerPage = nvm.PageSize / ChecksumRecordSize

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageCRC computes the CRC32C of page content.
func PageCRC(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ChecksumTablePages reports how many pages the checksum table of a
// device with total pages occupies. The table covers every page id up
// to total (records for the table's own pages exist but stay unknown).
func ChecksumTablePages(total nvm.PageID) nvm.PageID {
	return (total + ChecksumRecordsPerPage - 1) / ChecksumRecordsPerPage
}

// ChecksumBase is the first page of the checksum table; allocatable
// file pages are [FirstFilePage, ChecksumBase).
func ChecksumBase(total nvm.PageID) nvm.PageID {
	return total - ChecksumTablePages(total)
}

// ChecksumLoc locates the record of page p: the table page holding it
// and the byte offset within that page.
func ChecksumLoc(total nvm.PageID, p nvm.PageID) (nvm.PageID, int) {
	return ChecksumBase(total) + p/ChecksumRecordsPerPage,
		int(p%ChecksumRecordsPerPage) * ChecksumRecordSize
}

// PackChecksum assembles a record from its sequence word and CRC.
func PackChecksum(seq, crc uint32) uint64 { return uint64(seq)<<32 | uint64(crc) }

// ChecksumSeq extracts the sequence word.
func ChecksumSeq(rec uint64) uint32 { return uint32(rec >> 32) }

// ChecksumCRC extracts the CRC.
func ChecksumCRC(rec uint64) uint32 { return uint32(rec) }

// ChecksumSealed reports whether the record carries a valid CRC.
func ChecksumSealed(rec uint64) bool {
	seq := ChecksumSeq(rec)
	return seq != 0 && seq%2 == 0
}

// ChecksumIsOpen reports whether the record is in a write window.
func ChecksumIsOpen(rec uint64) bool { return ChecksumSeq(rec)%2 == 1 }

// ChecksumSealSeq is the sequence word that seals a record currently at
// seq: the next even value, never 0.
func ChecksumSealSeq(seq uint32) uint32 {
	if seq%2 == 1 {
		seq++ // close the open window
	} else {
		seq += 2 // re-seal (or first seal of an unknown record)
	}
	if seq == 0 { // wrapped into "unknown": skip ahead to a sealed epoch
		seq = 2
	}
	return seq
}

// LoadChecksum reads the record of page p.
func LoadChecksum(m Mem, total nvm.PageID, p nvm.PageID) (uint64, error) {
	tp, off := ChecksumLoc(total, p)
	return m.ReadU64(tp, off)
}

// OpenChecksum marks page p's record open (odd sequence) ahead of data
// stores, persisting the mark. It reports whether a mark was written:
// an already-open record needs nothing, and the caller only has to
// Fence (ordering the mark before its data stores) when any page of
// its write set reported true.
func OpenChecksum(m Mem, total nvm.PageID, p nvm.PageID) (bool, error) {
	tp, off := ChecksumLoc(total, p)
	rec, err := m.ReadU64(tp, off)
	if err != nil {
		return false, err
	}
	if ChecksumIsOpen(rec) {
		return false, nil
	}
	if err := m.WriteU64(tp, off, PackChecksum(ChecksumSeq(rec)+1, ChecksumCRC(rec))); err != nil {
		return false, err
	}
	if err := m.Persist(tp, off, ChecksumRecordSize); err != nil {
		return false, err
	}
	return true, nil
}

// SealChecksum publishes crc as page p's checksum with the next even
// sequence number and persists the record. Call only after the page
// content it covers is durable: a crash may roll the seal back to the
// open mark, never forward.
func SealChecksum(m Mem, total nvm.PageID, p nvm.PageID, crc uint32) error {
	tp, off := ChecksumLoc(total, p)
	rec, err := m.ReadU64(tp, off)
	if err != nil {
		return err
	}
	if err := m.WriteU64(tp, off, PackChecksum(ChecksumSealSeq(ChecksumSeq(rec)), crc)); err != nil {
		return err
	}
	return m.Persist(tp, off, ChecksumRecordSize)
}
