// Per-page CRC32C checksum records: the end-to-end integrity layer the
// online scrubber audits. The last pages of the device hold the
// checksum region — a versioned header with one open bit per granule,
// then a flat table with one 8-byte record per page; the allocator never
// hands those pages out, so the region is core state shared — like
// everything else in this package — by every LibFS, the controller and
// the verifier.
//
// Region layout (all little-endian; "iff" means if and only if):
//
//	[ChecksumBase, +ChecksumHeaderPages)  header, then the open bitmap
//	[..., total)                          the record table
//
// Header:
//
//  1. 3 bytes magic: 0x43, 0x4b, 0x52 (ASCII "CKR")
//  2. uint8 version number
//
// Version 0x01:
//
//  3. uint8 granule shift (nvm.GranuleShift: 32-page granules)
//  4. 3 bytes reserved, zero
//  5. from byte 8, the open bitmap: bit g%64 of uint64 word g/64 is set
//     iff granule g — pages [32g, 32g+32) — is open: any of its records
//     may be stale, because a write grant holds or held every page of it
//     and the pages it stored to are not all resealed behind a fence yet.
//
// Record format (one little-endian uint64):
//
//	bits  0..31  CRC32C (Castagnoli) of the page's 4096 bytes
//	bits 32..63  sequence word:
//	               0        unknown — never sealed (fresh device); no check
//	               odd      open    — a writer holds the page; no check
//	               even ≥ 2 sealed  — the CRC matches the page content
//
// A reader trusts a record iff it is sealed and its granule's bit is clear
// (ChecksumTrusted) — the record is then "effectively sealed".
//
// Update protocol ("checksum-behind" with the sequence word as epoch
// bit), at two levels. A page a grant covers by itself: before the first
// store to a sealed page the writer marks the record open (seq+1, odd)
// and persists it; only after the data stores are durable may anyone seal
// the record (even seq) with the new CRC. A granule a grant covers whole:
// the granule's bit is set and persisted instead, its records untouched;
// the release reseals the pages stored to, and the bit clears only after
// a fence that follows those seals. Either way a crash inside the window
// leaves the page open, unknown or under a set bit — states no reader
// trusts — and a trusted record never disagrees with durable content, so
// recovery sees no false positives. An 8-byte aligned record or bitmap
// word never straddles a cacheline, so a torn one is impossible on the
// modeled hardware.
package core

import (
	"fmt"
	"hash/crc32"

	"trio/internal/nvm"
)

// ChecksumRecordSize is the per-page record footprint in the table.
const ChecksumRecordSize = 8

// ChecksumRecordsPerPage is how many page records one table page holds.
const ChecksumRecordsPerPage = nvm.PageSize / ChecksumRecordSize

// Checksum region header constants.
const (
	// checksumRegionVersion is the region layout this package reads.
	checksumRegionVersion = 1
	// checksumHeaderSize is the header's footprint before the bitmap.
	checksumHeaderSize = 8
)

// checksumMagic opens the region header: ASCII "CKR".
var checksumMagic = [3]byte{0x43, 0x4b, 0x52}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageCRC computes the CRC32C of page content.
func PageCRC(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ChecksumTablePages reports how many pages the checksum table of a
// device with total pages occupies. The table covers every page id up
// to total (records for the region's own pages exist but stay unknown).
func ChecksumTablePages(total nvm.PageID) nvm.PageID {
	return (total + ChecksumRecordsPerPage - 1) / ChecksumRecordsPerPage
}

// GranuleWords reports how many bitmap words cover the granules of a
// device with total pages.
func GranuleWords(total nvm.PageID) int {
	granules := (total + nvm.GranulePages - 1) >> nvm.GranuleShift
	return int((granules + 63) / 64)
}

// ChecksumHeaderPages reports how many pages the region header and its
// open bitmap occupy: one page for up to 4 GiB of device.
func ChecksumHeaderPages(total nvm.PageID) nvm.PageID {
	return nvm.PageID(checksumHeaderSize+8*GranuleWords(total)+nvm.PageSize-1) / nvm.PageSize
}

// ChecksumBase is the first page of the checksum region; allocatable
// file pages are [FirstFilePage, ChecksumBase).
func ChecksumBase(total nvm.PageID) nvm.PageID {
	return total - ChecksumTablePages(total) - ChecksumHeaderPages(total)
}

// ChecksumLoc locates the record of page p: the table page holding it
// and the byte offset within that page.
func ChecksumLoc(total nvm.PageID, p nvm.PageID) (nvm.PageID, int) {
	return total - ChecksumTablePages(total) + p/ChecksumRecordsPerPage,
		int(p%ChecksumRecordsPerPage) * ChecksumRecordSize
}

// GranuleWordLoc locates bitmap word w: the header page holding it and
// the byte offset within that page.
func GranuleWordLoc(total nvm.PageID, w int) (nvm.PageID, int) {
	off := checksumHeaderSize + 8*w
	return ChecksumBase(total) + nvm.PageID(off/nvm.PageSize), off % nvm.PageSize
}

// GranuleBit names the open bit of page p's granule: its bitmap word and
// the bit's mask within it.
func GranuleBit(p nvm.PageID) (w int, bit uint64) {
	g := p >> nvm.GranuleShift
	return int(g / 64), 1 << (g % 64)
}

// PackChecksum assembles a record from its sequence word and CRC.
func PackChecksum(seq, crc uint32) uint64 { return uint64(seq)<<32 | uint64(crc) }

// ChecksumSeq extracts the sequence word.
func ChecksumSeq(rec uint64) uint32 { return uint32(rec >> 32) }

// ChecksumCRC extracts the CRC.
func ChecksumCRC(rec uint64) uint32 { return uint32(rec) }

// ChecksumSealed reports whether the record carries a CRC. Whether a
// reader may trust it also depends on the granule's bit: ChecksumTrusted.
func ChecksumSealed(rec uint64) bool {
	seq := ChecksumSeq(rec)
	return seq != 0 && seq%2 == 0
}

// ChecksumIsOpen reports whether the record is in a write window.
func ChecksumIsOpen(rec uint64) bool { return ChecksumSeq(rec)%2 == 1 }

// ChecksumTrusted is the one "effectively sealed" predicate: a record
// vouches for its page's content iff it is sealed and no open bit covers
// the page's granule. Every reader of the region — the scrubber's
// coverage count, the read path's check, the tools — decides with it.
func ChecksumTrusted(rec uint64, granuleOpen bool) bool {
	return ChecksumSealed(rec) && !granuleOpen
}

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

// LoadChecksumTrusted reads page p's record and its granule's open bit,
// and reports whether the record is trusted (ChecksumTrusted).
func LoadChecksumTrusted(m Mem, total nvm.PageID, p nvm.PageID) (uint64, bool, error) {
	rec, err := LoadChecksum(m, total, p)
	if err != nil {
		return 0, false, err
	}
	w, bit := GranuleBit(p)
	hp, off := GranuleWordLoc(total, w)
	word, err := m.ReadU64(hp, off)
	return rec, err == nil && ChecksumTrusted(rec, word&bit != 0), err
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

// writeChecksumHeader writes and persists the region header of a fresh
// device. A blank device's bitmap already reads all clear.
func writeChecksumHeader(m Mem, total nvm.PageID) error {
	var b [checksumHeaderSize]byte
	copy(b[:], checksumMagic[:])
	b[3] = checksumRegionVersion
	b[4] = nvm.GranuleShift
	hp := ChecksumBase(total)
	if err := m.Write(hp, 0, b[:]); err != nil {
		return err
	}
	return m.Persist(hp, 0, len(b))
}

// checkChecksumHeader rejects a region header this package cannot read.
func checkChecksumHeader(m Mem, total nvm.PageID) error {
	var b [checksumHeaderSize]byte
	if err := m.Read(ChecksumBase(total), 0, b[:]); err != nil {
		return err
	}
	switch {
	case [3]byte(b[:3]) != checksumMagic:
		return fmt.Errorf("%w: checksum region magic % x", ErrFormatVersion, b[:3])
	case b[3] != checksumRegionVersion:
		return fmt.Errorf("%w: checksum region version %d, this build reads %d", ErrFormatVersion, b[3], checksumRegionVersion)
	case b[4] != nvm.GranuleShift:
		return fmt.Errorf("%w: checksum granules of 2^%d pages, this build uses 2^%d", ErrFormatVersion, b[4], nvm.GranuleShift)
	}
	return nil
}
