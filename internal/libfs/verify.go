// Optional read-path CRC verification (ISSUE 5): when Config.VerifyReads
// is set, every page a ReadAt covers in full is cross-checked against
// its checksum record before the bytes are returned, so latent
// corruption the background scrubber has not reached yet still cannot
// be silently served. Off by default — the overhead is measured in
// EXPERIMENTS.md ("Integrity scrubbing").
//
// Race discipline: the record and its granule's open bit are loaded
// before the data read is issued (rec1, open1) and again after a CRC
// mismatch (rec2, open2). A condemnation requires both unchanged and the
// record trusted (core.ChecksumTrusted): any legitimate concurrent writer
// first has its page opened at grant time — its record made odd, or its
// granule's bit set — and a writer's release reseals every page it
// stored to with a new sequence word before the bit may clear, so an
// unchanged trusted record across the whole read window proves the
// content was quiescent — the mismatch is media rot, not a racing store.
// A page under a set bit is not checked until the bit clears.
package libfs

import (
	"fmt"

	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/nvm"
)

// crcCheck is one fully-covered page of an in-flight ReadAt.
type crcCheck struct {
	page    nvm.PageID
	rec     uint64 // record loaded before the data read
	trusted bool   // and whether it was trusted then (no open bit)
	buf     []byte // the page's bytes in the caller's buffer
}

// collectCRCChecks records the fully-covered pages of one extent
// segment [lo, hi) of a ReadAt, loading each page's checksum record
// ahead of the data read. b is the caller's buffer for file offset off.
func (fs *FS) collectCRCChecks(checks []crcCheck, b []byte, off, lo, hi, extStart int64, ePage nvm.PageID) []crcCheck {
	total := fs.dev.NumPages()
	ps := lo
	if rem := ps % nvm.PageSize; rem != 0 {
		ps += nvm.PageSize - rem
	}
	for ; ps+nvm.PageSize <= hi; ps += nvm.PageSize {
		page := ePage + nvm.PageID((ps-extStart)/nvm.PageSize)
		rec, trusted, err := core.LoadChecksumTrusted(fs.as, total, page)
		if err != nil {
			continue // table unreadable: skip, never fail the read
		}
		checks = append(checks, crcCheck{page: page, rec: rec, trusted: trusted, buf: b[ps-off : ps-off+nvm.PageSize]})
	}
	return checks
}

// verifyCRCChecks audits the collected pages after the data landed in
// the caller's buffer. Returns fsapi.ErrCorrupt on a proven mismatch.
func (fs *FS) verifyCRCChecks(cpu int, checks []crcCheck) error {
	total := fs.dev.NumPages()
	for i := range checks {
		ck := &checks[i]
		if !ck.trusted {
			continue // open, unknown or under an open bit: a writer holds it, nothing to check
		}
		mReadVerified.IncOn(cpu)
		if core.PageCRC(ck.buf) == core.ChecksumCRC(ck.rec) {
			continue
		}
		rec2, trusted2, err := core.LoadChecksumTrusted(fs.as, total, ck.page)
		if err == nil && (rec2 != ck.rec || !trusted2) {
			continue // record moved or bit set mid-read: a writer or the scrubber raced us
		}
		mReadVerifyFail.IncOn(cpu)
		return fmt.Errorf("%w: page %d content crc %08x != sealed record %08x",
			fsapi.ErrCorrupt, ck.page, core.PageCRC(ck.buf), core.ChecksumCRC(ck.rec))
	}
	return nil
}
