// The scrub engine: incremental CRC auditing of core-state pages. A
// Scrubber cross-checks a page's content against its checksum record
// (core.LoadChecksum) and, for pages nobody is writing, seals records
// that have never carried a CRC so coverage converges toward 100%.
//
// The Scrubber itself is policy-free: it reads a page, classifies the
// record, and reports a verdict. Scheduling (which pages, how fast,
// under which locks), repair, and quarantine live in the controller —
// the trusted component — which drives ScrubPage under each mapping
// session's MMU shootdown barrier so no in-flight store can race the
// audit.
package verifier

import (
	"errors"

	"trio/internal/core"
	"trio/internal/nvm"
)

// ErrScrubRange reports a page id outside the scrubber's device.
var ErrScrubRange = errors.New("verifier: scrub page out of range")

// ScrubVerdict classifies the outcome of auditing one page.
type ScrubVerdict int

const (
	// ScrubOK: the record was sealed and the CRC matched the content.
	ScrubOK ScrubVerdict = iota
	// ScrubMismatch: the record was sealed but the content's CRC
	// disagrees — latent corruption.
	ScrubMismatch
	// ScrubSealed: the record was unknown or open and the scrubber
	// sealed it with the content's CRC (seal=true and no writer).
	ScrubSealed
	// ScrubSkipped: the record was unknown or open and was left alone
	// (seal=false); nothing can be said about the page.
	ScrubSkipped
)

func (v ScrubVerdict) String() string {
	switch v {
	case ScrubOK:
		return "ok"
	case ScrubMismatch:
		return "mismatch"
	case ScrubSealed:
		return "sealed"
	case ScrubSkipped:
		return "skipped"
	}
	return "invalid"
}

// Scrubber audits pages against the checksum table.
type Scrubber struct {
	mem   core.Mem
	total nvm.PageID
	buf   []byte
}

// NewScrubber audits the given device through a direct (trusted)
// mapping on node 0.
func NewScrubber(dev *nvm.Device) *Scrubber {
	return NewScrubberWithMem(core.Direct(dev, 0), dev.NumPages())
}

// NewScrubberWithMem audits through an arbitrary Mem (e.g. a
// fault-retrying wrapper). total is the device's page count, which
// fixes the checksum-table geometry.
func NewScrubberWithMem(m core.Mem, total nvm.PageID) *Scrubber {
	return &Scrubber{mem: m, total: total, buf: make([]byte, nvm.PageSize)}
}

// ScrubPage audits page p. If the record is sealed it recomputes the
// content CRC and reports ScrubOK or ScrubMismatch (returning both the
// expected and the actual CRC). If the record is unknown or open and
// seal is true — the caller guarantees no writer holds the page — the
// scrubber seals the current content so future passes can check it;
// otherwise the page is skipped. The returned crc values are
// (want, got): for non-sealed verdicts want is the record's stored CRC
// (meaningless when unknown) and got the freshly computed one.
func (s *Scrubber) ScrubPage(p nvm.PageID, seal bool) (ScrubVerdict, uint32, uint32, error) {
	if p >= s.total {
		return ScrubSkipped, 0, 0, ErrScrubRange
	}
	rec, err := core.LoadChecksum(s.mem, s.total, p)
	if err != nil {
		return ScrubSkipped, 0, 0, err
	}
	if err := s.mem.Read(p, 0, s.buf); err != nil {
		return ScrubSkipped, core.ChecksumCRC(rec), 0, err
	}
	got := core.PageCRC(s.buf)
	want := core.ChecksumCRC(rec)
	mScrubPages.Inc()
	if core.ChecksumSealed(rec) {
		if got != want {
			mScrubMismatches.Inc()
			return ScrubMismatch, want, got, nil
		}
		return ScrubOK, want, got, nil
	}
	if !seal {
		return ScrubSkipped, want, got, nil
	}
	// SealChecksum requires the covered content be durable. A page left
	// open by a writer that died between its stores and its Persist may
	// still hold unpersisted lines; flush them first so a crash can never
	// roll the data back out from under the durable seal.
	if err := s.mem.Persist(p, 0, nvm.PageSize); err != nil {
		return ScrubSkipped, want, got, err
	}
	s.mem.Fence()
	if err := core.SealChecksum(s.mem, s.total, p, got); err != nil {
		return ScrubSkipped, want, got, err
	}
	mScrubSealed.Inc()
	return ScrubSealed, got, got, nil
}

// NoteSealedRun records n pages audited-and-sealed by a bulk seal path
// outside the Scrubber (the controller's extent-coalesced unmap-time
// seal), keeping the package telemetry consistent with per-page scrubs.
func NoteSealedRun(n int) {
	mScrubPages.Add(int64(n))
	mScrubSealed.Add(int64(n))
}
