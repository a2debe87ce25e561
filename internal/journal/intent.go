// IntentLog is the undo journal's redo-flavored sibling. Where Journal
// logs *pre-images* so an interrupted transaction can be rolled back,
// IntentLog logs *intents* — opaque records describing work the caller
// is about to perform against a foreign, non-transactional medium — so
// an interrupted pipeline can be rolled forward. It has no importer
// today; it is kept as the substrate for a duplicate-request cache
// that survives a server restart (ROADMAP item 5).
//
// The work an intent describes must be idempotent: after a crash the
// recovery program re-executes every sealed intent, and the original
// execution may have partially happened (the foreign write can land
// even after the caller lost the acknowledgement).
//
// On-NVM layout of one intent page (same arming discipline as the undo
// journal, so the crash-point scheduler sees the same persist shape):
//
//	off 0:   sealed flag (u64; 0 = idle, 1 = intents armed)
//	off 8:   record count (u64)
//	off 16+: records: {len u32, payload …} packed
//
// Write protocol: records are written and persisted while the flag is
// still 0 (a crash here leaves nothing armed — the pipeline never
// started); Seal persists flag+count as one 16-byte atomic store behind
// a fence. Commit clears the flag after the described work completed.
package journal

import (
	"encoding/binary"
	"fmt"

	"trio/internal/core"
	"trio/internal/nvm"
)

const intRecHdr = 4 // payload length u32

// IntentLog is a redo-style intent record page.
type IntentLog struct {
	mem  core.Mem
	page nvm.PageID
}

// NewIntentLog creates an intent log over the given NVM page and
// resets it to idle.
func NewIntentLog(mem core.Mem, page nvm.PageID) (*IntentLog, error) {
	l := AttachIntentLog(mem, page)
	if err := l.reset(); err != nil {
		return nil, err
	}
	return l, nil
}

// AttachIntentLog opens an existing intent page without resetting it,
// so recovery can inspect a post-crash image.
func AttachIntentLog(mem core.Mem, page nvm.PageID) *IntentLog {
	return &IntentLog{mem: retryMem{mem}, page: page}
}

// Page returns the backing page.
func (l *IntentLog) Page() nvm.PageID { return l.page }

func (l *IntentLog) reset() error {
	if err := l.mem.WriteU64(l.page, hdrFlagOff, 0); err != nil {
		return err
	}
	if err := l.mem.Persist(l.page, hdrFlagOff, 8); err != nil {
		return err
	}
	l.mem.Fence()
	return nil
}

// Intent is one open intent batch.
type Intent struct {
	l     *IntentLog
	off   int
	count uint64
	open  bool
}

// Begin opens an intent batch. Only one may be in flight per log; the
// caller serializes.
func (l *IntentLog) Begin() *Intent {
	return &Intent{l: l, off: recStart, open: true}
}

// Add appends one opaque intent record and persists it. The payload is
// the caller's own encoding of the work to re-execute.
func (in *Intent) Add(payload []byte) error {
	if !in.open {
		return fmt.Errorf("journal: intent closed")
	}
	n := len(payload)
	if in.off+intRecHdr+n > nvm.PageSize {
		return fmt.Errorf("journal: intent batch too large (%d bytes used)", in.off)
	}
	var hdr [intRecHdr]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	if err := in.l.mem.Write(in.l.page, in.off, hdr[:]); err != nil {
		return err
	}
	if err := in.l.mem.Write(in.l.page, in.off+intRecHdr, payload); err != nil {
		return err
	}
	if err := in.l.mem.Persist(in.l.page, in.off, intRecHdr+n); err != nil {
		return err
	}
	in.off += intRecHdr + n
	in.count++
	return nil
}

// Seal arms the batch: from this point until Commit, a crash leaves the
// records recoverable through Pending. Flag and count share one
// 16-byte atomic store behind a fence ordering the records first.
func (in *Intent) Seal() error {
	if !in.open {
		return fmt.Errorf("journal: intent closed")
	}
	in.open = false
	in.l.mem.Fence()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], 1)
	binary.LittleEndian.PutUint64(hdr[8:], in.count)
	if err := in.l.mem.Write(in.l.page, hdrFlagOff, hdr[:]); err != nil {
		return err
	}
	if err := in.l.mem.Persist(in.l.page, hdrFlagOff, 16); err != nil {
		return err
	}
	in.l.mem.Fence()
	return nil
}

// Commit retires the sealed batch after the described work completed.
func (l *IntentLog) Commit() error { return l.reset() }

// Pending returns the sealed intent payloads, or nil when the log is
// idle — the post-crash read. A corrupt record header (impossible
// under the write protocol, since records persist before the seal)
// fails loudly rather than silently dropping intents.
func (l *IntentLog) Pending() ([][]byte, error) {
	flag, err := l.mem.ReadU64(l.page, hdrFlagOff)
	if err != nil {
		return nil, err
	}
	if flag == 0 {
		return nil, nil
	}
	count, err := l.mem.ReadU64(l.page, hdrCountOff)
	if err != nil {
		return nil, err
	}
	off := recStart
	out := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		var hdr [intRecHdr]byte
		if err := l.mem.Read(l.page, off, hdr[:]); err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 0 || off+intRecHdr+n > nvm.PageSize {
			return nil, fmt.Errorf("journal: corrupt intent record %d", i)
		}
		payload := make([]byte, n)
		if err := l.mem.Read(l.page, off+intRecHdr, payload); err != nil {
			return nil, err
		}
		out = append(out, payload)
		off += intRecHdr + n
	}
	return out, nil
}
