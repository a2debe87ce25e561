// Package journal implements the per-CPU undo journal ArckFS's LibFS
// uses for the few multi-page metadata operations — rename above all —
// that cannot ride on a single 16-byte atomic NVM store (paper §4.4,
// §4.5).
//
// The journal is LibFS-private auxiliary machinery that happens to live
// on NVM: before mutating the core state, the transaction logs the old
// bytes of every location it is about to touch; on a crash mid-
// transaction, the LibFS's recovery program replays the undo records,
// restoring the pre-transaction state, and the operation appears to
// never have happened (undo logging ⇒ atomicity).
//
// On-NVM layout of one journal page:
//
//	off 0:   committed flag (u64; 0 = idle, 1 = transaction in flight)
//	off 8:   record count (u64)
//	off 16+: records: {page u64, off u32, len u32, data …} packed
//
// Write protocol: records + count are persisted, fence, flag←1 persists,
// fence — only then does the transaction mutate the core state. The
// closing flag←0 persists after the mutations, making the undo window
// exact.
package journal

import (
	"encoding/binary"
	"fmt"

	"trio/internal/core"
	"trio/internal/nvm"
)

const (
	hdrFlagOff  = 0
	hdrCountOff = 8
	recStart    = 16
	recHdrSize  = 16 // page u64, off u32, len u32
)

// Journal is one undo journal backed by a single NVM page.
type Journal struct {
	mem  core.Mem
	page nvm.PageID
}

// retryMem wraps a Mem so every Persist rides the bounded
// transient-fault retry policy: a delayed-persistence window
// (nvm.ErrDeviceBusy) is retried with exponential backoff, and only
// surfaces as an error once the budget is exhausted. Hard media errors
// pass through untouched.
type retryMem struct {
	core.Mem
}

func (m retryMem) Persist(p nvm.PageID, off, n int) error {
	return nvm.RetryTransient(nvm.DefaultRetryPolicy(), func() error { return m.Mem.Persist(p, off, n) })
}

// New creates a journal over the given (LibFS-owned) NVM page and
// resets it to idle.
func New(mem core.Mem, page nvm.PageID) (*Journal, error) {
	j := &Journal{mem: retryMem{mem}, page: page}
	if err := j.reset(); err != nil {
		return nil, err
	}
	return j, nil
}

// Attach opens an existing journal page without resetting it, so that
// Recover can inspect a post-crash image.
func Attach(mem core.Mem, page nvm.PageID) *Journal {
	return &Journal{mem: retryMem{mem}, page: page}
}

// Page returns the backing page.
func (j *Journal) Page() nvm.PageID { return j.page }

func (j *Journal) reset() error {
	if err := j.mem.WriteU64(j.page, hdrFlagOff, 0); err != nil {
		return err
	}
	if err := j.mem.Persist(j.page, hdrFlagOff, 8); err != nil {
		return err
	}
	j.mem.Fence()
	return nil
}

// Tx is an open undo transaction.
type Tx struct {
	j     *Journal
	off   int // next free byte in the journal page
	count uint64
	open  bool
	// stage is where record headers, LogUndoWord's value and the arm
	// word are built: a buffer handed to j.mem (an interface) has to live
	// on the heap, and this way the Tx is the transaction's one
	// allocation instead of one per buffer.
	stage [recHdrSize + 8]byte
}

// Begin opens a transaction. Only one may be open per journal (the
// LibFS arranges one journal per CPU, so this never contends).
func (j *Journal) Begin() *Tx {
	return &Tx{j: j, off: recStart, open: true}
}

// LogUndo snapshots the current n bytes at (page, off) into the journal
// so they can be restored if the transaction never commits.
func (tx *Tx) LogUndo(page nvm.PageID, off, n int) error {
	old := make([]byte, n)
	if err := tx.j.mem.Read(page, off, old); err != nil {
		return err
	}
	return tx.LogUndoValue(page, off, old)
}

// LogUndoValue records an undo entry whose pre-image the caller already
// knows (e.g. a dirent commit word it read moments ago), skipping the
// NVM read LogUndo would pay.
func (tx *Tx) LogUndoValue(page nvm.PageID, off int, old []byte) error {
	n := len(old)
	if !tx.open {
		return fmt.Errorf("journal: transaction closed")
	}
	if tx.off+recHdrSize+n > nvm.PageSize {
		return fmt.Errorf("journal: transaction too large (%d bytes used)", tx.off)
	}
	hdr := tx.stage[:recHdrSize]
	binary.LittleEndian.PutUint64(hdr[0:], uint64(page))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(off))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(n))
	if err := tx.j.mem.Write(tx.j.page, tx.off, hdr); err != nil {
		return err
	}
	if err := tx.j.mem.Write(tx.j.page, tx.off+recHdrSize, old); err != nil {
		return err
	}
	if err := tx.j.mem.Persist(tx.j.page, tx.off, recHdrSize+n); err != nil {
		return err
	}
	tx.off += recHdrSize + n
	tx.count++
	return nil
}

// LogUndoWord is LogUndoValue for one little-endian 8-byte word — the
// shape of every record rename logs (dirent commit words) — taking the
// pre-image by value so the caller needs no buffer.
func (tx *Tx) LogUndoWord(page nvm.PageID, off int, old uint64) error {
	word := tx.stage[recHdrSize:]
	binary.LittleEndian.PutUint64(word, old)
	return tx.LogUndoValue(page, off, word)
}

// Seal publishes the undo records and arms the journal: from this point
// until Commit, a crash rolls the logged locations back. Call Seal after
// logging everything and before mutating the core state. The flag and
// count words share one 16-byte atomic store, so arming is a single
// fence-persist-fence sequence after the records.
func (tx *Tx) Seal() error {
	if !tx.open {
		return fmt.Errorf("journal: transaction closed")
	}
	tx.j.mem.Fence() // order the records before the arm word
	hdr := tx.stage[:16]
	binary.LittleEndian.PutUint64(hdr[0:], 1)
	binary.LittleEndian.PutUint64(hdr[8:], tx.count)
	if err := tx.j.mem.Write(tx.j.page, hdrFlagOff, hdr); err != nil {
		return err
	}
	if err := tx.j.mem.Persist(tx.j.page, hdrFlagOff, 16); err != nil {
		return err
	}
	tx.j.mem.Fence()
	return nil
}

// Commit disarms the journal after the core-state mutations persisted.
func (tx *Tx) Commit() error {
	if !tx.open {
		return fmt.Errorf("journal: transaction closed")
	}
	tx.open = false
	return tx.j.reset()
}

// Recover checks the journal page and, when an uncommitted transaction
// is present, restores every logged location. It returns the number of
// undo records applied. This is (part of) the LibFS "recovery program"
// the controller runs after a crash (§4.4).
func (j *Journal) Recover() (int, error) {
	flag, err := j.mem.ReadU64(j.page, hdrFlagOff)
	if err != nil {
		return 0, err
	}
	if flag == 0 {
		return 0, nil
	}
	count, err := j.mem.ReadU64(j.page, hdrCountOff)
	if err != nil {
		return 0, err
	}
	off := recStart
	applied := 0
	for i := uint64(0); i < count; i++ {
		var hdr [recHdrSize]byte
		if err := j.mem.Read(j.page, off, hdr[:]); err != nil {
			return applied, err
		}
		page := nvm.PageID(binary.LittleEndian.Uint64(hdr[0:]))
		dst := int(binary.LittleEndian.Uint32(hdr[8:]))
		n := int(binary.LittleEndian.Uint32(hdr[12:]))
		if off+recHdrSize+n > nvm.PageSize || n < 0 {
			return applied, fmt.Errorf("journal: corrupt record %d", i)
		}
		old := make([]byte, n)
		if err := j.mem.Read(j.page, off+recHdrSize, old); err != nil {
			return applied, err
		}
		if err := j.mem.Write(page, dst, old); err != nil {
			return applied, err
		}
		if err := j.mem.Persist(page, dst, n); err != nil {
			return applied, err
		}
		off += recHdrSize + n
		applied++
	}
	j.mem.Fence()
	return applied, j.reset()
}
