// Extent-coalesced checksum-record maintenance (ISSUE 6). The map/unmap
// hot path opens and seals the checksum records of every granted page;
// doing that record by record (and, for seals, re-reading the content
// page by page) charges the cost model per 8-byte or 4 KiB access, which
// understates what the hardware does — a contiguous grant streams as one
// access — and, under the sharded lock, turns the whole grant into CPU
// spin that no amount of sharding can overlap on a small host.
//
// The helpers here work on maximal runs of consecutive page ids:
//
//   - openSegment RMWs the run's record span (the records of consecutive
//     pages are themselves consecutive in the table) with one ReadRange
//     and one WriteRange instead of 2 accesses per page;
//   - sealSegment closes the run's records with one span RMW. A record
//     the controller opened itself and nobody stored to since (cleanOpen,
//     fed by the MMU dirty bits) closes with the CRC it carried; only the
//     rest — dirty, never-sealed or crashed-open — have their content
//     streamed with a single ReadRange per sub-run and their CRCs
//     recomputed, so a handover costs what was written, not the file.
//
// Correctness is unchanged from the per-page path: every record RMW on a
// page still happens under the home shard of the page's owning file (or
// the parent, for dirent pages), which is exactly the serialization the
// per-page ScrubPage/OpenChecksum calls relied on, and a run never
// includes a page outside the caller's set (runs split at gaps), so the
// span write-back touches no foreign record. Any device error drops the
// run back to the per-page path, which preserves the original
// error-tolerant semantics.
package controller

import (
	"encoding/binary"
	"sync"

	"trio/internal/core"
	"trio/internal/nvm"
	"trio/internal/telemetry"
	"trio/internal/verifier"
)

// pageRun is a run of consecutive page ids.
type pageRun struct {
	start nvm.PageID
	n     int
}

// quiescentSegments calls fn for each segment of the quiescent pages
// among the normal-form runs: those below the checksum table that no
// session write-maps — writeRefs, the same table the scrubber trusts to
// skip busy pages, read under one tabMu hold per segment — in ascending
// order, as maximal consecutive runs cut where the run's records would
// cross a table-page boundary (within a table page the records of
// consecutive pages are contiguous). The caller's lock set keeps the
// answer true while fn runs: a write grant of any of these pages needs
// a shard the caller holds.
func (c *Controller) quiescentSegments(runs []pageRun, fn func(total nvm.PageID, seg pageRun)) {
	total := c.dev.NumPages()
	base := core.ChecksumBase(total)
	for _, r := range runs {
		end := min(r.end(), base)
		for p := r.start; p < end; {
			stop := min(end, (p/core.ChecksumRecordsPerPage+1)*core.ChecksumRecordsPerPage)
			refs, i := c.writeRefs[p:stop], 0
			c.tabMu.Lock()
			for i < len(refs) && refs[i] != 0 {
				i++
			}
			busy := i
			for i < len(refs) && refs[i] == 0 {
				i++
			}
			c.tabMu.Unlock()
			if i > busy {
				fn(total, pageRun{start: p + nvm.PageID(busy), n: i - busy})
			}
			p += nvm.PageID(i)
		}
	}
}

// sealBufPool recycles the content buffers of bulk seals; runs are
// chunked to maxSealRun pages so the pool never holds giant buffers.
var sealBufPool = sync.Pool{
	New: func() any { b := make([]byte, maxSealRun*nvm.PageSize); return &b },
}

// maxSealRun chunks very long seal runs (1 MiB of content per read).
const maxSealRun = 256

// openGrantedLocked marks every granted page's checksum record open
// before the grantee can store to it, then fences once so the marks are
// durably ordered ahead of any of the grantee's data stores. Errors are
// deliberately not fatal to the grant: a failed open leaves the record
// in its previous state, which is at worst a sealed record the LibFS's
// first store invalidates — the scrub pass then reports it, repairs it
// from the still-correct candidate, or the unmap-time reseal fixes it.
//
// Callers invoke this BEFORE taking their own MMU refs, so writeRefs
// still describes the pre-grant world: a page some session already
// write-maps has an open record (the same invariant the unmap-time
// sealer and the scrubber rely on to skip busy pages), and its RMW is
// skipped — on a create/unlink stream the dirent page is held
// write-mapped by the directory's owner the whole time, so this turns
// the per-map record round trip into a table lookup.
func (c *Controller) openGrantedLocked(runs []pageRun) {
	fence := false
	c.quiescentSegments(runs, func(total nvm.PageID, seg pageRun) {
		if c.openSegment(total, seg) {
			fence = true
		}
	})
	if fence {
		c.mem.Fence()
	}
}

// openSegment opens the records of one single-table-page segment with a
// span RMW; it reports whether any record was written. A record that
// goes sealed→open here is marked cleanOpen: its carried CRC describes
// the content until somebody stores to the page. On a device error it
// falls back to per-page opens.
func (c *Controller) openSegment(total nvm.PageID, seg pageRun) bool {
	tp, off := core.ChecksumLoc(total, seg.start)
	var buf [core.ChecksumRecordsPerPage * core.ChecksumRecordSize]byte
	span := buf[:seg.n*core.ChecksumRecordSize]
	if err := c.dev.ReadRange(0, tp, off, span); err != nil {
		return c.openSegmentSlow(total, seg)
	}
	wrote := false
	c.tabMu.Lock()
	for i := 0; i < seg.n; i++ {
		rec := binary.LittleEndian.Uint64(span[i*core.ChecksumRecordSize:])
		if core.ChecksumIsOpen(rec) {
			continue
		}
		c.cleanOpen[seg.start+nvm.PageID(i)] = core.ChecksumSealed(rec)
		open := core.PackChecksum(core.ChecksumSeq(rec)+1, core.ChecksumCRC(rec))
		binary.LittleEndian.PutUint64(span[i*core.ChecksumRecordSize:], open)
		wrote = true
	}
	c.tabMu.Unlock()
	if !wrote {
		return false
	}
	if err := c.dev.WriteRange(0, tp, off, span); err != nil {
		return c.openSegmentSlow(total, seg)
	}
	if err := c.dev.PersistRange(tp, off, len(span)); err != nil {
		return true // record writes may have landed; caller fences
	}
	return true
}

// openSegmentSlow is the per-record fallback of openSegment. It does not
// learn which records were sealed, so none of them counts as clean.
func (c *Controller) openSegmentSlow(total nvm.PageID, seg pageRun) bool {
	wrote := false
	for i := 0; i < seg.n; i++ {
		p := seg.start + nvm.PageID(i)
		c.markStored(p)
		if w, err := core.OpenChecksum(c.mem, total, p); err == nil && w {
			wrote = true
		}
	}
	return wrote
}

// sealQuiescentLocked seals the records of the given pages, skipping any
// page some session still write-maps. Used when a writer unmaps:
// verification just ran, every store is persisted, so the content is
// exactly what a scrub should vouch for from here on. sp, when active,
// is the unmap span the seal is booked under.
func (c *Controller) sealQuiescentLocked(runs []pageRun, sp telemetry.Span) {
	if len(runs) == 0 {
		return
	}
	sp = sp.Child("controller.seal", "controller")
	defer sp.End()
	c.quiescentSegments(runs, c.sealSegment)
}

// sealSegment seals the unsealed records of one single-table-page
// segment with one span RMW. A record still cleanOpen closes with the
// CRC it carried into the grant — no content read, nothing to persist
// but the record; the decision rests on the MMU dirty bits and the
// controller's own table alone, nothing a LibFS wrote or passed in. The
// other unsealed records (stored to, never sealed, or left open by a
// crash, reap or revoke) have their content streamed and CRC'd per
// maximal consecutive sub-run.
func (c *Controller) sealSegment(total nvm.PageID, seg pageRun) {
	tp, off := core.ChecksumLoc(total, seg.start)
	var rbuf [core.ChecksumRecordsPerPage * core.ChecksumRecordSize]byte
	span := rbuf[:seg.n*core.ChecksumRecordSize]
	if err := c.dev.ReadRange(0, tp, off, span); err != nil {
		c.sealSegmentSlow(seg)
		return
	}
	var sbuf [4]pageRun // the stored-to sub-runs of a handover are a few: off the heap
	stream, clean := sbuf[:0], 0
	c.tabMu.Lock()
	for i := 0; i < seg.n; i++ {
		rec := binary.LittleEndian.Uint64(span[i*core.ChecksumRecordSize:])
		if core.ChecksumSealed(rec) {
			continue
		}
		p := seg.start + nvm.PageID(i)
		if c.cleanOpen[p] && core.ChecksumIsOpen(rec) {
			c.cleanOpen[p] = false
			binary.LittleEndian.PutUint64(span[i*core.ChecksumRecordSize:],
				core.PackChecksum(core.ChecksumSealSeq(core.ChecksumSeq(rec)), core.ChecksumCRC(rec)))
			clean++
			continue
		}
		if n := len(stream); n > 0 && stream[n-1].start+nvm.PageID(stream[n-1].n) == p {
			stream[n-1].n++
		} else {
			stream = append(stream, pageRun{start: p, n: 1})
		}
	}
	c.tabMu.Unlock()

	streamed := 0
	var failed []pageRun
	for _, sub := range stream {
		for sub.n > 0 {
			chunk := sub
			if chunk.n > maxSealRun {
				chunk.n = maxSealRun
			}
			if c.streamRun(chunk, span[int(chunk.start-seg.start)*core.ChecksumRecordSize:]) == nil {
				streamed += chunk.n
			} else {
				failed = append(failed, chunk)
			}
			sub.start += nvm.PageID(chunk.n)
			sub.n -= chunk.n
		}
	}
	if clean+streamed > 0 {
		if streamed > 0 {
			c.mem.Fence() // content durable before the records vouching for it
		}
		if err := c.dev.WriteRange(0, tp, off, span); err != nil {
			c.sealSegmentSlow(seg)
			return
		}
		if err := c.dev.PersistRange(tp, off, len(span)); err != nil {
			return
		}
		verifier.NoteSealedRun(streamed)
		c.stats.ScrubSealed.Add(int64(clean + streamed))
		c.stats.SealClean.Add(int64(clean))
		c.stats.SealStreamed.Add(int64(streamed))
	}
	// Runs that failed to stream kept their record bytes untouched in the
	// span just written back; the per-page path retries them.
	for _, run := range failed {
		c.sealSegmentSlow(run)
	}
}

// streamRun streams one consecutive run's content, persists it, and puts
// the sealed records into recs (the run's slice of the segment's record
// span); the caller fences and publishes the span. On error recs is
// untouched.
func (c *Controller) streamRun(run pageRun, recs []byte) error {
	bp := sealBufPool.Get().(*[]byte)
	defer sealBufPool.Put(bp)
	content := (*bp)[:run.n*nvm.PageSize]
	if err := c.dev.ReadRange(0, run.start, 0, content); err != nil {
		return err
	}
	// SealChecksum requires the covered content be durable. A page left
	// open by a writer that died between its stores and its Persist may
	// still hold unpersisted lines; flush the whole run before sealing.
	if err := c.dev.PersistRange(run.start, 0, len(content)); err != nil {
		return err
	}
	for i := 0; i < run.n; i++ {
		rec := binary.LittleEndian.Uint64(recs[i*core.ChecksumRecordSize:])
		crc := core.PageCRC(content[i*nvm.PageSize : (i+1)*nvm.PageSize])
		binary.LittleEndian.PutUint64(recs[i*core.ChecksumRecordSize:],
			core.PackChecksum(core.ChecksumSealSeq(core.ChecksumSeq(rec)), crc))
		c.tracePage(run.start+nvm.PageID(i), "seal-unmap")
	}
	return nil
}

// sealSegmentSlow is the per-page fallback: the original
// LoadChecksum+ScrubPage loop, audit semantics identical to the bulk
// path one page at a time. It builds its own scrubber — seals may run
// concurrently under disjoint shard locks, and the controller-wide
// scrubber's scratch buffer is only safe under lockAll.
func (c *Controller) sealSegmentSlow(seg pageRun) {
	total := c.dev.NumPages()
	sc := verifier.NewScrubber(c.dev)
	for i := 0; i < seg.n; i++ {
		p := seg.start + nvm.PageID(i)
		if rec, err := core.LoadChecksum(c.mem, total, p); err != nil || core.ChecksumSealed(rec) {
			continue
		}
		if v, _, _, err := sc.ScrubPage(p, true); err == nil && v == verifier.ScrubSealed {
			c.stats.ScrubSealed.Add(1)
			c.tracePage(p, "seal-unmap")
		}
	}
}
