// Checksum-record maintenance at two sizes (core/checksum.go): a write
// grant makes every granted page untrusted before the grantee can store,
// and the release makes it trusted again once nobody can store to it.
//
//   - A granule the grant covers whole — all 32 pages the file's own —
//     opens by its bit, none of its records read or written. Its DRAM
//     state (granState) counts the grants holding it and collects the
//     pages stored to (storedLocked); when the last holder releases, the
//     close streams exactly those pages and reseals their records, and
//     the bit clears behind a later fence (granule.go).
//   - Every other page — ragged ends, the dirent page, pool pages — opens
//     its record: openSegment RMWs a run's record span, and the release
//     closes records nobody stored to with the CRC they carried
//     (cleanOpen) and streams the rest, one persist per table page,
//     granule reseals included.
//
// An open granule stays whole in its file: a page leaving the file first
// splits it into per-page open records (splitGranule), so a close only
// touches records the file's shard lock serializes. Every record RMW
// happens under the home shard of the page's owning file (or the parent,
// for dirent pages), and a run never includes a page outside the
// caller's set, so a span write-back touches no foreign record. Any
// device error drops the run back to the per-page path.
package controller

import (
	"encoding/binary"
	"math/bits"
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

// granState is one granule's checksum state in controller DRAM (tabMu).
type granState struct {
	// ino is the file whose write grants opened the granule by its bit;
	// 0 while its pages keep per-page records.
	ino core.Ino
	// open counts the write grants that hold the granule whole.
	open int32
	// stored marks the pages (bit i: page 32g+i) the close must reseal:
	// stored to since the bit was set, or opened by record by a release
	// that left the granule to another holder.
	stored uint32
	// split: splitGranule opened every record since the last close, so
	// the close hands all 32 to their records rather than vouching for the
	// ones nobody stored to by the bit.
	split bool
}

// granuleMask is the bit of page p in its granule's masks.
func granuleMask(p nvm.PageID) uint32 { return 1 << (p & (nvm.GranulePages - 1)) }

// granuleStart is granule g's first page.
func granuleStart(g nvm.PageID) nvm.PageID { return g << nvm.GranuleShift }

// appendRun adds [start, start+n) to runs built in ascending order.
func appendRun(runs []pageRun, start nvm.PageID, n int) []pageRun {
	if k := len(runs); k > 0 && runs[k-1].end() == start {
		runs[k-1].n += n
		return runs
	}
	return append(runs, pageRun{start: start, n: n})
}

// nextPiece returns the end of the piece of [a, end) inside a's granule.
// Grants and releases walk their runs piece by piece; a granule never
// straddles two table pages.
func nextPiece(a, end nvm.PageID) nvm.PageID {
	return min(end, granuleStart(a>>nvm.GranuleShift+1))
}

// sealBufPool recycles the content buffers of bulk seals; runs are
// chunked to maxSealRun pages so the pool never holds giant buffers.
var sealBufPool = sync.Pool{
	New: func() any { b := make([]byte, maxSealRun*nvm.PageSize); return &b },
}

// maxSealRun chunks very long seal runs (1 MiB of content per read).
const maxSealRun = 256

// A record span is staged on the stack when short — ragged ends are — and
// in a pooled table page otherwise: clearing 4 KiB on every grant and
// release would cost more than the records it carries.
const recStack = 64

type recPage = [core.ChecksumRecordsPerPage * core.ChecksumRecordSize]byte

var recBufPool = sync.Pool{New: func() any { return new(recPage) }}

// fence orders every persist the controller issued before it ahead of
// everything after it. The ticket it returns is taken before the fence
// is, so an open bit pended at an earlier ticket may clear once the
// fence returns (clearGranuleBits).
func (c *Controller) fence() uint64 {
	t := c.fences.Add(1)
	c.mem.Fence()
	return t
}

// openGrantedLocked opens the checksum state of a write grant's pages
// before the grantee can store to them, then fences once so the marks
// are durably ordered ahead of any of the grantee's data stores. The
// granules runs covers whole inside fs's own pages open by their bit (fs
// nil: a pool grant, all per page) and are appended to gran, which is
// returned: the release drops them. Errors are deliberately not fatal to
// the grant: a failed open leaves the record in its previous state,
// which is at worst a sealed record the LibFS's first store invalidates
// — the scrub pass then reports it, repairs it from the still-correct
// candidate, or the unmap-time reseal fixes it.
//
// Callers invoke this BEFORE taking their own MMU refs, so writeRefsAt
// still describes the pre-grant world: a page some session already
// write-maps has an open record (the same invariant the unmap-time
// sealer and the scrubber rely on to skip busy pages), and its RMW is
// skipped — on a create/unlink stream the dirent page is held
// write-mapped by the directory's owner the whole time, so this turns
// the per-map record round trip into a table lookup. Inside a granule
// opened by its bit that proves nothing (the holder opened no record),
// so there the record is opened regardless.
func (c *Controller) openGrantedLocked(runs []pageRun, fs *fileState, gran []pageRun) []pageRun {
	total := c.dev.NumPages()
	base := core.ChecksumBase(total)
	first := len(gran)
	var own []pageRun // fs's pages from the current piece on
	if fs != nil {
		own = fs.pages
	}
	var segBuf [8]pageRun // a grant's ragged ends are a few runs: off the heap
	segs := segBuf[:0]
	c.tabMu.Lock()
	for _, r := range runs {
		for a, end := r.start, min(r.end(), base); a < end; {
			b := nextPiece(a, end)
			st := &c.gran[a>>nvm.GranuleShift]
			if b-a == nvm.GranulePages && fs != nil && (st.ino == fs.ino || st.ino == 0 && st.open == 0) {
				for len(own) > 0 && own[0].end() <= a {
					own = own[1:]
				}
				if len(own) > 0 && own[0].start <= a && own[0].end() >= b {
					if st.ino == 0 {
						st.ino, st.stored = fs.ino, 0
					}
					st.open++
					gran = appendRun(gran, a>>nvm.GranuleShift, 1)
					a = b
					continue
				}
			}
			for q := a; q < b; q++ {
				if st.ino != 0 || c.writeRefsAt(q) == 0 {
					segs = appendRun(segs, q, 1)
				}
			}
			a = b
		}
	}
	c.tabMu.Unlock()
	wrote := false
	for _, s := range segs {
		for s.n > 0 { // a segment's records are in one table page
			k := min(s.n, int(core.ChecksumRecordsPerPage-s.start%core.ChecksumRecordsPerPage))
			if c.openSegment(total, pageRun{start: s.start, n: k}) {
				wrote = true
			}
			s.start, s.n = s.start+nvm.PageID(k), s.n-k
		}
	}
	if len(gran) > first {
		c.stats.GranuleOpens.Add(int64(runsLen(gran[first:])))
		if c.setGranuleBits(gran[first:]) {
			wrote = true
		}
	}
	if wrote {
		c.clearGranuleBits(c.fence())
	}
	return gran
}

// openSegment opens the records of one single-table-page segment with a
// span RMW; it reports whether any record was written. A record that
// goes sealed→open here is marked cleanOpen — its carried CRC describes
// the content until somebody stores to the page — unless its granule's
// reseal set names the page (stored to under the bit). On a device error
// it falls back to per-page opens.
func (c *Controller) openSegment(total nvm.PageID, seg pageRun) bool {
	tp, off := core.ChecksumLoc(total, seg.start)
	var stack [recStack * core.ChecksumRecordSize]byte
	span := stack[:]
	if seg.n > recStack {
		buf := recBufPool.Get().(*recPage)
		defer recBufPool.Put(buf)
		span = buf[:]
	}
	span = span[:seg.n*core.ChecksumRecordSize]
	if err := c.dev.ReadRange(0, tp, off, span); err != nil {
		return c.openSegmentSlow(total, seg)
	}
	wrote := 0
	c.tabMu.Lock()
	for i := 0; i < seg.n; i++ {
		rec := binary.LittleEndian.Uint64(span[i*core.ChecksumRecordSize:])
		if core.ChecksumIsOpen(rec) {
			continue
		}
		p := seg.start + nvm.PageID(i)
		c.cleanOpen[p] = core.ChecksumSealed(rec) && c.gran[p>>nvm.GranuleShift].stored&granuleMask(p) == 0
		open := core.PackChecksum(core.ChecksumSeq(rec)+1, core.ChecksumCRC(rec))
		binary.LittleEndian.PutUint64(span[i*core.ChecksumRecordSize:], open)
		wrote++
	}
	c.tabMu.Unlock()
	if wrote == 0 {
		return false
	}
	c.stats.ChecksumRecords.Add(int64(wrote))
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

// dropGranulesLocked (tabMu held) releases a write mapping's hold on the
// granules its grant opened whole. The caller harvested the mapping's
// dirty bits first, so every store through it is in the reseal sets.
func (c *Controller) dropGranulesLocked(gran []pageRun) {
	for _, r := range gran {
		for g := r.start; g < r.end(); g++ {
			c.gran[g].open--
		}
	}
}

// sealSeg is one run of a seal inside one table page: pages whose record
// decides (sealed: nothing to do; cleanOpen: close clean; else stream),
// or pages a granule close reseals from content whatever the record
// says. at is where its records sit in the seal's staging buffer.
type sealSeg struct {
	pageRun
	at     int
	forced bool
	dirty  bool // a record of the run changed: it is written back
}

// addSeal adds [p, p+n) to segs: to the last segment when it continues
// it inside the same table page, or as a new one.
func addSeal(segs []sealSeg, p nvm.PageID, n int, forced bool) []sealSeg {
	if k := len(segs); k > 0 && segs[k-1].end() == p && segs[k-1].forced == forced && p%core.ChecksumRecordsPerPage != 0 {
		segs[k-1].n += n
		return segs
	}
	return append(segs, sealSeg{pageRun: pageRun{start: p, n: n}, forced: forced})
}

// sealQuiescentLocked seals the records of the given pages that no
// session can store to any more. Used when a writer unmaps: verification
// just ran, every store is persisted, so the content is exactly what a
// scrub should vouch for from here on. m, when non-nil, is the released
// mapping: the pages its grant opened by record, in a granule another
// grant still holds open, join that granule's reseal set. Granules no
// grant holds any more close here when runs covers them whole. sp, when
// active, is the unmap span the seal is booked under.
func (c *Controller) sealQuiescentLocked(runs []pageRun, m *mapping, sp telemetry.Span) {
	if len(runs) == 0 {
		return
	}
	sp = sp.Child("controller.seal", "controller")
	defer sp.End()
	total := c.dev.NumPages()
	base := core.ChecksumBase(total)
	var segBuf [8]sealSeg
	var closedBuf [16]nvm.PageID
	segs, closed, vouched := segBuf[:0], closedBuf[:0], 0
	var held []pageRun // the mapping's whole granules from the current one on
	if m != nil {
		held = m.gran
	}
	c.tabMu.Lock()
	for _, r := range runs {
		for a, end := r.start, min(r.end(), base); a < end; {
			b := nextPiece(a, end)
			g := a >> nvm.GranuleShift
			st := &c.gran[g]
			if st.ino == 0 {
				for q := a; q < b; {
					if c.writeRefsAt(q) != 0 {
						q++
						continue
					}
					e := q + 1
					for e < b && c.writeRefsAt(e) == 0 {
						e++
					}
					segs = addSeal(segs, q, int(e-q), false)
					q = e
				}
				a = b
				continue
			}
			for len(held) > 0 && held[0].end() <= g {
				held = held[1:]
			}
			// The pages this mapping opened by record, inside a granule open
			// by its bit (another grant's, or the mapping's view was ragged).
			var mine uint32
			if m != nil && (len(held) == 0 || held[0].start > g) {
				for q := a; q < b; q++ {
					if runsFind(m.runs, q) >= 0 {
						mine |= granuleMask(q)
					}
				}
			}
			if st.open > 0 || b-a < nvm.GranulePages {
				st.stored |= mine
				a = b
				continue
			}
			// Nobody holds the granule: close it. The pages stored to stream;
			// the mapping's own records decide as any per-page record does.
			stored := st.stored
			if st.split {
				mine = ^uint32(0)
			}
			st.stored, st.split = 0, false
			for todo := stored | mine; todo != 0; todo &= todo - 1 {
				q := a + nvm.PageID(bits.TrailingZeros32(todo))
				if c.writeRefsAt(q) == 0 { // else a grant that opened its record still holds it, and seals it
					segs = addSeal(segs, q, 1, stored&granuleMask(q) != 0)
				}
			}
			vouched += nvm.GranulePages - bits.OnesCount32(stored|mine)
			closed = append(closed, g)
			a = b
		}
	}
	c.tabMu.Unlock()
	clean, streamed := vouched, 0
	for len(segs) > 0 {
		k := 1
		for k < len(segs) && segs[k].start/core.ChecksumRecordsPerPage == segs[0].start/core.ChecksumRecordsPerPage {
			k++
		}
		cl, st := c.sealTablePage(total, segs[:k])
		clean, streamed, segs = clean+cl, streamed+st, segs[k:]
	}
	if clean+streamed > 0 {
		c.stats.ScrubSealed.Add(int64(clean + streamed))
		c.stats.SealClean.Add(int64(clean))
		c.stats.SealStreamed.Add(int64(streamed))
	}
	c.closeGranules(closed)
}

// sealTablePage carries out the seal work segs, all on one table page,
// and reports the records closed clean and the pages streamed. A record
// still cleanOpen closes with the CRC it carried into the grant — a
// decision resting on the MMU dirty bits and the controller's own table
// alone, nothing a LibFS wrote. The other unsealed records (stored to,
// never sealed, left open by a crash, reap or revoke) and every forced
// page have their content streamed and CRC'd per consecutive run; one
// fence orders the content ahead of the records, which go back one span
// write per segment under one persist for the table page.
func (c *Controller) sealTablePage(total nvm.PageID, segs []sealSeg) (clean, streamed int) {
	tp, _ := core.ChecksumLoc(total, segs[0].start)
	n := 0
	for i := range segs {
		segs[i].at, n = n, n+segs[i].n
	}
	var stack [recStack * core.ChecksumRecordSize]byte
	recs := stack[:]
	if n > recStack {
		buf := recBufPool.Get().(*recPage)
		defer recBufPool.Put(buf)
		recs = buf[:]
	}
	span := func(s *sealSeg) (int, []byte) {
		_, off := core.ChecksumLoc(total, s.start)
		return off, recs[s.at*core.ChecksumRecordSize : (s.at+s.n)*core.ChecksumRecordSize]
	}
	var failed []sealSeg
	for i := range segs {
		if off, b := span(&segs[i]); c.dev.ReadRange(0, tp, off, b) != nil {
			failed = append(failed, segs[i])
			segs[i].n = 0 // nothing of it is touched below
		}
	}
	var sbuf [4]sealSeg // the stored-to runs of a handover are a few: off the heap
	stream := sbuf[:0]
	c.tabMu.Lock()
	for k := range segs {
		s := &segs[k]
		_, b := span(s)
		for i := 0; i < s.n; i++ {
			rec := binary.LittleEndian.Uint64(b[i*core.ChecksumRecordSize:])
			p := s.start + nvm.PageID(i)
			if !s.forced {
				if core.ChecksumSealed(rec) {
					continue
				}
				if c.cleanOpen[p] && core.ChecksumIsOpen(rec) {
					c.cleanOpen[p] = false
					binary.LittleEndian.PutUint64(b[i*core.ChecksumRecordSize:],
						core.PackChecksum(core.ChecksumSealSeq(core.ChecksumSeq(rec)), core.ChecksumCRC(rec)))
					clean++
					s.dirty = true
					continue
				}
			}
			if j := len(stream); j > 0 && stream[j-1].end() == p {
				stream[j-1].n++
			} else {
				stream = append(stream, sealSeg{pageRun: pageRun{start: p, n: 1}, at: s.at + i})
			}
			s.dirty = true
		}
	}
	c.tabMu.Unlock()

	for _, sub := range stream {
		for sub.n > 0 {
			chunk := sub
			chunk.n = min(chunk.n, maxSealRun)
			if c.streamRun(chunk.pageRun, recs[chunk.at*core.ChecksumRecordSize:]) == nil {
				streamed += chunk.n
			} else {
				chunk.forced = true
				failed = append(failed, chunk)
			}
			sub.start, sub.at, sub.n = sub.start+nvm.PageID(chunk.n), sub.at+chunk.n, sub.n-chunk.n
		}
	}
	if streamed > 0 {
		c.fence() // content durable before the records vouching for it
	}
	lo, hi := -1, 0
	for i := range segs {
		s := &segs[i]
		if !s.dirty {
			continue
		}
		off, b := span(s)
		if err := c.dev.WriteRange(0, tp, off, b); err != nil {
			failed = append(failed, *s)
			continue
		}
		if lo < 0 {
			lo = off
		}
		hi = off + len(b)
	}
	if lo >= 0 {
		if err := c.dev.PersistRange(tp, lo, hi-lo); err != nil {
			// Not known durable: a granule whose reseal this was stays open.
			for _, s := range segs {
				if s.dirty && s.forced {
					failed = append(failed, s)
				}
			}
		}
		c.stats.ChecksumRecords.Add(int64(clean + streamed))
		if streamed > 0 {
			verifier.NoteSealedRun(streamed)
		}
	}
	// What failed kept its record bytes untouched on the media; the
	// per-page path retries it, and a forced page it cannot seal keeps
	// its granule open.
	for _, s := range failed {
		c.sealSegmentSlow(s)
	}
	return clean, streamed
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
// scrubber's scratch buffer is only safe under lockAll. A forced page's
// record may be sealed and stale, which the scrubber cannot tell from
// rot: it is opened by record instead, and should even that fail, the
// page goes back into its granule's reseal set and the granule stays
// open.
func (c *Controller) sealSegmentSlow(seg sealSeg) {
	total := c.dev.NumPages()
	sc := verifier.NewScrubber(c.dev)
	for i := 0; i < seg.n; i++ {
		p := seg.start + nvm.PageID(i)
		if seg.forced {
			_, err := core.OpenChecksum(c.mem, total, p)
			c.tabMu.Lock()
			c.cleanOpen[p] = false
			if err != nil { // its granule's close is still to come: the granule stays open
				c.gran[p>>nvm.GranuleShift].stored |= granuleMask(p)
			}
			c.tabMu.Unlock()
			continue
		}
		if rec, err := core.LoadChecksum(c.mem, total, p); err != nil || core.ChecksumSealed(rec) {
			continue
		}
		if v, _, _, err := sc.ScrubPage(p, true); err == nil && v == verifier.ScrubSealed {
			c.stats.ScrubSealed.Add(1)
			c.tracePage(p, "seal-unmap")
		}
	}
}
