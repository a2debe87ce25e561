package libfs

import (
	"fmt"
	"sync/atomic"
	"time"

	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/index"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// Handle is an open file (fsapi.File). ArckFS keeps a classic file
// descriptor table per client — exactly the bookkeeping KVFS's get/set
// customization removes for small-file workloads (paper §5).
type Handle struct {
	c     *Client
	n     *node
	fd    int
	write bool
}

// openHandle allocates an fd slot.
func (c *Client) openHandle(n *node, write bool) *Handle {
	c.fdMu.Lock()
	defer c.fdMu.Unlock()
	h := &Handle{c: c, n: n, write: write}
	if len(c.free) > 0 {
		fd := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.fds[fd] = h
		h.fd = fd
	} else {
		h.fd = len(c.fds)
		c.fds = append(c.fds, h)
	}
	return h
}

// Close releases the fd slot. The node's mapping and auxiliary state
// stay warm (§4.2: preserved until another application wants to write).
func (h *Handle) Close() error {
	c := h.c
	c.fdMu.Lock()
	defer c.fdMu.Unlock()
	if h.fd < len(c.fds) && c.fds[h.fd] == h {
		c.fds[h.fd] = nil
		c.free = append(c.free, h.fd)
	}
	return nil
}

// Size reports the current file size.
func (h *Handle) Size() int64 { return atomic.LoadInt64(&h.n.size) }

// Sync is a no-op: ArckFS persists data operations immediately (§4.1).
func (h *Handle) Sync() error { return nil }

// Open opens an existing file.
func (c *Client) Open(path string, write bool) (fsapi.File, error) {
	n, err := c.fs.resolve(path)
	if err != nil {
		return nil, ioErr(err)
	}
	if n.ftype() == core.TypeDir {
		return nil, fsapi.ErrIsDir
	}
	if err := c.fs.ensureMapped(n, write); err != nil {
		return nil, ioErr(err)
	}
	return c.openHandle(n, write), nil
}

// ReadAt implements fsapi.File.
func (h *Handle) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fsapi.ErrInval
	}
	sp := telemetry.StartSpan(h.c.cpu, "libfs.ReadAt", "libfs")
	defer sp.End()
	if telemetry.On() {
		mReadOps.IncOn(h.c.cpu)
		start := time.Now()
		defer func() {
			hReadNS.ObserveSince(start)
			hReadSize.Observe(int64(len(b)))
		}()
	}
	fs := h.c.fs
	n := h.n
	total := 0
	err := fs.withMapped(n, h.write, func() error {
		total = 0
		n.ilock.RLock(h.c.cpu)
		defer n.ilock.RUnlock(h.c.cpu)
		size := atomic.LoadInt64(&n.size)
		if off >= size {
			return nil
		}
		count := int64(len(b))
		if off+count > size {
			count = size - off
		}
		rl := &n.rlock
		r := rl.RLockRange(off, count)
		defer rl.RUnlockRange(r)

		// Walk the radix by extents rather than blocks: each physically
		// contiguous page run becomes one range operation (one permission
		// check, one cost charge), and each hole is one clear().
		lk := sp.Child("index.lookup", "index")
		batch := fs.pool.NewBatch(fs.as, int(count), false, false).WithView(fs.mem(h.c.cpu))
		var checks []crcCheck // read-path CRC audits (Config.VerifyReads)
		firstBlock := uint64(off / nvm.PageSize)
		nBlocks := int(uint64((off+count-1)/nvm.PageSize)-firstBlock) + 1
		for it := n.radix.Extents(firstBlock, nBlocks); it.Next(); {
			e := it.Ext
			extStart := int64(e.Block) * nvm.PageSize
			lo, hi := off, off+count
			if extStart > lo {
				lo = extStart
			}
			if extEnd := extStart + int64(e.Count)*nvm.PageSize; extEnd < hi {
				hi = extEnd
			}
			dst := b[lo-off : hi-off]
			if e.Page == 0 {
				clear(dst) // hole
				continue
			}
			skip := lo - extStart
			page := nvm.PageID(e.Page) + nvm.PageID(skip/nvm.PageSize)
			if fs.cfg.VerifyReads {
				// Record loads must precede the data reads (see verify.go).
				checks = fs.collectCRCChecks(checks, b, off, lo, hi, extStart, nvm.PageID(e.Page))
			}
			batch.ReadRange(page, int(skip%nvm.PageSize), dst)
		}
		lk.End()
		dw := sp.Child("delegation.wait", "delegation")
		err := batch.Wait()
		dw.End()
		batch.Release()
		if err != nil {
			return err
		}
		if len(checks) > 0 {
			if err := fs.verifyCRCChecks(h.c.cpu, checks); err != nil {
				return err
			}
		}
		total = int(count)
		return nil
	})
	return total, ioErr(err)
}

// WriteAt implements fsapi.File. Writes within the current size take
// the inode lock shared plus a write range lock (disjoint writers run
// in parallel); extending writes take the inode lock exclusive (§4.2).
func (h *Handle) WriteAt(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fsapi.ErrInval
	}
	if !h.write {
		return 0, fsapi.ErrPerm
	}
	sp := telemetry.StartSpan(h.c.cpu, "libfs.WriteAt", "libfs")
	defer sp.End()
	if telemetry.On() {
		mWriteOps.IncOn(h.c.cpu)
		start := time.Now()
		defer func() {
			hWriteNS.ObserveSince(start)
			hWriteSize.Observe(int64(len(b)))
		}()
	}
	fs := h.c.fs
	n := h.n
	err := fs.withMapped(n, true, func() error {
		end := off + int64(len(b))
		if end > atomic.LoadInt64(&n.size) {
			return fs.writeExtend(h.c.cpu, n, b, off, sp)
		}
		n.ilock.RLock(h.c.cpu)
		defer n.ilock.RUnlock(h.c.cpu)
		if end > atomic.LoadInt64(&n.size) {
			// Raced with a truncate; retry via the extend path.
			return fs.writeExtend(h.c.cpu, n, b, off, sp)
		}
		rl := &n.rlock
		r := rl.LockRange(off, int64(len(b)))
		defer rl.UnlockRange(r)
		// Writes into holes of a sparse file allocate pages here; the
		// range lock serializes same-block writers and linkRun's
		// index-tail lock protects chain growth.
		if err := fs.ensureBlocks(h.c.cpu, n, off, end, sp); err != nil {
			return err
		}
		return fs.copyOut(h.c.cpu, n, b, off, true, sp)
	})
	if err != nil {
		return 0, ioErr(err)
	}
	return len(b), nil
}

// Append implements fsapi.File.
func (h *Handle) Append(b []byte) (int64, error) {
	if !h.write {
		return 0, fsapi.ErrPerm
	}
	sp := telemetry.StartSpan(h.c.cpu, "libfs.Append", "libfs")
	defer sp.End()
	if telemetry.On() {
		mWriteOps.IncOn(h.c.cpu)
		start := time.Now()
		defer func() {
			hWriteNS.ObserveSince(start)
			hWriteSize.Observe(int64(len(b)))
		}()
	}
	fs := h.c.fs
	n := h.n
	var at int64
	err := fs.withMapped(n, true, func() error {
		n.ilock.Lock()
		defer n.ilock.Unlock()
		at = atomic.LoadInt64(&n.size)
		return fs.extendLocked(h.c.cpu, n, b, at, sp)
	})
	return at, ioErr(err)
}

// writeExtend handles writes that grow the file: exclusive inode lock.
func (fs *FS) writeExtend(cpu int, n *node, b []byte, off int64, sp telemetry.Span) error {
	n.ilock.Lock()
	defer n.ilock.Unlock()
	return fs.extendLocked(cpu, n, b, off, sp)
}

// extendLocked performs an (possibly extending) write with the inode
// lock held exclusively. Ordering for crash consistency (§4.4): new
// data pages are filled and persisted, then linked into index pages,
// then the 8-byte size field commits the growth.
func (fs *FS) extendLocked(cpu int, n *node, b []byte, off int64, sp telemetry.Span) error {
	end := off + int64(len(b))
	// 1. Make sure every block in [off, end) has a data page.
	if err := fs.ensureBlocks(cpu, n, off, end, sp); err != nil {
		return err
	}
	// 2. Copy the data (persisted).
	if err := fs.copyOut(cpu, n, b, off, true, sp); err != nil {
		return err
	}
	// 3. Commit the new size.
	if end > atomic.LoadInt64(&n.size) {
		if err := core.UpdateInodeSizeMtime(fs.as, n.loc(), uint64(end), uint64(time.Now().UnixNano())); err != nil {
			return err
		}
		atomic.StoreInt64(&n.size, end)
	}
	return nil
}

// ensureBlocks allocates data pages for every hole in [off, end). The
// caller must hold either the inode lock exclusively or a write range
// lock covering the span (so no two threads fill the same block).
//
// Holes are discovered as extents and filled as runs: one bulk grab
// from the page cache, one index-tail lock and fence per run instead of
// one of each per block.
func (fs *FS) ensureBlocks(cpu int, n *node, off, end int64, sp telemetry.Span) error {
	if end <= off {
		return nil
	}
	firstBlock := uint64(off / nvm.PageSize)
	lastBlock := uint64((end - 1) / nvm.PageSize)
	lk := sp.Child("index.lookup", "index")
	var extbuf [16]index.Extent
	exts := n.radix.GetRange(firstBlock, int(lastBlock-firstBlock)+1, extbuf[:0])
	lk.End()
	for _, e := range exts {
		if e.Page != 0 {
			continue
		}
		if err := fs.fillHole(cpu, n, e.Block, e.Count, off, end, sp); err != nil {
			return err
		}
	}
	return nil
}

// fillHole allocates, zeroes, links and indexes data pages for the hole
// run [block, block+count), splitting at stripe-chunk boundaries so
// each piece lands on its striping node, and placing each piece by
// granule after the page of the block before it (allocDataRun).
func (fs *FS) fillHole(cpu int, n *node, block uint64, count int, off, end int64, sp telemetry.Span) error {
	var runBuf [16]nvm.PageID
	for count > 0 {
		node := fs.nodeForBlock(cpu, block)
		k := count
		if fs.cfg.Stripe && fs.dev.Nodes() > 1 {
			if chunkEnd := (block/stripeChunkBlocks + 1) * stripeChunkBlocks; block+uint64(k) > chunkEnd {
				k = int(chunkEnd - block)
			}
		}
		var prev nvm.PageID
		if block > 0 {
			prev = nvm.PageID(n.radix.Get(block - 1))
		}
		ac := sp.Child("alloc.pages", "alloc")
		pages, err := fs.allocDataRun(cpu, node, block, prev, k, runBuf[:0])
		ac.End()
		if err != nil {
			return err
		}
		for i, page := range pages {
			blk := block + uint64(i)
			blockStart := int64(blk) * nvm.PageSize
			// A fresh page may hold stale bytes; zero the regions outside
			// the part this write will fill, so holes read as zeros. Only
			// the run's edge blocks can have such regions.
			if off > blockStart || end < blockStart+nvm.PageSize {
				if err := fs.zeroPageEdges(cpu, page, blk, off, end); err != nil {
					return err
				}
			}
		}
		lnk := sp.Child("index.link", "index")
		if err := fs.linkRun(cpu, n, block, pages); err != nil {
			lnk.End()
			return err
		}
		for i, page := range pages {
			n.radix.Put(block+uint64(i), uint64(page))
		}
		lnk.End()
		block += uint64(k)
		count -= k
	}
	return nil
}

// zeroPageEdges zeroes the parts of a fresh data page that this write
// does not cover.
func (fs *FS) zeroPageEdges(cpu int, page nvm.PageID, block uint64, off, end int64) error {
	blockStart := int64(block) * nvm.PageSize
	blockEnd := blockStart + nvm.PageSize
	var zeros [nvm.PageSize]byte
	mem := fs.mem(cpu)
	if off > blockStart {
		if err := mem.Write(page, 0, zeros[:off-blockStart]); err != nil {
			return err
		}
	}
	if end < blockEnd {
		if err := mem.Write(page, int(end-blockStart), zeros[:blockEnd-end]); err != nil {
			return err
		}
	}
	return nil
}

// linkBlockLocked wires a data page into the index chain at the given
// block, growing the chain as needed. The caller holds the index-tail
// lock (§4.2), which protects the chain against concurrent growth by
// range-locked hole fillers; the directory slot-claim path holds it
// across a larger section.
func (fs *FS) linkBlockLocked(cpu int, n *node, block uint64, page nvm.PageID) error {
	chainIdx := int(block / core.IndexEntriesPerPage)
	entry := int(block % core.IndexEntriesPerPage)
	if err := fs.growChain(cpu, n, chainIdx); err != nil {
		return err
	}
	if err := core.SetIndexEntry(fs.as, n.chain[chainIdx], entry, page); err != nil {
		return err
	}
	fs.as.Fence()
	return nil
}

// linkRun wires a run of data pages into the index chain starting at
// block, under one index-tail lock with one trailing fence. Each index
// entry still persists individually (SetIndexEntry), so the crash
// surface keeps every per-entry persist point; only the fence — an
// ordering barrier, not a durability point for the entries themselves —
// is coalesced. Entries are still durable before the size field commits
// the growth, because the size update carries its own persist+fence.
func (fs *FS) linkRun(cpu int, n *node, block uint64, pages []nvm.PageID) error {
	n.idxTail.Lock()
	defer n.idxTail.Unlock()
	for i, page := range pages {
		blk := block + uint64(i)
		chainIdx := int(blk / core.IndexEntriesPerPage)
		if err := fs.growChain(cpu, n, chainIdx); err != nil {
			return err
		}
		if err := core.SetIndexEntry(fs.as, n.chain[chainIdx], int(blk%core.IndexEntriesPerPage), page); err != nil {
			return err
		}
	}
	fs.as.Fence()
	return nil
}

// growChain extends the index-page chain to cover chainIdx; the
// index-tail lock must be held.
func (fs *FS) growChain(cpu int, n *node, chainIdx int) error {
	for len(n.chain) <= chainIdx {
		ip, err := fs.allocPage(cpu)
		if err != nil {
			return err
		}
		var zeros [nvm.PageSize]byte
		if err := fs.as.Write(ip, 0, zeros[:]); err != nil {
			return err
		}
		if err := fs.as.Persist(ip, 0, nvm.PageSize); err != nil {
			return err
		}
		if len(n.chain) == 0 {
			if err := core.UpdateInodeHead(fs.as, n.loc(), ip); err != nil {
				return err
			}
		} else {
			if err := core.SetNextIndexPage(fs.as, n.chain[len(n.chain)-1], ip); err != nil {
				return err
			}
			fs.as.Fence()
		}
		n.chain = append(n.chain, ip)
	}
	return nil
}

// copyOut copies b into the file's data pages at off through the
// delegation batch (or directly, from the calling thread's node, for
// small accesses), one range operation per physically contiguous page
// run.
func (fs *FS) copyOut(cpu int, n *node, b []byte, off int64, persist bool, sp telemetry.Span) error {
	if len(b) == 0 {
		return nil
	}
	dc := sp.Child("delegation.copyout", "delegation")
	batch := fs.pool.NewBatch(fs.as, len(b), true, persist).WithView(fs.mem(cpu))
	end := off + int64(len(b))
	firstBlock := uint64(off / nvm.PageSize)
	nBlocks := int(uint64((end-1)/nvm.PageSize)-firstBlock) + 1
	var err error
	for it := n.radix.Extents(firstBlock, nBlocks); it.Next(); {
		e := it.Ext
		if e.Page == 0 {
			err = fmt.Errorf("libfs: write into unmapped block %d", e.Block)
			break
		}
		extStart := int64(e.Block) * nvm.PageSize
		lo, hi := off, end
		if extStart > lo {
			lo = extStart
		}
		if extEnd := extStart + int64(e.Count)*nvm.PageSize; extEnd < hi {
			hi = extEnd
		}
		skip := lo - extStart
		page := nvm.PageID(e.Page) + nvm.PageID(skip/nvm.PageSize)
		batch.WriteRange(page, int(skip%nvm.PageSize), b[lo-off:hi-off])
	}
	if werr := batch.Wait(); err == nil {
		err = werr
	}
	batch.Release()
	dc.End()
	if err != nil {
		return err
	}
	pc := sp.Child("nvm.persist", "nvm")
	fs.as.Fence()
	pc.End()
	return nil
}

// Truncate implements fsapi.File (and DWTL's shrink operation).
func (h *Handle) Truncate(size int64) error {
	if size < 0 {
		return fsapi.ErrInval
	}
	if !h.write {
		return fsapi.ErrPerm
	}
	fs := h.c.fs
	n := h.n
	return ioErr(fs.withMapped(n, true, func() error {
		n.ilock.Lock()
		defer n.ilock.Unlock()
		cur := atomic.LoadInt64(&n.size)
		if size < cur {
			// Free whole pages beyond the new size; the size store is
			// the commit point, so free only after it persists.
			firstDead := uint64((size + nvm.PageSize - 1) / nvm.PageSize)
			lastLive := uint64(cur-1) / nvm.PageSize
			var dead []nvm.PageID
			for block := firstDead; block <= lastLive; block++ {
				if p := n.radix.Get(block); p != 0 {
					dead = append(dead, nvm.PageID(p))
					chainIdx := int(block / core.IndexEntriesPerPage)
					if chainIdx < len(n.chain) {
						if err := core.SetIndexEntry(fs.as, n.chain[chainIdx], int(block%core.IndexEntriesPerPage), nvm.NilPage); err != nil {
							return err
						}
					}
					n.radix.Delete(block)
				}
			}
			fs.as.Fence()
			if err := core.UpdateInodeSizeMtime(fs.as, n.loc(), uint64(size), uint64(time.Now().UnixNano())); err != nil {
				return err
			}
			atomic.StoreInt64(&n.size, size)
			// Truncated pages can already be bound to the controller's
			// file record (the file was verified mid-life, e.g. by a
			// lease recall of the parent directory), so they must not
			// re-enter the local pool cache as if freshly allocated —
			// the controller is the only side that can retire a bound
			// page from its owner's record.
			if err := fs.sess.FreePages(dead); err != nil {
				return mapControllerErr(err)
			}
			return nil
		}
		if err := core.UpdateInodeSizeMtime(fs.as, n.loc(), uint64(size), uint64(time.Now().UnixNano())); err != nil {
			return err
		}
		atomic.StoreInt64(&n.size, size)
		return nil
	}))
}
