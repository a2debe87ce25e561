// Package libfs implements ArckFS (paper §4): a POSIX-like userspace
// NVM library file system built on the Trio architecture. It accesses
// the shared core state directly through its MMU-enforced address
// space, keeps all of its indexes, locks and caches as private
// auxiliary state in DRAM, and talks to the kernel controller only for
// the rare resource-management operations: mapping/unmapping files,
// allocating pages and inode numbers (both batched per CPU), permission
// changes and file removal.
//
// Auxiliary state per regular file (paper §4.2, Fig. 4): a radix tree
// from file block to data page, a readers-writer inode lock, and a
// range lock so disjoint writers proceed in parallel. Per directory: a
// resizable chained hash table from name to entry, a "logging tail" per
// non-full dirent page (so inserts on different pages do not contend),
// and an index-tail lock serializing growth.
//
// Crash consistency (§4.4): metadata operations are synchronous and
// atomic — orchestrated so that a single 8-byte inode-number store
// commits each create/unlink, with rename going through a per-CPU undo
// journal. Data operations are synchronous but not atomic.
package libfs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/delegation"
	"trio/internal/fsapi"
	"trio/internal/index"
	"trio/internal/journal"
	"trio/internal/locks"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// Config tunes a LibFS instance.
type Config struct {
	// CPUs sizes per-CPU resources (page/ino caches, journals).
	CPUs int
	// Pool enables opportunistic delegation when non-nil.
	Pool *delegation.Pool
	// Stripe spreads file data pages across NUMA nodes (only sensible
	// together with Pool).
	Stripe bool
	// PageBatch sizes the per-CPU page caches.
	PageBatch int
	// VerifyReads cross-checks every fully-covered page of a ReadAt
	// against its sealed per-page CRC record before returning the bytes
	// (fsapi.ErrCorrupt on mismatch). Off by default, gated like
	// telemetry; the measured overhead lives in EXPERIMENTS.md.
	VerifyReads bool
}

func (c *Config) fill() {
	if c.CPUs <= 0 {
		c.CPUs = 8
	}
	if c.PageBatch <= 0 {
		c.PageBatch = 128
	}
}

// FS is one application's ArckFS instance. Within a trust group, all
// processes share one FS (paper §3.2).
type FS struct {
	sess *controller.Session
	as   *mmu.AddressSpace
	pool *delegation.Pool
	cfg  Config

	nodeMu sync.Mutex
	nodes  map[core.Ino]*node

	root *node

	percpu []cpuLocal

	dev *nvm.Device
	// views are per-NUMA-node accessors: a thread with CPU hint c issues
	// its data accesses from node c%nodes, like threads spread across
	// the machine's sockets.
	views []*mmu.View
}

// cpuLocal holds one CPU's private resource caches (§4.5: per-CPU block
// allocators, inode allocators and journals).
type cpuLocal struct {
	mu sync.Mutex
	// pages is the page cache, one per NUMA node (pagecache.go), so data
	// placement (local metadata, chunk-striped bulk data, whole granules
	// for a growing file) is a cache pick, not a controller call.
	pages []pageCache
	inos  []core.Ino
	jr    *journal.Journal
	// dead batches unlinked regular files so RemoveFiles amortizes the
	// kernel crossing the way page/ino allocation does (§4.5).
	dead []controller.Removal
	_    [24]byte
}

// removeBatch is the deferred-unlink flush threshold.
const removeBatch = 8

// deferRemove queues a regular file's retirement, flushing a full batch.
func (fs *FS) deferRemove(cpu int, ino core.Ino, pages []nvm.PageID) error {
	cl := &fs.percpu[cpu]
	cl.mu.Lock()
	if cl.dead == nil {
		cl.dead = make([]controller.Removal, 0, removeBatch)
	}
	cl.dead = append(cl.dead, controller.Removal{Ino: ino, Pages: pages})
	var flush []controller.Removal
	if len(cl.dead) >= removeBatch {
		flush = cl.dead
		cl.dead = nil
	}
	cl.mu.Unlock()
	if flush != nil {
		return fs.removeFiles(cpu, flush)
	}
	return nil
}

// removeFiles retires items through the controller and takes the pool
// pages it recycles back into the CPU's cache.
func (fs *FS) removeFiles(cpu int, items []controller.Removal) error {
	recycled, err := fs.sess.RemoveFiles(items)
	if ferr := fs.freePages(cpu, recycled); err == nil {
		err = ferr
	}
	return err
}

// flushRemovals drains every CPU's deferred unlinks (unmount, tests).
func (fs *FS) flushRemovals() error {
	var all []controller.Removal
	for i := range fs.percpu {
		cl := &fs.percpu[i]
		cl.mu.Lock()
		all = append(all, cl.dead...)
		cl.dead = nil
		cl.mu.Unlock()
	}
	if len(all) == 0 {
		return nil
	}
	recycled, err := fs.sess.RemoveFiles(all)
	if len(recycled) > 0 {
		// Unmount path: hand them straight back to the controller.
		if ferr := fs.sess.FreePages(recycled); err == nil {
			err = ferr
		}
	}
	return err
}

// node is the auxiliary state of one file ("vnode").
type node struct {
	ino core.Ino
	// locBits packs the dirent location (page<<8 | slot); it changes on
	// rename while readers may be mid-operation, hence atomic.
	locBits atomic.Uint64
	// ftypeBits holds the core.FileType; buildAux re-asserts it while
	// other threads read it, hence atomic.
	ftypeBits atomic.Uint32

	// mapping state: mapState is 0 (unmapped), 1 (read) or 2 (write);
	// reads of the fast path are lock-free, transitions hold mapMu.
	mapMu    sync.Mutex
	mapState atomic.Uint32
	// auxMu orders aux rebuilds against in-flight operations: buildAux
	// swaps the aux pointers below under the write lock, ops run under
	// the read lock (withMapped). Invalidation never clears the
	// pointers — a stale op keeps a coherent (if outdated) view, faults
	// on its next NVM access because the mapping is gone, and retries
	// against the freshly built aux.
	auxMu sync.RWMutex

	// regular file auxiliary state
	radix *index.Radix
	chain []nvm.PageID // ordered index-page chain
	size  int64
	ilock locks.RWLock
	// rlock is the range lock, held by value: its first 2 MiB segment is
	// inline, so a small file's data accesses allocate no lock state.
	rlock locks.RangeLock

	// directory auxiliary state
	ht        *index.Map[dirEntry]
	tailsMu   sync.Mutex
	tails     []*pageTail // non-full dirent pages
	idxTail   sync.Mutex  // index-tail lock (growth)
	dirBlocks int         // dirent pages linked so far: the next one's block number

	// auxGen is the controller's structure generation (MapInfo.Gen) the
	// regular-file aux was built under, 0 when it vouched for none; written
	// under auxMu's write lock. Read once per map: kept clear of the
	// fields every data operation touches.
	auxGen uint64
}

// newNode returns the blank auxiliary state of inode ino.
func newNode(ino core.Ino) *node {
	n := &node{ino: ino}
	n.rlock.Init(2 << 20)
	return n
}

func locToBits(l core.FileLoc) uint64 { return uint64(l.Page)<<8 | uint64(l.Slot)&0xff }

func bitsToLoc(b uint64) core.FileLoc {
	return core.FileLoc{Page: nvm.PageID(b >> 8), Slot: int(b & 0xff)}
}

// ftype reads the node's file type.
func (n *node) ftype() core.FileType { return core.FileType(n.ftypeBits.Load()) }

// setFtype records the node's file type.
func (n *node) setFtype(t core.FileType) { n.ftypeBits.Store(uint32(t)) }

// loc reads the node's dirent location.
func (n *node) loc() core.FileLoc { return bitsToLoc(n.locBits.Load()) }

// setLoc updates the node's dirent location (rename, map refresh).
func (n *node) setLoc(l core.FileLoc) {
	// Most calls (every lookup's refresh) find the location unchanged:
	// store nothing then, so the node's line is not written.
	if b := locToBits(l); n.locBits.Load() != b {
		n.locBits.Store(b)
	}
}

// dirEntry is the hash-table value: where a child's dirent lives.
type dirEntry struct {
	ino   core.Ino
	loc   core.FileLoc
	ftype core.FileType
}

// pageTail is the per-dirent-page logging tail (paper §4.2): each
// non-full page has its own lock and free-slot list, so concurrent
// creates on one directory spread across pages instead of serializing.
type pageTail struct {
	mu   sync.Mutex
	page nvm.PageID
	free []int // free slot indexes
}

// New creates an ArckFS LibFS over a controller session.
func New(sess *controller.Session, cfg Config) (*FS, error) {
	cfg.fill()
	fs := &FS{
		sess:   sess,
		as:     sess.AddressSpace(),
		pool:   cfg.Pool,
		cfg:    cfg,
		nodes:  make(map[core.Ino]*node),
		percpu: make([]cpuLocal, cfg.CPUs),
		dev:    sess.AddressSpace().Device(),
	}
	fs.views = make([]*mmu.View, fs.dev.Nodes())
	for n := range fs.views {
		fs.views[n] = fs.as.View(n)
	}
	fs.root = newNode(core.RootIno)
	fs.root.setFtype(core.TypeDir)
	fs.root.setLoc(core.RootLoc())
	fs.nodes[core.RootIno] = fs.root
	// Cooperative lease recall (§4.5): when another trust domain wants a
	// file whose lease this LibFS let expire, give the mapping back
	// instead of waiting for the controller's forcible revocation.
	sess.SetRecallHandler(fs.onRecall)
	return fs, nil
}

// onRecall is the controller's lease-recall upcall: release the named
// file's mapping so the waiter gets it without a forced revocation. Any
// failure is deliberately ignored — the controller's escalation deadline
// is the backstop, not this untrusted handler.
func (fs *FS) onRecall(ino core.Ino) {
	fs.nodeMu.Lock()
	n := fs.nodes[ino]
	fs.nodeMu.Unlock()
	if n == nil {
		return
	}
	n.mapMu.Lock()
	defer n.mapMu.Unlock()
	if n.mapState.Load() == 0 {
		return
	}
	err := fs.sess.UnmapFile(ino)
	if err != nil && !errors.Is(err, controller.ErrRevoked) && !errors.Is(err, controller.ErrSessionDead) {
		return // mapping still stands; the controller will escalate
	}
	// Aux stays for in-flight operations (they fault and rebuild).
	n.mapState.Store(0)
}

// Name implements fsapi.FS.
func (fs *FS) Name() string {
	if fs.pool != nil {
		return "arckfs"
	}
	return "arckfs-nd"
}

// Session exposes the controller session (facade, tests).
func (fs *FS) Session() *controller.Session { return fs.sess }

// Close unmaps everything and ends the session.
func (fs *FS) Close() error {
	if err := fs.flushRemovals(); err != nil {
		return err
	}
	return fs.sess.Close()
}

// NewClient returns a per-thread handle.
func (fs *FS) NewClient(cpu int) fsapi.Client {
	return &Client{fs: fs, cpu: cpu % fs.cfg.CPUs}
}

// Client is a per-thread view with its own CPU hint and fd table.
type Client struct {
	fs  *FS
	cpu int

	fdMu sync.Mutex
	fds  []*Handle
	free []int
}

// ---------------------------------------------------------------------
// node lookup & mapping management
// ---------------------------------------------------------------------

func (fs *FS) nodeFor(e dirEntry) *node {
	fs.nodeMu.Lock()
	defer fs.nodeMu.Unlock()
	if n, ok := fs.nodes[e.ino]; ok {
		n.setLoc(e.loc) // refresh (rename may have moved the dirent)
		return n
	}
	n := newNode(e.ino)
	n.setFtype(e.ftype)
	n.setLoc(e.loc)
	fs.nodes[e.ino] = n
	return n
}

func (fs *FS) dropNode(ino core.Ino) {
	fs.nodeMu.Lock()
	delete(fs.nodes, ino)
	fs.nodeMu.Unlock()
}

// ensureMapped makes sure the node is mapped with at least the wanted
// access and its auxiliary state is built. It is the LibFS-side half of
// the Fig. 2 protocol: request access, then rebuild private state from
// the shared core state. The already-mapped fast path is a single
// atomic load — open/stat storms must not serialize on a node lock.
func (fs *FS) ensureMapped(n *node, write bool) error {
	need := uint32(1)
	if write {
		need = 2
	}
	if n.mapState.Load() >= need {
		return nil
	}
	n.mapMu.Lock()
	defer n.mapMu.Unlock()
	if n.mapState.Load() >= need {
		return nil
	}
	info, err := fs.sess.MapFile(n.ino, n.loc(), write)
	if err != nil {
		return mapControllerErr(err)
	}
	var rebuilt time.Duration
	n.auxMu.Lock() // waits out operations still running on the old mapping
	reuse := info.Gen != 0 && info.Gen == n.auxGen && info.Inode.Type == core.TypeReg
	if reuse {
		// The controller vouches that no index page was stored to since
		// this aux was built from them — our own stores included: aux
		// changes only after the core store it mirrors has landed, and
		// such a store costs the file its generation. The inode is the
		// one thing a writer elsewhere may have moved (an extending write
		// inside the last block); the grant carries it.
		atomic.StoreInt64(&n.size, int64(info.Inode.Size))
	} else {
		start := telemetry.Now()
		if err = fs.buildAux(n, &info.Inode); err == nil {
			n.auxGen = info.Gen
		} else {
			n.auxGen = 0 // the old aux stays for operations in flight, vouched for by nothing
		}
		rebuilt = time.Duration(telemetry.Now() - start)
	}
	n.auxMu.Unlock()
	if err != nil {
		return err
	}
	if reuse {
		mAuxReused.Inc()
	} else {
		mAuxRebuilt.Inc()
		fs.statsRebuild(rebuilt)
	}
	n.setLoc(info.Loc)
	n.mapState.Store(need)
	return nil
}

func (fs *FS) statsRebuild(d time.Duration) {
	// Rebuild time is LibFS-side sharing cost (Fig. 8).
	fs.sess.Stats().AddRebuild(d)
}

// invalidate drops a node's mapping state after a fault (revocation by
// the controller: lease expiry or a writer elsewhere). The aux pointers
// stay in place — concurrent operations may still be walking them; they
// fault on their next NVM access and rebuild (see node.auxMu).
func (fs *FS) invalidate(n *node) {
	n.mapMu.Lock()
	n.mapState.Store(0)
	n.mapMu.Unlock()
}

// withMapped runs fn with the node mapped; when fn faults because the
// mapping was revoked, the aux state is rebuilt once and fn retried —
// the LibFS equivalent of a page-fault-and-remap cycle.
func (fs *FS) withMapped(n *node, write bool, fn func() error) error {
	for attempt := 0; ; attempt++ {
		if err := fs.ensureMapped(n, write); err != nil {
			return err
		}
		n.auxMu.RLock()
		err := fn()
		n.auxMu.RUnlock()
		if err == nil || !errors.Is(err, mmu.ErrFault) || attempt >= 3 {
			return err
		}
		fs.invalidate(n)
	}
}

// buildAux rebuilds the node's auxiliary state from the core state
// (paper §4.2 "Building auxiliary state from core state").
func (fs *FS) buildAux(n *node, in *core.Inode) error {
	n.setFtype(in.Type)
	switch in.Type {
	case core.TypeReg:
		radix := index.NewRadix()
		var chain []nvm.PageID
		// Consecutive blocks go into the radix a run at a time; a hole in
		// the index or a full buffer flushes the run.
		var run [core.IndexEntriesPerPage]uint64
		first, k := uint64(0), 0
		flush := func() { radix.PutRun(first, run[:k]); k = 0 }
		err := core.WalkFile(fs.as, in.Head, int(fs.dev.NumPages()),
			func(p nvm.PageID) bool { chain = append(chain, p); return true },
			func(b uint64, p nvm.PageID) bool {
				if k == len(run) || (k > 0 && b != first+uint64(k)) {
					flush()
				}
				if k == 0 {
					first = b
				}
				run[k] = uint64(p)
				k++
				return true
			})
		if err != nil {
			return err
		}
		flush()
		n.radix = radix
		n.chain = chain
		atomic.StoreInt64(&n.size, int64(in.Size))
	case core.TypeDir:
		ht := index.NewMap[dirEntry]()
		var chain []nvm.PageID
		dirBlocks := 0
		var tails []*pageTail
		err := core.WalkFile(fs.as, in.Head, int(fs.dev.NumPages()),
			func(p nvm.PageID) bool { chain = append(chain, p); return true },
			func(_ uint64, p nvm.PageID) bool {
				dirBlocks++
				dp, derr := core.ReadDirPage(fs.as, p)
				if derr != nil {
					return false
				}
				var free []int
				for slot := 0; slot < core.SlotsPerDirPage; slot++ {
					if dp.SlotIno(slot) == 0 {
						free = append(free, slot)
						continue
					}
					child := dp.SlotInode(slot)
					name, nerr := dp.SlotName(slot)
					if nerr != nil {
						return false
					}
					ht.Put(name, dirEntry{
						ino: child.Ino, loc: core.FileLoc{Page: p, Slot: slot}, ftype: child.Type,
					})
				}
				if len(free) > 0 {
					tails = append(tails, &pageTail{page: p, free: free})
				}
				return true
			})
		if err != nil {
			return err
		}
		n.ht = ht
		n.chain = chain
		n.dirBlocks = dirBlocks
		n.tails = tails
	default:
		return fmt.Errorf("libfs: inode %d has type %v", in.Ino, in.Type)
	}
	return nil
}

// resolve walks the path from the root, mapping each directory along
// the way (read access suffices for traversal) and looking components
// up in the per-directory hash tables. The path string is walked in
// place: a lookup allocates nothing.
func (fs *FS) resolve(path string) (*node, error) {
	n := fs.root
	for name, rest := fsapi.NextComponent(path); name != ""; name, rest = fsapi.NextComponent(rest) {
		if n.ftype() != core.TypeDir {
			return nil, fsapi.ErrNotDir
		}
		var next dirEntry
		err := fs.withMapped(n, false, func() error {
			e, ok := n.ht.Get(name)
			if !ok {
				return fsapi.ErrNotExist
			}
			next = e
			return nil
		})
		if err != nil {
			return nil, err
		}
		n = fs.nodeFor(next)
	}
	return n, nil
}

// resolveParent resolves everything but the final component.
func (fs *FS) resolveParent(path string) (*node, string, error) {
	dir, name := fsapi.SplitLast(path)
	if name == "" {
		return nil, "", fsapi.ErrInval
	}
	parent, rerr := fs.resolve(dir)
	if rerr != nil {
		return nil, "", rerr
	}
	if parent.ftype() != core.TypeDir {
		return nil, "", fsapi.ErrNotDir
	}
	return parent, name, nil
}

// The three helpers below are core.ReadDirentInode, core.WriteInodeBody
// and core.WriteDirentName issued through the LibFS's concrete address
// space instead of the core.Mem interface: a buffer handed to an
// interface method escapes to the heap, and these sit on every create,
// stat, rename and unlink. The formats stay in core (its Encode/Decode
// functions); the media operations are the same, one for one.

func (fs *FS) readDirentInode(loc core.FileLoc) (core.Inode, error) {
	var b [core.InodeSize]byte
	if err := fs.as.Read(loc.Page, core.SlotOffset(loc.Slot)+core.DirentInodeOff, b[:]); err != nil {
		return core.Inode{}, err
	}
	return core.DecodeInode(b[:]), nil
}

func (fs *FS) writeInodeBody(p nvm.PageID, off int, in *core.Inode) error {
	var b [core.InodeSize]byte
	core.EncodeInode(b[:], in)
	if err := fs.as.Write(p, off+8, b[8:]); err != nil {
		return err
	}
	return fs.as.Persist(p, off+8, core.InodeSize-8)
}

func (fs *FS) writeDirentName(p nvm.PageID, slot int, name string) error {
	if err := core.ValidateName(name); err != nil {
		return err
	}
	var b [2 + core.MaxNameLen]byte
	n := core.EncodeDirentName(b[:], name)
	off := core.SlotOffset(slot) + core.DirentNameLenOff
	if err := fs.as.Write(p, off, b[:n]); err != nil {
		return err
	}
	return fs.as.Persist(p, off, n)
}

// ioErr translates device-level faults — injected media errors, a busy
// window that outlived the retry budget, a frozen crashed device — into
// fsapi.ErrIO at the client API boundary, so harness code above the FS
// sees a POSIX-shaped error instead of a device internals leak. All
// other errors pass through unchanged.
func ioErr(err error) error {
	if err == nil || !nvm.IsInjected(err) {
		return err
	}
	return fmt.Errorf("%w: %v", fsapi.ErrIO, err)
}

// mapControllerErr translates controller errors into fsapi errors.
func mapControllerErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, controller.ErrPermission):
		return fmt.Errorf("%w: %v", fsapi.ErrPerm, err)
	case errors.Is(err, controller.ErrUnknownFile):
		return fmt.Errorf("%w: %v", fsapi.ErrNotExist, err)
	case errors.Is(err, controller.ErrNotEmpty):
		return fsapi.ErrNotEmpty
	case errors.Is(err, controller.ErrCorrupt), errors.Is(err, controller.ErrQuarantined):
		// The scrubber (or a sharing-time verification) condemned the
		// file; surface the typed corruption error, never the bytes.
		return fmt.Errorf("%w: %v", fsapi.ErrCorrupt, err)
	case errors.Is(err, controller.ErrSessionDead):
		// The process behind this session is gone as far as the kernel
		// is concerned; every syscall is an I/O error from here on.
		return fmt.Errorf("%w: %v", fsapi.ErrIO, err)
	default:
		return err
	}
}

// ---------------------------------------------------------------------
// per-CPU resource caches
// ---------------------------------------------------------------------

// stripeChunkBlocks is the striping granularity in blocks: 2 MiB, the
// OdinFS chunk size. Files smaller than one chunk stay on a single
// node — local when possible — so small-file workloads never pay the
// remote-access penalty; bulk files spread chunk by chunk so delegated
// operations can use every node's bandwidth in parallel (§4.5).
const stripeChunkBlocks = (2 << 20) / nvm.PageSize

// threadNode maps a CPU hint to the NUMA node its thread runs on.
func (fs *FS) threadNode(cpu int) int { return cpu % fs.dev.Nodes() }

// mem returns the accessor for the calling thread's node.
func (fs *FS) mem(cpu int) *mmu.View { return fs.views[fs.threadNode(cpu)] }

// nodeForBlock picks the NUMA node a file block's data page should live
// on under striping.
func (fs *FS) nodeForBlock(cpu int, block uint64) int {
	if !fs.cfg.Stripe || fs.dev.Nodes() <= 1 {
		return fs.threadNode(cpu)
	}
	chunk := int(block / stripeChunkBlocks)
	return (fs.threadNode(cpu) + chunk) % fs.dev.Nodes()
}

// cacheLocked returns the CPU's page cache for node (cl.mu held).
func (fs *FS) cacheLocked(cl *cpuLocal, node int) *pageCache {
	if cl.pages == nil {
		cl.pages = make([]pageCache, fs.dev.Nodes())
	}
	return &cl.pages[node]
}

// refillLocked fetches a batch of want pages for node into pc (cl.mu
// held): one controller call amortized over the batch — the design that
// keeps traps off the hot path. The batch goes in from its top, so its
// granules list in address order and placement opens them ascending.
func (fs *FS) refillLocked(cpu, node, want int, pc *pageCache) error {
	var pool []nvm.PageID
	var err error
	if fs.dev.Nodes() > 1 {
		pool, err = fs.sess.AllocPagesOnNode(cpu, want, node)
	} else {
		pool, err = fs.sess.AllocPages(cpu, want)
	}
	if len(pool) == 0 {
		return fmt.Errorf("%w: %v", fsapi.ErrNoSpace, err)
	}
	for i := len(pool) - 1; i >= 0; i-- {
		pc.put(pool[i])
	}
	return nil
}

// allocDataRun takes the pages of the k file blocks from block on out of
// the CPU's cache for node and appends them to out (the caller's buffer,
// so a short run allocates nothing); prev is the page of block-1, 0 when
// there is none. A block that starts a granule opens a whole free one,
// and every other block takes the page after its predecessor's while
// that is free — with the pages the rest of its run would take after
// it, so a run is not cut in the middle. Failing both, a stretch that
// holds the rest of the run, else any page: placement is a preference
// and never fails. A cache holding less than a batch fetches one first
// when a file growing past its first granule finds no whole granule, or
// a run finds no stretch.
func (fs *FS) allocDataRun(cpu, node int, block uint64, prev nvm.PageID, k int, out []nvm.PageID) ([]nvm.PageID, error) {
	cl := &fs.percpu[cpu]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	pc := fs.cacheLocked(cl, node)
	batch := (fs.cfg.PageBatch + nvm.GranulePages - 1) &^ (nvm.GranulePages - 1)
	for i := 0; i < k; i++ {
		b, p, ok := block+uint64(i), nvm.PageID(0), false
		rest := min(k-i, nvm.GranulePages-int(b%nvm.GranulePages)) // up to the file's next granule
		switch {
		case b%nvm.GranulePages == 0:
			if p, ok = pc.takeWhole(); !ok && b > 0 && pc.n < batch && fs.refillLocked(cpu, node, batch, pc) == nil {
				p, ok = pc.takeWhole()
			}
		case prev != 0 && pc.free(prev+1, rest):
			p, ok = pc.take(prev+1, true), true
		}
		if !ok {
			if p, ok = pc.takeFree(rest, true); !ok && pc.n < batch {
				if err := fs.refillLocked(cpu, node, max(batch, k-i), pc); err != nil && pc.n == 0 {
					for _, q := range out {
						pc.put(q) // nothing leaks
					}
					return nil, err
				}
				p, ok = pc.takeFree(rest, true)
			}
			if !ok {
				p, _ = pc.takeFree(1, true)
			}
		}
		out = append(out, p)
		prev = p
	}
	return out, nil
}

// allocPage allocates metadata pages (index, directory, journal): always
// node-local to the calling thread, and loose pages first.
func (fs *FS) allocPage(cpu int) (nvm.PageID, error) {
	node := fs.threadNode(cpu)
	cl := &fs.percpu[cpu]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	pc := fs.cacheLocked(cl, node)
	if pc.n == 0 {
		if err := fs.refillLocked(cpu, node, fs.cfg.PageBatch, pc); err != nil {
			return 0, err
		}
	}
	p, _ := pc.takeFree(1, false)
	return p, nil
}

// freePages returns pages to the CPU cache, spilling to the controller
// when the cache is full.
func (fs *FS) freePages(cpu int, pages []nvm.PageID) error {
	if len(pages) == 0 {
		return nil
	}
	cl := &fs.percpu[cpu]
	cl.mu.Lock()
	var spill []nvm.PageID
	for _, p := range pages {
		pc := fs.cacheLocked(cl, fs.dev.NodeOf(p))
		// The cache absorbs several files' worth of churn (Filebench-
		// style create/delete cycles) before anything spills back to
		// the controller.
		if pc.n >= 16*fs.cfg.PageBatch {
			spill = append(spill, p)
			continue
		}
		pc.put(p)
	}
	cl.mu.Unlock()
	if len(spill) > 0 {
		return fs.sess.FreePages(spill)
	}
	return nil
}

// inoBatch is how many inode numbers one AllocInos call fills a CPU's
// cache with.
const inoBatch = 32

// allocIno takes one inode number from the CPU cache.
func (fs *FS) allocIno(cpu int) (core.Ino, error) {
	cl := &fs.percpu[cpu]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.inos) == 0 {
		inos, err := fs.sess.AllocInos(cpu, inoBatch)
		if err != nil {
			return 0, err
		}
		cl.inos = inos
	}
	ino := cl.inos[len(cl.inos)-1]
	cl.inos = cl.inos[:len(cl.inos)-1]
	return ino, nil
}

// journalFor lazily creates the CPU's undo journal on an owned page.
func (fs *FS) journalFor(cpu int) (*journal.Journal, error) {
	cl := &fs.percpu[cpu]
	cl.mu.Lock()
	jr := cl.jr
	cl.mu.Unlock()
	if jr != nil {
		return jr, nil
	}
	p, err := fs.allocPage(cpu)
	if err != nil {
		return nil, err
	}
	jr, err = journal.New(fs.as, p)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	if cl.jr == nil {
		cl.jr = jr
	} else {
		jr = cl.jr
	}
	cl.mu.Unlock()
	return jr, nil
}

// Fresh auxiliary-state constructors for newly created files: the
// creator initializes aux state directly instead of rebuilding it from
// the (still empty) core state.
func (fs *FS) freshRadix() *index.Radix          { return index.NewRadix() }
func (fs *FS) freshDirMap() *index.Map[dirEntry] { return index.NewMap[dirEntry]() }

// Recover is the LibFS's crash-recovery program (§4.4): it replays any
// armed per-CPU undo journal, then discards all auxiliary state (it is
// soft state; it will be rebuilt on demand).
func (fs *FS) Recover() error {
	var firstErr error
	for i := range fs.percpu {
		cl := &fs.percpu[i]
		if cl.jr == nil {
			continue
		}
		if _, err := cl.jr.Recover(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	fs.nodeMu.Lock()
	fs.nodes = map[core.Ino]*node{core.RootIno: fs.root}
	fs.nodeMu.Unlock()
	fs.invalidate(fs.root)
	return firstErr
}
