// Package controller implements Trio's in-kernel access controller
// (paper §3.2): the privileged component that decides which shared file
// system resources — NVM pages and inodes — each LibFS can access. It
// owns the device, programs the (simulated) MMU, maintains the global
// file-system information the integrity verifier needs for invariant I2,
// keeps a shadow of each file's inode for I4, checkpoints files when granting
// write access, and orchestrates verification and corruption handling
// when write access to a file transfers between trust domains (§4.3).
//
// The controller is deliberately file-system-agnostic beyond the shared
// core-state definition: it contains no directory hash tables, no radix
// trees, no journals — those are LibFS auxiliary state. Everything here
// exists to enforce access control and metadata integrity.
package controller

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/alloc"
	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/telemetry"
	"trio/internal/verifier"
)

// LibFSID identifies a registered LibFS instance.
type LibFSID uint32

// GroupID identifies a trust group (§3.2). Processes in one trust group
// share files without the map/verify/rebuild sharing cost.
type GroupID uint32

// Common error conditions surfaced to LibFSes.
var (
	ErrPermission  = errors.New("controller: permission denied")
	ErrBusy        = errors.New("controller: file is exclusively mapped")
	ErrUnknownFile = errors.New("controller: unknown file")
	ErrQuarantined = errors.New("controller: file was quarantined after corruption")
	ErrCorrupt     = errors.New("controller: core state failed integrity verification")
	ErrNotEmpty    = errors.New("controller: directory not empty")
	ErrBadRequest  = errors.New("controller: invalid request")
	// ErrSessionDead is returned for any call on a session that was
	// abandoned (its process died) and reaped by the controller.
	ErrSessionDead = errors.New("controller: session is dead")
	// ErrRevoked is returned when a LibFS acts on a mapping the
	// controller forcibly revoked (lease expiry or reap).
	ErrRevoked = errors.New("controller: mapping was forcibly revoked")
)

// Options configures a controller.
type Options struct {
	// CPUs sizes the per-CPU allocator sharding. Defaults to 8.
	CPUs int
	// LeaseTime bounds how long a LibFS may hold exclusive write access
	// to a file while another trust domain wants it (§4.5: "the kernel
	// controller uses leases to prevent a LibFS from holding a file
	// forever"). Defaults to 10ms (the paper uses 100ms; scaled down
	// with everything else).
	LeaseTime time.Duration
	// FixTimeout is how long a LibFS gets to fix corruption it caused
	// before the controller rolls the file back (§4.3).
	FixTimeout time.Duration
	// RecallTimeout is how long a LibFS holding an expired lease gets to
	// honour a cooperative recall request before the controller forcibly
	// revokes the file (lease escalation, §4.5). Defaults to 10ms.
	RecallTimeout time.Duration
	// LeaseSweep, when positive, starts one sweeper per shard that reaps
	// abandoned sessions and scrubs at this period. Leases need none: a
	// map waiting on one drives it (mapEntry). Close stops the sweepers.
	LeaseSweep time.Duration
	// ScrubPagesPerSweep rate-limits the online integrity scrubber: how
	// many pages each background sweep audits against the checksum
	// table. 0 derives a budget from the NVM cost model (a few percent
	// of one sweep period's read bandwidth, so scrubbing never collapses
	// tenant throughput); negative disables background scrubbing
	// entirely (crash-sweep rigs need this — scrub seals persist records
	// at nondeterministic points). ScrubAll remains available either
	// way. Scrubbing only runs when LeaseSweep starts the sweeper.
	ScrubPagesPerSweep int
	// Shards is the number of controller lock shards (ISSUE 6): state
	// is partitioned by inode/session hash so independent tenants do
	// not serialize on one mutex. Defaults to 8; 1 restores the single
	// global-lock behavior.
	Shards int
}

func (o *Options) fill() {
	if o.CPUs <= 0 {
		o.CPUs = 8
	}
	if o.LeaseTime <= 0 {
		o.LeaseTime = 10 * time.Millisecond
	}
	if o.FixTimeout <= 0 {
		o.FixTimeout = 10 * time.Millisecond
	}
	if o.RecallTimeout <= 0 {
		o.RecallTimeout = 10 * time.Millisecond
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Shards > maxShards {
		o.Shards = maxShards
	}
}

// fileState is the controller's record of one existing, verified file.
type fileState struct {
	ino    core.Ino
	loc    core.FileLoc
	ftype  core.FileType
	parent core.Ino
	// creator is the session the ino was issued to (0: none, as for a
	// file the mount found). Registration moves it here from allocBy.
	creator LibFSID

	// shadow is the controller's own copy of the inode's permission
	// fields, the ground truth for I4 (§4.3). It is set when the file is
	// registered and changed only by Chmod and Chown, both under lockAll,
	// so any shard lock suffices to read it.
	shadow verifier.ShadowInfo

	// pages is the verified core-state page set (index + data pages) as
	// normal-form runs (runs.go). A page is in it exactly while pageOwner
	// names this file. May be nil (== empty): freshly adopted empty files
	// never allocate one, and the create/unlink hot path relies on that.
	pages []pageRun

	// head, chain and gen are the facts of the file's last clean full walk
	// (regular files; DESIGN.md §5a "Verification by dirty metadata"): the
	// inode Head the walk started from, the index pages it read in chain
	// order, and the structure generation it was given (0 = not walked
	// since mount). While every chain page keeps its Controller.facts bit,
	// that walk's I2 verdict and pages are still true of the media.
	head  nvm.PageID
	chain []nvm.PageID
	gen   uint64

	// children is the last verified dirent list (directories only); it
	// doubles as the I3 baseline when no fresh checkpoint exists.
	children []verifier.ChildRef

	// holders are the file's mappings, the one record of who holds it and
	// how: a grant adds one, a release takes it out. The write holders are
	// of one trust group. holdBuf keeps two off the heap.
	holders []*mapping
	holdBuf [2]*mapping
	// writerSince is when the group's first write holder asked for its
	// grant (the lease's start), on telemetry.Now's clock, as every lease
	// instant here is.
	writerSince int64

	// recallAt is when a cooperative lease-recall request was sent to
	// the write holders (zero = none outstanding); after RecallTimeout the
	// escalation proceeds to forcible revocation.
	recallAt int64
	// wake is what map entries waiting out the lease park on (nil: none).
	wake chan struct{}

	checkpoint *checkpoint
	// kept is the last checkpoint when its index-page images were cut at a
	// grant the facts vouched for (checkpoint.gen): the next such grant of
	// the same generation takes them back instead of reading the pages.
	kept        *checkpoint
	quarantined LibFSID // non-zero once corruption made it private

	// corrupt marks a file the scrubber found latently damaged (a sealed
	// CRC disagreed with the media) and could not repair. Every MapFile
	// fails with ErrCorrupt — garbage is never served — until a remount
	// rebuilds the state (and the next scrub pass re-quarantines it if
	// the damage persists).
	corrupt bool
}

// parkLocked returns the channel a lease waiter parks on and wakeLocked
// closes. Both run under the file's home shard, so no wake falls between
// a waiter's last look at the holders and its park.
func (fs *fileState) parkLocked() <-chan struct{} {
	if fs.wake == nil {
		fs.wake = make(chan struct{})
	}
	return fs.wake
}

func (fs *fileState) wakeLocked() {
	if fs.wake != nil {
		close(fs.wake)
		fs.wake = nil
	}
}

// writeHolderBut reports whether a write holder other than m holds the file.
func (fs *fileState) writeHolderBut(m *mapping) bool {
	for _, o := range fs.holders {
		if o.write && o != m {
			return true
		}
	}
	return false
}

// writeHolder returns a write holder of the file, nil when there is none.
func (fs *fileState) writeHolder() *mapping {
	for _, m := range fs.holders {
		if m.write {
			return m
		}
	}
	return nil
}

// checkpoint snapshots a file's metadata when write access is granted
// (§4.3): index pages for regular files, index and data pages for
// directories, plus the file's whole dirent slot — inode and name, the
// grantee can store to both — and (for dirs) the children list.
type checkpoint struct {
	dirent   [core.DirentSize]byte
	pages    map[nvm.PageID]*[nvm.PageSize]byte
	children []verifier.ChildRef
	// gen is the file's structure generation when the page images were cut
	// at a grant the facts vouched for, 0 otherwise. No index page is
	// stored to between two such grants of one generation, so images of
	// that generation stay the media's content (fileState.kept).
	gen uint64
}

func (cp *checkpoint) npages() int {
	if cp == nil {
		return 0
	}
	return len(cp.pages)
}

// free returns the checkpoint's page buffers to the pool.
func (cp *checkpoint) free() {
	if cp != nil {
		for _, img := range cp.pages {
			cpBufPool.Put(img)
		}
	}
}

// cpBufPool recycles checkpoint page buffers across grants. The
// snapshot itself cannot be skipped or put off — §4.3's rollback needs
// the image from before the grantee's first store.
var cpBufPool = sync.Pool{New: func() any { return new([nvm.PageSize]byte) }}

// dropCheckpointLocked ends the rollback window a write grant opened.
// Images of the file's current generation are kept for the next grant.
func (c *Controller) dropCheckpointLocked(fs *fileState) {
	cp := fs.checkpoint
	if cp == nil {
		return
	}
	fs.checkpoint = nil
	if cp.gen != 0 && cp.gen == fs.gen {
		cp = c.swapKeptLocked(fs, cp)
	}
	cp.free()
}

// swapKeptLocked makes cp (nil: none) the file's kept images and returns
// the ones it had; Stats.KeptPages follows. A file keeps at most its own
// index chain — one page per 2 MiB of data — until its next write grant
// takes the images back or the file is forgotten, with no eviction in
// between (DESIGN.md §5a states the bound).
func (c *Controller) swapKeptLocked(fs *fileState, cp *checkpoint) *checkpoint {
	old := fs.kept
	fs.kept = cp
	if d := cp.npages() - old.npages(); d != 0 {
		c.stats.KeptPages.Add(int64(d))
	}
	return old
}

// libfsState is the controller's record of one registered LibFS.
type libfsState struct {
	id       LibFSID
	uid, gid uint32
	group    GroupID
	as       *mmu.AddressSpace
	c        *Controller

	// allocPages is the session's pool: pages handed to the LibFS that are
	// bound to no file (pages.go). Its inos are the ones Controller.allocBy
	// names it for.
	allocPages map[nvm.PageID]bool

	// parked holds pages that left a file of this LibFS (a verification
	// saw them depart, or the file was removed) but cannot safely be
	// freed yet: the walk that decided they departed may have raced the
	// LibFS's own in-flight userspace stores, so some other file of this
	// LibFS may still reference them. A pool page a grant took into a
	// mapping is parked too (lendLocked); each records the file it left or
	// was lent to. Parked pages stay attributed to the LibFS for
	// verification purposes and are settled at session teardown —
	// rebound if the quiescent core state references them
	// (bindStrayPoolPagesLocked), freed otherwise. They are never handed
	// out by the allocator in between.
	parked map[nvm.PageID]core.Ino

	// mapped tracks which files this LibFS currently has mapped.
	mapped map[core.Ino]*mapping

	// fix, if set, is invoked when this LibFS's corruption is detected,
	// giving it FixTimeout to repair the core state (§4.3).
	fix func(ino core.Ino) error

	// recall, if set, is invoked (on its own goroutine) when the
	// controller asks this LibFS to give up an expired lease
	// cooperatively before forcing revocation.
	recall func(ino core.Ino)

	// dead marks a session whose process died (Abandon) or that the
	// controller reaped; every further syscall returns ErrSessionDead.
	// gone closes with it (markDeadLocked, the one writer of both).
	dead bool
	gone chan struct{}

	// revoked records inos whose write mapping the controller forcibly
	// revoked from this session, so its next Unmap/Commit gets
	// ErrRevoked instead of a generic bad-request error.
	revoked map[core.Ino]bool

	// verifyRep and verifyEnv are the session's verification scratch:
	// every verifyLocked for a session runs under its home shard
	// lock, so one report and one env per session is race-free and saves
	// four allocations per verification. One report means the next
	// verification of the session overwrites the last: a caller copies
	// out whatever it needs past that point (mapWideLocked the adopted
	// inode; handleCorruptionLocked re-verifies and keeps nothing of the
	// failed report).
	verifyRep verifier.Report
	verifyEnv envImpl
	// direntBuf stages the dirent read of a grant and runScratch the page
	// set of a report being committed, under the same lock.
	direntBuf  [core.DirentSize]byte
	runScratch []pageRun
}

// pooled reports whether page p sits in the session's pool or parked set.
func (ls *libfsState) pooled(p nvm.PageID) bool {
	return ls.allocPages[p] || ls.parked[p] != 0
}

// mapping is one session's grant of one file, and its entry in the
// file's holder set.
type mapping struct {
	ls    *libfsState
	fs    *fileState
	write bool
	runs  []pageRun // pages granted for this file (incl. the dirent page), normal form (runs.go)
	// gran is the granules a write grant opened by their bit (runs of
	// granule numbers, bulkio.go); the rest of runs it opened by record.
	gran    []pageRun
	granBuf [1]pageRun
}

// Controller is the trusted kernel component.
type Controller struct {
	dev  *nvm.Device
	mem  core.Mem
	cost *nvm.CostModel
	opts Options

	verifier *verifier.Verifier

	// shards carry the controller's lock space and its two registries,
	// files and sessions: each entry is in its home shard's map only
	// (fileOf, sessionOf). See shard.go.
	shards []ctlShard

	// tabMu (leaf lock, ordered after every shard mutex) guards the
	// global tables below for the fast paths; lockAll sections may
	// access them directly. The page-keyed tables are slices the size of
	// the device; the ino-keyed ones are maps, since an ino is whatever a
	// dirent on the media says.
	tabMu     sync.Mutex
	pageOwner []core.Ino           // page -> verified owning file (0 = none)
	allocBy   map[core.Ino]LibFSID // issued ino no file has yet -> LibFS it was issued to
	// reaped records inos the reaper retired on behalf of a dead
	// session (orphan GC, pool release), so that a surviving LibFS
	// whose batched RemoveFiles for one of them arrives late gets an
	// idempotent success instead of ErrUnknownFile.
	reaped map[core.Ino]bool
	// writeRefs and granWrite count the sessions holding write permission
	// at the page table's two sizes: per page, and per granule for what
	// the MMU reports whole. writeRefsAt, the sum, is how a count is read.
	writeRefs []int32
	granWrite []int32
	// cleanOpen marks pages whose checksum record the controller itself
	// moved sealed→open at a write grant and that nothing has stored to
	// since: the record's carried CRC still describes the content, so the
	// unmap-time seal may close it without reading the page. Cleared by
	// every event that could change the content — a harvested MMU dirty
	// bit (unmappedLocked), a session torn down without harvesting
	// (revokeSpaceLocked), a store of the controller's own (markStored).
	// Volatile: a fresh mount starts with every bit clear and open
	// records reseal from content. Pages a grant opens by their
	// granule's bit have no per-page state: gran holds theirs.
	cleanOpen []bool
	// gran is the checksum state of each 32-page granule (bulkio.go):
	// which file's grants hold it open by its bit, how many, and which of
	// its pages the close must reseal. Volatile like cleanOpen; the bits
	// on the media are what a mount or a recovery starts from.
	gran []granState
	// facts marks index pages nothing has stored to since the clean full
	// walk that last read them (fileState.chain): set when that walk's
	// report commits, cleared by exactly the events that clear cleanOpen,
	// and as volatile. What the bit proves, and what it does not, is
	// DESIGN.md §5a "Verification by dirty metadata".
	facts []bool
	// genSeq issues structure generations (fileState.gen), unique across
	// files so a LibFS can never match one file's against another's.
	genSeq atomic.Uint64

	// bitMu (leaf lock, never held with tabMu) guards the mirror of the
	// checksum region's open bitmap (granule.go): bits as last written,
	// pend the bits to clear behind a fence, pendAt each word's fence
	// ticket when its last bit was pended, pendWords how many words have
	// pend bits (read without the lock). fences issues the tickets.
	bitMu     sync.Mutex
	bits      []uint64
	pend      []uint64
	pendAt    []uint64
	pendWords atomic.Int32
	fences    atomic.Uint64

	pageAlloc *alloc.PageAlloc
	inoAlloc  *alloc.InoAlloc

	// scrubber audits pages against the checksum table under lockAll
	// (ScrubAll, and the sweepers' mismatch re-checks).
	scrubber *verifier.Scrubber

	nextLibFS LibFSID
	nextGroup GroupID

	stats *Stats

	sweepStop chan struct{}
	sweepWG   sync.WaitGroup
	stopOnce  sync.Once
}

// New mounts a controller over the device, formatting it when blank and
// scanning the existing tree when already formatted.
func New(dev *nvm.Device, opts Options) (*Controller, error) {
	opts.fill()
	total := dev.NumPages()
	words := core.GranuleWords(total)
	granules := (total + nvm.GranulePages - 1) >> nvm.GranuleShift
	c := &Controller{
		dev:       dev,
		mem:       core.Direct(dev, 0),
		cost:      dev.Cost(),
		opts:      opts,
		verifier:  verifier.New(dev),
		shards:    make([]ctlShard, opts.Shards),
		pageOwner: make([]core.Ino, total),
		allocBy:   make(map[core.Ino]LibFSID),
		reaped:    make(map[core.Ino]bool),
		writeRefs: make([]int32, total),
		granWrite: make([]int32, granules),
		cleanOpen: make([]bool, total),
		gran:      make([]granState, granules),
		facts:     make([]bool, total),
		bits:      make([]uint64, words),
		pend:      make([]uint64, words),
		pendAt:    make([]uint64, words),
		nextLibFS: 1,
		nextGroup: 1 << 16, // private groups; user groups are small ints
		stats:     newStats(opts.Shards),
	}
	for i := range c.shards {
		c.shards[i].files = make(map[core.Ino]*fileState)
		c.shards[i].sessions = make(map[LibFSID]*libfsState)
		c.shards[i].scrubber = verifier.NewScrubber(dev)
		c.shards[i].admit.init(admitPerShard(opts.Shards))
		c.shards[i].admit.waitCtr = c.stats.shard(i).AdmitWaits
	}
	switch err := core.CheckFormat(c.mem, total); {
	case errors.Is(err, core.ErrUnformatted):
		if ferr := core.Format(dev); ferr != nil {
			return nil, ferr
		}
	case err != nil:
		return nil, fmt.Errorf("controller: mounting: %w", err)
	}
	// The checksum region occupies the device's last pages; the allocator
	// must never hand them out as file pages.
	c.pageAlloc = alloc.NewPageAlloc(core.FirstFilePage, core.ChecksumBase(total), opts.CPUs)
	c.scrubber = verifier.NewScrubber(dev)

	// The mount is the adoption walk with no session (adoptChildLocked):
	// the first claim on a page or an ino wins, and a file whose chain or
	// dirents cannot be read whole keeps what could be read, for its
	// verification to report. The root is a directory whatever its type
	// byte says. The ino allocator starts past the largest registered ino
	// below 2^63; a file whose dirent names one at or above that is
	// adopted all the same, and no allocator run reaches its ino.
	rootLoc := core.RootLoc()
	root, err := core.ReadDirentInode(c.mem, rootLoc.Page, rootLoc.Slot)
	if err != nil {
		return nil, fmt.Errorf("controller: reading the root inode: %w", err)
	}
	root.Type = core.TypeDir
	c.adoptChildLocked(nil, nil, &verifier.ChildRef{Ino: core.RootIno, Loc: rootLoc, Inode: root})
	c.pageAlloc.Reserve(core.RootInodePage)
	maxIno := core.RootIno
	for i := range c.shards {
		for ino := range c.shards[i].files {
			if ino > maxIno && ino < 1<<63 {
				maxIno = ino
			}
		}
	}
	// Granules a write grant held open when the device went down reseal
	// from their content before anyone may trust their records.
	c.expandGranulesLocked()
	c.inoAlloc = alloc.NewInoAlloc(uint64(maxIno)+1, opts.CPUs)
	if opts.LeaseSweep > 0 {
		// One sweeper per shard: each reaps its own dead sessions and
		// runs its own scrub slice on an independent budget.
		c.sweepStop = make(chan struct{})
		c.sweepWG.Add(len(c.shards))
		for i := range c.shards {
			go c.shardSweeper(i)
		}
	}
	return c, nil
}

// Close stops the controller's background work (the per-shard
// sweepers). Idempotent; a controller without sweepers needs no Close.
func (c *Controller) Close() {
	c.stopOnce.Do(func() {
		if c.sweepStop != nil {
			close(c.sweepStop)
			c.sweepWG.Wait()
		}
	})
}

// tracePage records one page-accounting transition as a telemetry
// instant event (Arg = page number, so a trace can be filtered down to
// one page's life). No-op — not even the message is formatted — unless
// tracing is armed (telemetry.EnableTracing).
func (c *Controller) tracePage(p nvm.PageID, format string, args ...any) {
	if !telemetry.TracingOn() {
		return
	}
	telemetry.Emit(0, "page", "controller", int64(p), fmt.Sprintf(format, args...))
}

// pageTraceOf collects the recorded transitions of page p from the
// trace ring (the VerifyAll failure dump reads it).
func pageTraceOf(p nvm.PageID) []string {
	var out []string
	for _, rec := range telemetry.TraceSnapshot() {
		if rec.Name == "page" && rec.Layer == "controller" && rec.Arg == int64(p) {
			out = append(out, rec.Msg)
		}
	}
	return out
}

// trap charges one kernel crossing when cost modeling is on.
func (c *Controller) trap() {
	if c.cost != nil {
		c.cost.Trap()
	}
}

// Device returns the underlying device (trusted callers/tests).
func (c *Controller) Device() *nvm.Device { return c.dev }

// FreePages reports the allocator's free page count.
func (c *Controller) FreePagesCount() int { return c.pageAlloc.Free() }

// Register creates a new LibFS session. group 0 requests a private
// trust domain; a non-zero group joins that trust group. node is the
// NUMA node the application's threads run on.
func (c *Controller) Register(uid, gid uint32, node int, group GroupID) *Session {
	// Build the address space before taking the locks: a huge device's
	// permission array is the expensive part and needs no shard state.
	as := mmu.NewAddressSpace(c.dev, node)
	c.lockAll()
	defer c.unlockAll()
	id := c.nextLibFS
	c.nextLibFS++
	if group == 0 {
		group = c.nextGroup
		c.nextGroup++
	}
	ls := &libfsState{
		id: id, uid: uid, gid: gid, group: group,
		as: as, c: c,
		allocPages: make(map[nvm.PageID]bool),
		parked:     make(map[nvm.PageID]core.Ino),
		mapped:     make(map[core.Ino]*mapping),
		revoked:    make(map[core.Ino]bool),
		gone:       make(chan struct{}),
	}
	// Every LibFS can read the superblock (§4.1) and the checksum table
	// (read-only: records are maintained by the controller and the
	// scrubber; a LibFS only consults them for optional read-path
	// verification, so no tenant can stomp another tenant's CRCs).
	ls.as.Map(0, 1, mmu.PermRead)
	tb := core.ChecksumBase(c.dev.NumPages())
	ls.as.Map(tb, int(c.dev.NumPages()-tb), mmu.PermRead)
	c.registerSessionLocked(ls)
	return &Session{c: c, ls: ls}
}

// Session is a LibFS's handle to the controller — the "system call"
// surface. All methods charge the kernel-crossing cost.
type Session struct {
	c  *Controller
	ls *libfsState
}

// ID returns the LibFS id.
func (s *Session) ID() LibFSID { return s.ls.id }

// Group returns the session's trust group.
func (s *Session) Group() GroupID { return s.ls.group }

// AddressSpace returns the MMU view the LibFS must use for all NVM
// access.
func (s *Session) AddressSpace() *mmu.AddressSpace { return s.ls.as }

// Cred returns the session's credentials.
func (s *Session) Cred() (uid, gid uint32) { return s.ls.uid, s.ls.gid }

// SetFixHandler registers the LibFS's corruption-fix program (§4.3).
func (s *Session) SetFixHandler(fn func(ino core.Ino) error) {
	s.c.lockAll()
	defer s.c.unlockAll()
	s.ls.fix = fn
}

// aliveLocked rejects syscalls from a session whose process the
// controller has declared dead. Callers hold the session's shard lock
// (dead is written only under all shard locks).
func (s *Session) aliveLocked() error {
	if s.ls.dead {
		return ErrSessionDead
	}
	return nil
}

// Close releases every mapping and resource of the session. Writer
// mappings go through the usual unmap-verify path first, fix-handler
// grace included; then the session is torn down as a reap ends
// (teardownLocked).
func (s *Session) Close() error {
	// Collect mapped inos first (UnmapFiles takes the locks itself).
	s.c.lockAll()
	if err := s.aliveLocked(); err != nil {
		s.c.unlockAll()
		return err
	}
	inos := make([]core.Ino, 0, len(s.ls.mapped))
	for ino := range s.ls.mapped {
		inos = append(inos, ino)
	}
	s.c.unlockAll()
	var firstErr error
	errs := make([]error, MaxBatch)
	for len(inos) > 0 {
		n := min(len(inos), MaxBatch)
		firstErr = cmp.Or(firstErr, s.UnmapFiles(inos[:n], errs))
		for _, err := range errs[:n] {
			// Not mapped: another group's write grant revoked a read
			// mapping after the collection. It is released already.
			if !errors.Is(err, ErrBadRequest) {
				firstErr = cmp.Or(firstErr, err)
			}
		}
		inos = inos[n:]
	}
	s.c.lockAll()
	defer s.c.unlockAll()
	s.c.teardownLocked(s.ls)
	return firstErr
}

// A session's per-page reference counts live in the software bits of
// its page-table words (mmu.Ref/Unref; ids beyond the device are
// clipped there) — one word per page, or one per 32-page granule of a
// run taken and released whole, which is what makes a grant cost words
// and not pages. A page holds write permission exactly while the
// session counts in writeRefsAt for it, and a grant or release settles
// writeRefs, granWrite, cleanOpen and facts under one tabMu hold —
// harvested dirty bits included, so a sealer that reads writeRefsAt zero
// sees cleanOpen cleared, and a grant that reads it zero sees facts
// cleared.

// refRunsLocked maps every page of runs with at least perm, taking one
// reference on each.
func (ls *libfsState) refRunsLocked(runs []pageRun, perm mmu.Perm) {
	c := ls.c
	var raised func(nvm.PageID, int)
	if perm == mmu.PermWrite {
		raised = c.raisedLocked
	}
	c.tabMu.Lock()
	for _, r := range runs {
		ls.as.Ref(r.start, r.n, perm, raised)
	}
	c.tabMu.Unlock()
}

// unrefTabLocked (tabMu held) drops one reference from every page of
// runs, unmapping those whose last it was.
func (ls *libfsState) unrefTabLocked(runs []pageRun) {
	settle := ls.c.unmappedLocked
	for _, r := range runs {
		ls.as.Unref(r.start, r.n, settle)
	}
}

// writeRefsAt (tabMu held) counts the sessions holding write permission
// on page p: those counted for the page, and those counted for its
// granule whole.
func (c *Controller) writeRefsAt(p nvm.PageID) int32 {
	return c.writeRefs[p] + c.granWrite[p>>nvm.GranuleShift]
}

// raisedLocked counts a session's new write permission on the n pages
// from start (tabMu held). The MMU reports a run inside one granule, so
// n == GranulePages is a whole aligned granule: one count.
func (c *Controller) raisedLocked(start nvm.PageID, n int) {
	if n == nvm.GranulePages {
		g := start >> nvm.GranuleShift
		if c.granWrite[g]++; c.granWrite[g] == 1 {
			c.stats.GranWriteRefs.Add(1)
		}
		return
	}
	refs := c.writeRefs[start:][:n]
	for i := range refs {
		refs[i]++
	}
}

// unmappedLocked settles the global tables for the n pages from start a
// session just lost (tabMu held): a write mapping no longer counts, and
// a page that was stored to (its bit in stored, bit i for start+i) is no
// longer cleanOpen, nor are its facts current. A whole granule takes its
// count from granWrite while that has one. A page whose own count is
// zero inside a granule counted whole splits the granule first, the rule
// the MMU has for its words: one whole count moves down to the 32 pages.
func (c *Controller) unmappedLocked(start nvm.PageID, n int, was mmu.Perm, stored uint32) {
	if was != mmu.PermWrite {
		return
	}
	g := start >> nvm.GranuleShift
	if n == nvm.GranulePages && c.granWrite[g] > 0 {
		c.dropGranWriteLocked(g)
	} else {
		refs := c.writeRefs[start:][:n]
		for i := range refs {
			if refs[i] == 0 && c.granWrite[g] > 0 {
				c.dropGranWriteLocked(g)
				split := c.writeRefs[granuleStart(g):][:nvm.GranulePages]
				for j := range split {
					split[j]++
				}
			}
			if refs[i] > 0 {
				refs[i]--
			}
		}
	}
	for ; stored != 0; stored &= stored - 1 {
		c.storedLocked(start + nvm.PageID(bits.TrailingZeros32(stored)))
	}
}

// dropGranWriteLocked takes one whole count off granule g (tabMu held).
func (c *Controller) dropGranWriteLocked(g nvm.PageID) {
	if c.granWrite[g]--; c.granWrite[g] == 0 {
		c.stats.GranWriteRefs.Add(-1)
	}
}

// releaseLocked drops mapping m, its page references and — after their
// dirty bits are in — its hold on the granules its grant opened whole,
// all under one tabMu hold: the one place holders shrink, so it wakes.
func (ls *libfsState) releaseLocked(m *mapping) {
	ls.c.tabMu.Lock()
	ls.unrefTabLocked(m.runs)
	ls.c.dropGranulesLocked(m.gran)
	ls.c.tabMu.Unlock()
	delete(ls.mapped, m.fs.ino)
	i := slices.Index(m.fs.holders, m)
	m.fs.holders = slices.Delete(m.fs.holders, i, i+1)
	m.fs.wakeLocked()
}

// dropFromHoldersLocked takes page p out of every mapping of fs but
// skip's, before the allocator can hand it to anybody else.
func (c *Controller) dropFromHoldersLocked(fs *fileState, p nvm.PageID, skip *libfsState) {
	for _, m := range fs.holders {
		if m.ls != skip && runsFind(m.runs, p) >= 0 {
			m.runs = runsRemove(m.runs, p)
			m.ls.unrefPageLocked(p)
		}
	}
}

// unrefPageLocked drops one reference from page p.
func (ls *libfsState) unrefPageLocked(p nvm.PageID) {
	ls.c.tabMu.Lock()
	ls.unrefTabLocked([]pageRun{{start: p, n: 1}})
	ls.c.tabMu.Unlock()
}

// revokeSpaceLocked tears down the session's whole address space. No
// dirty bit is harvested — a torn-down session's stores may not even be
// persisted — so every page it could store to counts as stored to.
func (c *Controller) revokeSpaceLocked(ls *libfsState) {
	ls.as.Revoke(func(start nvm.PageID, n int, was mmu.Perm, _ uint32) {
		c.tabMu.Lock()
		c.unmappedLocked(start, n, was, ^uint32(0)>>(32-n)) // all n of them
		c.tabMu.Unlock()
	})
}
