// Package nvm simulates a byte-addressable non-volatile memory device.
//
// The simulated device reproduces the four hardware properties the Trio
// paper assumes of NVM (§2.1):
//
//  1. Software accesses it with unprivileged loads and stores — here,
//     ordinary reads and writes of a shared byte arena.
//  2. A privileged entity can restrict which regions a client may touch —
//     enforced by package mmu, which wraps a Device in per-process
//     address spaces.
//  3. Access latency is low — modeled by an optional CostModel that
//     injects calibrated delays (spin for sub-20µs costs, sleep above).
//  4. It is byte addressable — all accesses are (page, offset, length).
//
// The device is divided into fixed 4 KiB pages, striped contiguously
// across a configurable number of NUMA nodes. The cost model reproduces
// the Intel Optane behaviours ArckFS's datapath is designed around
// (paper §4.5): per-node bandwidth, performance collapse under excessive
// concurrent access, and a penalty for remote-node access.
//
// Persistence follows the usual persistent-memory model: stores land in
// a (simulated) volatile cache and only become durable after an explicit
// Persist of the touched cachelines followed by a Fence. Crash
// simulation (see Tracker) discards writes that were not persisted,
// which is how the crash-consistency tests exercise recovery.
package nvm

import (
	"fmt"
	"math"
	"sync/atomic"

	"trio/internal/telemetry"
)

// PageSize is the size of one NVM page in bytes.
const PageSize = 4096

// CacheLineSize is the persistence granularity.
const CacheLineSize = 64

// A granule is the second page size: an aligned run of GranulePages
// pages. The MMU maps a granule a run covers whole with one page-table
// word, and the checksum region opens one with one bit; both use these
// constants, so the two levels always cut a run at the same pages.
const (
	GranuleShift = 5
	GranulePages = 1 << GranuleShift
)

// PageID names one page of the device. Page 0 is reserved by every file
// system built on the device for its superblock; PageID 0 therefore
// doubles as the "no page" sentinel in on-NVM index structures.
type PageID uint64

// NilPage is the sentinel meaning "no page".
const NilPage PageID = 0

// Config describes the simulated device geometry and behaviour.
type Config struct {
	// Nodes is the number of NUMA nodes the device is striped over.
	Nodes int
	// PagesPerNode is the per-node capacity in pages.
	PagesPerNode int
	// Cost enables cost injection when non-nil.
	Cost *CostModel
	// TrackPersistence enables the persistence tracker needed by the
	// crash-simulation tests. It slows every store down and is off by
	// default.
	TrackPersistence bool
}

// DefaultConfig returns a small single-node device with no cost model,
// suitable for unit tests.
func DefaultConfig() Config {
	return Config{Nodes: 1, PagesPerNode: 16384}
}

// Device is the simulated NVM DIMM population of one machine.
//
// All file systems in this repository live inside a Device. Untrusted
// code never holds a *Device; it goes through an mmu.AddressSpace which
// checks permissions on every access. Trusted code (the kernel
// controller, the integrity verifier, the in-kernel baseline file
// systems) uses the raw accessors directly.
type Device struct {
	arena        []byte
	arenaMu      arenaLocks // race-build-only striped page locks
	nodes        int
	pagesPerNode int
	cost         *CostModel
	inflight     []paddedCounter // per-node concurrent accessor count
	tracker      *Tracker
	sealed       atomic.Bool // set while a crash is being simulated

	// plan is the installed fault-injection plan, nil when none.
	plan atomic.Pointer[FaultPlan]
}

// SetFaultPlan installs (or, with nil, removes) a fault-injection plan.
// The plan hooks every ReadAt/WriteAt/Persist/Fence; see FaultPlan.
func (d *Device) SetFaultPlan(fp *FaultPlan) {
	if fp != nil {
		fp.dev.Store(d) // back-pointer for FlipBits' arena access
	}
	d.plan.Store(fp)
}

// FaultPlan returns the installed plan, or nil.
func (d *Device) FaultPlan() *FaultPlan { return d.plan.Load() }

// paddedCounter avoids false sharing between per-node counters.
type paddedCounter struct {
	n atomic.Int64
	_ [56]byte
}

// NewDevice allocates a simulated device.
func NewDevice(cfg Config) (*Device, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("nvm: config needs at least one node, got %d", cfg.Nodes)
	}
	if cfg.PagesPerNode <= 0 {
		return nil, fmt.Errorf("nvm: config needs at least one page per node, got %d", cfg.PagesPerNode)
	}
	d := &Device{
		arena:        make([]byte, cfg.Nodes*cfg.PagesPerNode*PageSize),
		nodes:        cfg.Nodes,
		pagesPerNode: cfg.PagesPerNode,
		cost:         cfg.Cost,
		inflight:     make([]paddedCounter, cfg.Nodes),
	}
	if cfg.TrackPersistence {
		d.tracker = newTracker(d)
	}
	if cfg.Cost != nil {
		// Pre-fault the arena: real NVM is physical memory, so host
		// page faults on first touch must not masquerade as modeled
		// device cost during benchmarks.
		for i := 0; i < len(d.arena); i += 4096 {
			d.arena[i] = 0
		}
	}
	return d, nil
}

// MustNewDevice is NewDevice for tests and examples with known-good configs.
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// NumPages reports the total page count of the device.
func (d *Device) NumPages() PageID { return PageID(d.nodes * d.pagesPerNode) }

// Nodes reports the NUMA node count.
func (d *Device) Nodes() int { return d.nodes }

// NodeOf reports which NUMA node holds page p.
func (d *Device) NodeOf(p PageID) int { return int(p) / d.pagesPerNode }

// PagesPerNode reports the per-node capacity in pages.
func (d *Device) PagesPerNode() int { return d.pagesPerNode }

// Cost returns the device cost model, or nil when cost injection is off.
func (d *Device) Cost() *CostModel { return d.cost }

// Tracker returns the persistence tracker, or nil when tracking is off.
func (d *Device) Tracker() *Tracker { return d.tracker }

// checkRange is the bounds check of every access: n bytes starting
// inside page p at off, running on for at most limit bytes from the
// page's start (PageSize for the one-page forms; a range access may run
// into the physically contiguous pages after p), and on the device. It
// returns the last page the access touches.
func (d *Device) checkRange(p PageID, off, n, limit int) (last PageID, err error) {
	last = LastPage(p, off, n)
	starts := off >= 0 && n >= 0 && (off < PageSize || off == PageSize && n == 0)
	if !starts || off+n > limit || last >= d.NumPages() || last < p {
		return p, fmt.Errorf("nvm: access of %d bytes at page %d offset %d outside its bounds (limit %d, device has %d pages)",
			n, p, off, limit, d.NumPages())
	}
	return last, nil
}

// LastPage reports the last page an access of n bytes at (p, off) runs
// into: p itself for an empty access.
func LastPage(p PageID, off, n int) PageID {
	if n <= 0 || off < 0 {
		return p
	}
	return p + PageID(uint64(off+n-1)/PageSize)
}

// Page returns the raw backing bytes of page p. Trusted callers only.
func (d *Device) Page(p PageID) []byte {
	base := int(p) * PageSize
	return d.arena[base : base+PageSize : base+PageSize]
}

// ReadAt copies from page p at off into buf, charging the cost model.
// fromNode is the NUMA node of the accessing CPU (used for the remote
// access penalty); pass 0 when cost modeling is off. It is ReadRange
// held to page p.
func (d *Device) ReadAt(fromNode int, p PageID, off int, buf []byte) error {
	return d.read(fromNode, p, off, buf, PageSize)
}

// WriteAt copies data into page p at off, charging the cost model. It is
// WriteRange held to page p.
func (d *Device) WriteAt(fromNode int, p PageID, off int, data []byte) error {
	return d.write(fromNode, p, off, data, PageSize)
}

// Persist marks the cachelines covering [off, off+n) of page p durable.
// It models CLWB of each touched line; a following Fence orders it. It
// is PersistRange held to page p.
func (d *Device) Persist(p PageID, off, n int) error {
	return d.persist(p, off, n, PageSize)
}

// ReadRange copies n bytes starting at (p, off) into buf, spanning
// physically contiguous pages. The cost model is charged once per
// touched NUMA node — the run streams as a single access instead of
// paying per-page latency — while fault injection still consults every
// page, so an armed media error on any page of the run surfaces exactly
// as it would block by block.
func (d *Device) ReadRange(fromNode int, p PageID, off int, buf []byte) error {
	return d.read(fromNode, p, off, buf, math.MaxInt)
}

// WriteRange copies data into the contiguous pages starting at (p, off).
// Cost is charged once per touched NUMA node; the fault plan and the
// persistence tracker are still consulted page by page, in address
// order, so a fault mid-run leaves exactly the prefix written — the same
// crash surface as a per-block path.
func (d *Device) WriteRange(fromNode int, p PageID, off int, data []byte) error {
	return d.write(fromNode, p, off, data, math.MaxInt)
}

// PersistRange marks the cachelines covering the n-byte span at (p, off)
// durable across contiguous pages. The fault plan and tracker see each
// page individually — every per-page persist point still exists for the
// crash-point scheduler — but the cost model charges a single CLWB
// batch: adjacent dirty-line flushes merge into one charge.
//
// With a fault plan installed a page's persist can meet a busy window
// (ErrDeviceBusy). The device retries it in place, so every caller —
// LibFS, delegation worker or the trusted controller — gets the same
// bounded backoff; ErrDeviceBusy surfaces only once the budget is spent
// (see FaultPlan.DelayPersists). An armed crash point fails the persist
// with ErrCrashPoint. Either way the failing page and the pages after it
// were not persisted.
func (d *Device) PersistRange(p PageID, off, n int) error {
	return d.persist(p, off, n, math.MaxInt)
}

// read is the one body of ReadAt and ReadRange; limit is checkRange's.
func (d *Device) read(fromNode int, p PageID, off int, buf []byte, limit int) error {
	last, err := d.checkRange(p, off, len(buf), limit)
	if err != nil || len(buf) == 0 {
		return err
	}
	if fp := d.plan.Load(); fp != nil {
		for q := p; q <= last; q++ {
			if err := fp.readFault(q); err != nil {
				return err
			}
		}
		// A coalesced run is one access: the slow-I/O window is consulted
		// once, keyed by the run's first page.
		fp.sleepOpDelay(p)
	}
	d.chargeSpan(fromNode, p, off, len(buf), false)
	if telemetry.On() {
		mReads.IncOn(fromNode)
		mReadBytes.AddOn(fromNode, int64(len(buf)))
	}
	for q, pgOff, pos := p, off, 0; q <= last; q, pgOff = q+1, 0 {
		chunk := min(PageSize-pgOff, len(buf)-pos)
		base := int(q)*PageSize + pgOff
		d.lockPage(q)
		copy(buf[pos:pos+chunk], d.arena[base:base+chunk])
		d.unlockPage(q)
		pos += chunk
	}
	return nil
}

// write is the one body of WriteAt and WriteRange.
func (d *Device) write(fromNode int, p PageID, off int, data []byte, limit int) error {
	last, err := d.checkRange(p, off, len(data), limit)
	if err != nil || len(data) == 0 {
		return err
	}
	if d.sealed.Load() {
		return fmt.Errorf("nvm: device sealed (crash in progress)")
	}
	d.chargeSpan(fromNode, p, off, len(data), true)
	if telemetry.On() {
		mWrites.IncOn(fromNode)
		mWriteBytes.AddOn(fromNode, int64(len(data)))
	}
	fp := d.plan.Load()
	if fp != nil {
		fp.sleepOpDelay(p) // one slow-I/O consult per coalesced run
	}
	for q, pgOff, pos := p, off, 0; q <= last; q, pgOff = q+1, 0 {
		chunk := min(PageSize-pgOff, len(data)-pos)
		if fp != nil {
			if err := fp.writeFault(q); err != nil {
				return err
			}
		}
		base := int(q)*PageSize + pgOff
		d.lockPage(q)
		if d.tracker != nil {
			d.tracker.recordStore(q, pgOff, chunk)
		}
		copy(d.arena[base:base+chunk], data[pos:pos+chunk])
		d.unlockPage(q)
		pos += chunk
	}
	return nil
}

// persist is the one body of Persist and PersistRange.
func (d *Device) persist(p PageID, off, n, limit int) error {
	last, err := d.checkRange(p, off, n, limit)
	if err != nil || n == 0 {
		return err
	}
	if telemetry.On() {
		mPersists.IncOn(d.NodeOf(p))
	}
	// The per-page work is the fault plan's and the tracker's.
	if fp := d.plan.Load(); fp != nil || d.tracker != nil {
		for q, pgOff, pos := p, off, 0; q <= last; q, pgOff = q+1, 0 {
			chunk := min(PageSize-pgOff, n-pos)
			if fp != nil {
				if err := fp.persistRetry(q); err != nil {
					return err
				}
			}
			if d.tracker != nil {
				d.tracker.persist(q, pgOff, chunk, fp)
			}
			pos += chunk
		}
	}
	if d.cost != nil {
		d.cost.delay(d.cost.PersistLatency)
	}
	return nil
}

// chargeSpan charges a range access: one cost-model charge per touched
// NUMA node (a run crossing a node boundary streams from both nodes).
func (d *Device) chargeSpan(fromNode int, p PageID, off, n int, write bool) {
	if d.cost == nil || n == 0 {
		return
	}
	nodeBytes := uint64(d.pagesPerNode) * PageSize
	start := uint64(p)*PageSize + uint64(off)
	end := start + uint64(n)
	for start < end {
		segEnd := (start/nodeBytes + 1) * nodeBytes
		if segEnd > end {
			segEnd = end
		}
		d.charge(fromNode, PageID(start/PageSize), int(segEnd-start), write)
		start = segEnd
	}
}

// Fence models SFENCE: it orders previously issued Persist calls. In the
// simulator persists apply immediately, so Fence only charges cost (and
// counts as a persist point for an installed fault plan's crash-point
// scheduler).
func (d *Device) Fence() {
	if telemetry.On() {
		mFences.Inc()
	}
	if fp := d.plan.Load(); fp != nil {
		fp.fencePoint()
	}
	if d.cost != nil {
		d.cost.delay(d.cost.FenceLatency)
	}
}

// charge injects the modeled hardware cost of an access.
func (d *Device) charge(fromNode int, p PageID, n int, write bool) {
	if d.cost == nil || n == 0 {
		return
	}
	node := d.NodeOf(p)
	mCharges.IncOn(node)
	c := &d.inflight[node]
	cur := c.n.Add(1)
	d.cost.chargeAccess(fromNode, node, cur, n, write)
	c.n.Add(-1)
}
