package nvm

import (
	"math"
	"time"

	"trio/internal/telemetry"
)

// CostModel injects the modeled hardware and kernel-crossing costs.
//
// The constants below follow published Optane characterization numbers
// (Izraelevitz et al., Yang et al.) scaled so that the simulation stays
// responsive: what matters for reproducing the paper's figures is the
// *ratios* between the costs, not their absolute values.
//
// Delays shorter than spinThreshold are burned in a spin loop (accurate,
// costs a core); longer delays sleep, which models hardware that makes
// progress without occupying a CPU — e.g. the NVM DIMM streaming a bulk
// transfer — and lets the 2-core host time-multiplex many simulated
// threads.
type CostModel struct {
	// ReadLatency / WriteLatency is the fixed per-access device latency.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// ReadBandwidth / WriteBandwidth is the per-node bandwidth in
	// bytes/second that the size-proportional part of an access is
	// charged against.
	ReadBandwidth  float64
	WriteBandwidth float64
	// Sweetspot is the number of concurrent accessors per node beyond
	// which Optane-style performance collapse sets in.
	Sweetspot int
	// CollapseExponent controls how sharply throughput degrades past the
	// sweetspot: the size-proportional cost is multiplied by
	// (inflight/Sweetspot)^CollapseExponent.
	CollapseExponent float64
	// RemoteReadPenalty / RemoteWritePenalty multiply the cost of
	// accesses from a CPU on a different NUMA node than the page.
	RemoteReadPenalty  float64
	RemoteWritePenalty float64
	// PersistLatency is the cost of one CLWB, FenceLatency of one SFENCE.
	PersistLatency time.Duration
	FenceLatency   time.Duration
	// TrapCost is the cost of one user/kernel crossing (syscall+return).
	// Charged by the simulated VFS for every kernel file system call and
	// by the controller for every LibFS->controller request.
	TrapCost time.Duration
	// VFSMetaCost is the VFS-side work of one metadata mutation beyond
	// the crossing itself: dentry allocation, icache insertion, security
	// hooks. The paper measures NOVA spending >=42% of create time in
	// the VFS (§6.2); this constant reproduces that share.
	VFSMetaCost time.Duration
	// IPCCost is the cost of one round trip to a trusted userspace
	// process (Strata's digestion entity).
	IPCCost time.Duration
}

// DefaultCostModel returns the model used by the benchmark harness.
// Ratios follow the paper's setting: NVM read latency ~300ns, write
// ~100ns (to the WPQ), per-node read bandwidth ~6x write bandwidth,
// collapse past ~12 concurrent accessors, remote writes ~3x as costly,
// syscall ~600ns, IPC ~2.5µs.
func DefaultCostModel() *CostModel {
	return &CostModel{
		ReadLatency:        300 * time.Nanosecond,
		WriteLatency:       100 * time.Nanosecond,
		ReadBandwidth:      6.0e9,
		WriteBandwidth:     2.0e9,
		Sweetspot:          12,
		CollapseExponent:   1.6,
		RemoteReadPenalty:  1.8,
		RemoteWritePenalty: 3.0,
		PersistLatency:     60 * time.Nanosecond,
		FenceLatency:       30 * time.Nanosecond,
		TrapCost:           600 * time.Nanosecond,
		VFSMetaCost:        1800 * time.Nanosecond,
		IPCCost:            2500 * time.Nanosecond,
	}
}

// spinThreshold separates spin-waits from sleeps. Sleeps below ~100µs
// are unreliable on a stock kernel, and spinning above it would burn
// the whole host; 20µs splits the difference while keeping short NVM
// accesses accurate.
const spinThreshold = 20 * time.Microsecond

// chargeAccess injects the cost of one n-byte access to a page on node
// `node` issued from a CPU on node `fromNode`, with `inflight` accessors
// currently touching that node.
func (c *CostModel) chargeAccess(fromNode, node int, inflight int64, n int, write bool) {
	var lat time.Duration
	var bw, remote float64
	if write {
		lat, bw, remote = c.WriteLatency, c.WriteBandwidth, c.RemoteWritePenalty
	} else {
		lat, bw, remote = c.ReadLatency, c.ReadBandwidth, c.RemoteReadPenalty
	}
	stream := time.Duration(float64(n) / bw * float64(time.Second))
	if c.Sweetspot > 0 && inflight > int64(c.Sweetspot) {
		f := math.Pow(float64(inflight)/float64(c.Sweetspot), c.CollapseExponent)
		stream = time.Duration(float64(stream) * f)
		lat = time.Duration(float64(lat) * f)
	}
	if fromNode != node && remote > 1 {
		stream = time.Duration(float64(stream) * remote)
		lat = time.Duration(float64(lat) * remote)
	}
	c.delay(lat + stream)
}

// Trap charges one user/kernel crossing.
func (c *CostModel) Trap() { c.TrapN(1) }

// TrapN charges one user/kernel crossing that carries n operations
// across the boundary (a batched resource call): the delay is paid
// once, and telemetry records one crossing and n operations so the
// amortization is observable — the crossing cost is per batch, not per
// entry.
func (c *CostModel) TrapN(n int) {
	if n <= 0 {
		return
	}
	if telemetry.On() {
		mTraps.Inc()
		mTrapOps.Add(int64(n))
	}
	c.delay(c.TrapCost)
}

// VFSMeta charges the VFS-side bookkeeping of one metadata mutation.
func (c *CostModel) VFSMeta() { c.delay(c.VFSMetaCost) }

// IPC charges one round trip to a trusted process.
func (c *CostModel) IPC() { c.IPCN(1) }

// IPCN charges one round trip to a trusted process on behalf of n
// batched requests (one delay; one round trip and n requests counted in
// telemetry) — e.g. UnmapFiles handing the verifier a whole batch of
// unmapped files in a single crossing.
func (c *CostModel) IPCN(n int) {
	if n <= 0 {
		return
	}
	if telemetry.On() {
		mIPCs.Inc()
		mIPCOps.Add(int64(n))
	}
	c.delay(c.IPCCost)
}

// delay burns or sleeps d of simulated hardware time.
func (c *CostModel) delay(d time.Duration) {
	if d <= 0 {
		return
	}
	if d < spinThreshold {
		spin(d)
		return
	}
	time.Sleep(d)
}

// spinsPerUs is calibrated once at init: iterations of the calibration
// loop per microsecond. Short delays burn iterations instead of calling
// time.Now twice per delay, which would dominate sub-microsecond costs.
var spinsPerUs = calibrateSpin()

//go:noinline
func spinLoop(n int64) int64 {
	acc := int64(0)
	for i := int64(0); i < n; i++ {
		acc += i ^ (acc << 1)
	}
	return acc
}

func calibrateSpin() int64 {
	const probe = 4_000_000
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		sink := spinLoop(probe)
		el := time.Since(start)
		_ = sink
		if el > 0 && el < best {
			best = el
		}
	}
	per := int64(float64(probe) * float64(time.Microsecond) / float64(best))
	if per < 100 {
		per = 100
	}
	return per
}

// spin busy-waits for d using the calibrated loop.
func spin(d time.Duration) {
	n := int64(d) * spinsPerUs / int64(time.Microsecond)
	if n < 1 {
		n = 1
	}
	spinLoop(n)
}
