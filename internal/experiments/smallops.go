// Trust-boundary latency experiment: what one explicit batch per
// crossing buys. One run drives the small-op workload
// (internal/workload/smallops.go) — boundary-dominated append,
// create/unlink, and bare map/unmap churn on tiny files — twice per
// mode on one controller configuration: once with every map/unmap its
// own call (one trap each, one verifier IPC per writer unmap under the
// cost model) and once with each thread's window crossing as one
// MapFiles/UnmapFiles (one trap and at most one IPC per window). The
// headline number is the batched/per-call throughput ratio per mode.
//
// Like the tenancy sweep this experiment defaults to cost injection
// ON: the win is amortising *modeled boundary time* (trap + IPC) across
// a window's entries — with the cost model off a boundary crossing is
// just a Go function call and the ratio is meaningless, so the gate is
// skipped.
//
// Measurement shape: the single-CPU reference runner drifts ±20-30%
// across seconds, easily swamping a 2x effect when the two arms sit in
// different drift regimes. Each mode therefore runs INTERLEAVED
// per-call/batched pairs — adjacent in time, so host drift cancels in
// the ratio — and the gate reads the best pair.
package experiments

import (
	"fmt"
	"io"
	"time"

	"trio/internal/controller"
	"trio/internal/workload"
)

// SmallOpsPair is one interleaved per-call/batched measurement pair.
type SmallOpsPair struct {
	SyncCyclesPerSec  float64 `json:"sync_cycles_per_sec"`
	BatchCyclesPerSec float64 `json:"batch_cycles_per_sec"`
	SpeedupX          float64 `json:"speedup_x"`
}

func (p SmallOpsPair) speedup() float64 { return p.SpeedupX }

func (p SmallOpsPair) String() string {
	return fmt.Sprintf("per-call=%8.0f cyc/s  batched=%8.0f cyc/s  speedup=%.2fx",
		p.SyncCyclesPerSec, p.BatchCyclesPerSec, p.SpeedupX)
}

// SmallOpsMode is one workload mode's sweep outcome. The embedded pair
// repeats the best one, the one the gate reads.
type SmallOpsMode struct {
	Mode  string         `json:"mode"`
	Pairs []SmallOpsPair `json:"pairs"`
	SmallOpsPair
}

// SmallOpsReport is the "smallops" section of BENCH_trio.json.
type SmallOpsReport struct {
	Threads      int            `json:"threads"`
	OpsPerThread int            `json:"ops_per_thread"`
	Quick        bool           `json:"quick"`
	Cost         bool           `json:"cost_model"`
	Modes        []SmallOpsMode `json:"modes"`
}

// smallOpsSpec is the canonical workload shape (the workload's defaults
// for everything else — its 16 threads over 4 shards keep every shard
// contended): full mode is the acceptance-criteria run, quick the
// check.sh smoke. 1200 ops/thread makes a trial long enough to average
// scheduler noise without growing the heap into a different GC regime.
func smallOpsSpec(p Params, mode string, batched bool) workload.SmallOpsSpec {
	s := workload.SmallOpsSpec{OpsPerThread: 1200, Mode: mode, Batched: batched, Seed: 11}
	if p.Quick {
		s.OpsPerThread = 300
	}
	s.Fill()
	return s
}

// smallOpsPairs is how many interleaved pairs each mode runs.
func smallOpsPairs(p Params) int {
	if p.Quick {
		return 2
	}
	return 3
}

// smallOpsModes is the mode sweep.
func smallOpsModes(p Params) []string {
	if p.Quick {
		// The smoke keeps the two gated modes; bare map/unmap churn is
		// diagnostic only and the slowest to run.
		return []string{"append", "create"}
	}
	return []string{"append", "create", "mapunmap"}
}

// RunSmallOpsSweep runs the interleaved per-call/batched pairs for every
// mode and returns the report as the "smallops" section, gated.
func RunSmallOpsSweep(w io.Writer, p Params) (*Outcome, error) {
	probe := smallOpsSpec(p, "append", false)
	header(w, "smallops", fmt.Sprintf(
		"trust-boundary latency: %d threads x %d small ops, per-call vs batched",
		probe.Threads, probe.OpsPerThread))
	costBanner(w, p, "functional smoke — speedup gate not meaningful", "speedup = one trap/IPC per window instead of per file")

	rep := &SmallOpsReport{
		Threads:      probe.Threads,
		OpsPerThread: probe.OpsPerThread,
		Quick:        p.Quick,
		Cost:         !p.NoCost,
	}
	for _, mode := range smallOpsModes(p) {
		m := SmallOpsMode{Mode: mode}
		var err error
		m.Pairs, m.SmallOpsPair, err = bestPair(w, mode, smallOpsPairs(p),
			func(batched bool) (workload.SmallOpsResult, error) {
				spec := smallOpsSpec(p, mode, batched)
				c, err := p.ctlTestbed(spec.DevicePages(), controller.Options{Shards: 4, LeaseTime: 200 * time.Millisecond})
				if err != nil {
					return workload.SmallOpsResult{}, err
				}
				defer c.Close()
				return workload.RunSmallOps(c, spec)
			},
			func(perCall, batch workload.SmallOpsResult) SmallOpsPair {
				a, b := perCall.CyclesPerSec(), batch.CyclesPerSec()
				return SmallOpsPair{SyncCyclesPerSec: a, BatchCyclesPerSec: b, SpeedupX: ratio(b, a)}
			})
		if err != nil {
			return nil, fmt.Errorf("smallops %w", err)
		}
		rep.Modes = append(rep.Modes, m)
	}
	return owned("smallops", rep), nil
}

// gate evaluates the trust-boundary acceptance gates and returns one
// message per violation. With the cost model off the speedup is
// meaningless (no modeled boundary time to batch) and every check is
// skipped.
//
// Gates, against the numbers a clean tree produces on the reference
// single-CPU runner (see EXPERIMENTS.md):
//
//   - full: best batched/per-call speedup ≥ 2.0 on create OR append
//     (create is the mode that clears it), and no mode's best speedup
//     below 1.0x — no mode may remain on which the batch is the slower
//     route (ROADMAP 3(b));
//   - quick (300 ops/thread, the check.sh smoke): ≥ 1.3 on create or
//     append and a 0.5x floor — short trials only catch collapses.
func (rep *SmallOpsReport) gate() []string {
	if !rep.Cost || len(rep.Modes) == 0 {
		return nil
	}
	minSpeedup, floor := 2.0, 1.0
	if rep.Quick {
		minSpeedup, floor = 1.3, 0.5
	}
	var fails []string
	bestGated := 0.0
	for _, m := range rep.Modes {
		if m.Mode == "append" || m.Mode == "create" {
			if m.SpeedupX > bestGated {
				bestGated = m.SpeedupX
			}
		}
		if m.SpeedupX < floor {
			fails = append(fails, fmt.Sprintf(
				"%s: batched crossings collapsed to %.2fx of per-call (floor %.1fx)",
				m.Mode, m.SpeedupX, floor))
		}
	}
	if bestGated < minSpeedup {
		fails = append(fails, fmt.Sprintf(
			"best batched/per-call speedup %.2fx on append/create below the %.1fx gate",
			bestGated, minSpeedup))
	}
	return fails
}
