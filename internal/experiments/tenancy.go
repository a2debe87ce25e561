// Massive-tenancy scaling experiment (ISSUE 6): the proof that the
// sharded controller actually buys throughput. One run drives the
// FxMark-style tenancy workload (internal/workload/tenancy.go) —
// thousands of concurrent sessions doing open/map/write/unmap with
// zipfian hot-file contention and random session death — against the
// same device for each shard count, and reports controller ops/s and
// p99 lease-recall latency per point. The headline number is the
// scaling factor: ops/s at the widest shard count over ops/s at one
// shard (the pre-ISSUE-6 global-lock controller).
//
// Unlike the datapath suite this experiment defaults to cost injection
// ON: the scaling story is about overlapping modeled device time
// (seals, checkpoint streams) across shard locks — with the cost model
// off everything is CPU-bound on the host and shard count is
// irrelevant, so the gate is skipped.
package experiments

import (
	"fmt"
	"io"
	"time"

	"trio/internal/controller"
	"trio/internal/workload"
)

// TenancyPoint is one shard-count measurement of the tenancy sweep:
// the workload's result and the figures derived from it.
type TenancyPoint struct {
	workload.TenancyResult
	OpsPerSec   float64 `json:"ops_per_sec"`
	RecallP99Ms float64 `json:"recall_p99_ms"`
	ElapsedSec  float64 `json:"elapsed_sec"`
}

// TenancyReport is the "tenancy" section of BENCH_trio.json.
type TenancyReport struct {
	Sessions      int            `json:"sessions"`
	OpsPerSession int            `json:"ops_per_session"`
	Quick         bool           `json:"quick"`
	Cost          bool           `json:"cost_model"`
	Points        []TenancyPoint `json:"points"`
	// ScalingX is ops/s at the widest shard count over ops/s at one
	// shard — the number the ISSUE 6 acceptance gate reads.
	ScalingX float64 `json:"scaling_x"`
}

// tenancySpec is the canonical workload shape (the workload's defaults
// for everything else): full mode is the acceptance-criteria run (2k
// sessions), quick is the check.sh smoke (1k sessions, shorter).
func tenancySpec(p Params) workload.TenancySpec {
	s := workload.TenancySpec{Sessions: 2000, OpsPerSession: 24, Seed: 7}
	if p.Quick {
		// Fewer sessions and ops, but the SAME file size: the seal of a
		// 32-page file is a bandwidth-dominated access long enough to
		// sleep in the cost model, and that sleep is what shard locks
		// overlap. Shrinking the file below ~29 pages drops the seal
		// under the model's spin threshold and the scaling effect — the
		// thing the smoke guards — vanishes entirely.
		s.Sessions = 1000
		s.OpsPerSession = 8
	}
	return s
}

// tenancyShards is the shard-count sweep.
func tenancyShards(p Params) []int {
	if p.Quick {
		return []int{1, 8}
	}
	return []int{1, 2, 4, 8}
}

// tenancyOptions are the controller knobs for the tenancy runs: leases
// short enough that hot-file dwell (2 ms) always provokes a recall,
// and a sweeper period in the same regime so per-shard background work
// runs continuously during the measurement.
func tenancyOptions(shards int) controller.Options {
	return controller.Options{
		Shards:        shards,
		LeaseTime:     time.Millisecond,
		RecallTimeout: 4 * time.Millisecond,
		LeaseSweep:    2 * time.Millisecond,
	}
}

// RunTenancySweep runs the tenancy workload once per shard count and
// returns the report as the "tenancy" section, gated.
func RunTenancySweep(w io.Writer, p Params) (*Outcome, error) {
	spec := tenancySpec(p)
	header(w, "tenancy", fmt.Sprintf("massive tenancy: %d sessions, shard sweep (ISSUE 6)", spec.Sessions))
	costBanner(w, p, "functional smoke — scaling gate not meaningful", "scaling = overlapped modeled device time")

	rep := &TenancyReport{
		Sessions:      spec.Sessions,
		OpsPerSession: spec.OpsPerSession,
		Quick:         p.Quick,
		Cost:          !p.NoCost,
	}
	for _, shards := range tenancyShards(p) {
		c, err := p.ctlTestbed(spec.DevicePages(), tenancyOptions(shards))
		if err != nil {
			return nil, err
		}
		res, err := workload.RunTenancy(c, spec)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("tenancy shards=%d: %w", shards, err)
		}
		pt := TenancyPoint{
			TenancyResult: res,
			OpsPerSec:     res.CtlOpsPerSec(),
			RecallP99Ms:   float64(res.RecallP99.Nanoseconds()) / 1e6,
			ElapsedSec:    res.Elapsed.Seconds(),
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(w, "shards=%d  ops/s=%.0f  p99-recall=%.1fms  recalls=%d  expiries=%d  deaths=%d  elapsed=%.1fs\n",
			pt.Shards, pt.OpsPerSec, pt.RecallP99Ms, pt.Recalls, pt.Expiries, pt.Deaths, pt.ElapsedSec)
	}

	base, widest := rep.Points[0], rep.Points[len(rep.Points)-1]
	if base.OpsPerSec > 0 {
		rep.ScalingX = widest.OpsPerSec / base.OpsPerSec
	}
	fmt.Fprintf(w, "\nscaling: %d shards / 1 shard = %.2fx\n", widest.Shards, rep.ScalingX)
	return owned("tenancy", rep), nil
}

// gate evaluates the massive-tenancy acceptance gates and returns one
// message per violation. With the cost model off the scaling gate is
// meaningless (the host CPU serializes everything) and every check is
// skipped.
//
// Gates, chosen with ~2x slack against the numbers a clean tree
// produces on the reference single-CPU runner (see EXPERIMENTS.md):
//
//   - full (2k sessions): widest/1-shard scaling ≥ 2.0 (the ISSUE 6
//     acceptance criterion), widest-point p99 recall ≤ 400 ms, and
//     widest-point throughput ≥ 2500 ops/s;
//   - quick (1k sessions, the check.sh smoke): scaling ≥ 1.3 and p99
//     recall ≤ 600 ms — shorter runs are noisier, so the smoke only
//     catches collapses, not drift.
func (rep *TenancyReport) gate() []string {
	if !rep.Cost || len(rep.Points) == 0 {
		return nil
	}
	minScale, maxP99Ms := 2.0, 400.0
	minOps := 2500.0
	if rep.Quick {
		minScale, maxP99Ms = 1.3, 600.0
		minOps = 0
	}
	widest := rep.Points[len(rep.Points)-1]
	var fails []string
	if rep.ScalingX < minScale {
		fails = append(fails, fmt.Sprintf(
			"scaling %.2fx (%d shards vs 1) below the %.1fx gate", rep.ScalingX, widest.Shards, minScale))
	}
	if widest.RecallP99Ms > maxP99Ms {
		fails = append(fails, fmt.Sprintf(
			"p99 lease-recall %.1fms at %d shards above the %.0fms gate", widest.RecallP99Ms, widest.Shards, maxP99Ms))
	}
	if widest.OpsPerSec < minOps {
		fails = append(fails, fmt.Sprintf(
			"throughput %.0f ops/s at %d shards below the %.0f ops/s gate", widest.OpsPerSec, widest.Shards, minOps))
	}
	return fails
}
