// Network-resilience experiment (ISSUE 10): does the serving stack
// keep its exactly-once contract when the network misbehaves?
//
// One run mounts ArckFS behind an in-process trio-serve server and
// drives the netchaos storm: a fleet of reconnecting sessions appends
// unique records through fault-injected transports while a controller
// kills and partitions connections mid-flight (a third of the fleet
// additionally suffers byte-level faults — chunked transfers, latency
// spikes, frames truncated mid-write at the kill point). The oracle
// audit after the storm is the experiment's entire point:
//
//   - zero acked-op loss: every append the server confirmed is in the
//     file exactly once, even when the confirming reply raced a kill;
//   - zero double-apply: retransmitting with the original xid hits the
//     duplicate-request cache, never the file system twice;
//   - bounded tails: availability ≥ 99% and acked p99 under the
//     per-call deadline, because a session that suspects its transport
//     reconnects instead of hanging.
//
// Unlike the throughput experiments this one is cost-model agnostic:
// the contract must hold whether an append takes nanoseconds or
// modeled media time, so the gate never skips.
package experiments

import (
	"fmt"
	"io"

	"trio/internal/serve"
	"trio/internal/workload"
)

// NetChaosReport is the "netchaos" section of BENCH_trio.json: the
// storm's result and the figures derived from it.
type NetChaosReport struct {
	FS           string `json:"fs"`
	OpsPerClient int    `json:"ops_per_client"`
	Quick        bool   `json:"quick"`
	workload.NetChaosResult
	Availability float64 `json:"availability"`
	P50Us        float64 `json:"p50_us"`
	P99Us        float64 `json:"p99_us"`
	ElapsedMs    float64 `json:"elapsed_ms"`
}

// netChaosSpec is the storm's shape (the workload's defaults for
// everything else, among them the 500 ms per-append deadline the p99
// gate reads).
func netChaosSpec(p Params) workload.NetChaosSpec {
	s := workload.NetChaosSpec{Clients: 8, Files: 24, OpsPerClient: 400, Seed: 23}
	if p.Quick {
		s.Clients = 4
		s.OpsPerClient = 120
		s.ChaosEveryOps = 30
	}
	s.Fill()
	return s
}

// RunNetChaosSweep runs one storm and returns the report as the
// "netchaos" section, gated.
func RunNetChaosSweep(w io.Writer, p Params) (*Outcome, error) {
	spec := netChaosSpec(p)
	header(w, "netchaos", fmt.Sprintf(
		"network resilience: %d sessions, %d appends each, kills+partitions+byte faults (ISSUE 10)",
		spec.Clients, spec.OpsPerClient))

	srv, stop, err := arckServer(spec.DevicePages(), false, serve.Options{Workers: 4, DRCSize: 4096})
	if err != nil {
		return nil, err
	}
	defer stop()
	res, err := workload.RunNetChaos(srv, spec)
	if err != nil {
		return nil, fmt.Errorf("netchaos storm: %w", err)
	}
	fmt.Fprintln(w, res)

	rep := &NetChaosReport{
		FS:             "arckfs",
		OpsPerClient:   spec.OpsPerClient,
		Quick:          p.Quick,
		NetChaosResult: res,
		Availability:   res.Availability(),
		P50Us:          float64(res.P50.Microseconds()),
		P99Us:          float64(res.P99.Microseconds()),
		ElapsedMs:      float64(res.Elapsed.Milliseconds()),
	}
	fmt.Fprintf(w,
		"faults: kills=%d partitions=%d   sessions: reconnects=%d retransmits=%d deadlines=%d\n",
		rep.Kills, rep.Partitions, rep.Reconnects, rep.Retransmits, rep.Deadlines)
	fmt.Fprintf(w,
		"audit: acked=%d lost=%d double=%d maybe=%d(applied %d) unexpected=%d   availability=%.4f p99=%.0fµs\n",
		rep.Acked, rep.AckedLost, rep.DoubleApplied, rep.Maybe, rep.MaybeApplied,
		rep.Unexpected, rep.Availability, rep.P99Us)
	return owned("netchaos", rep), nil
}

// gate evaluates the network-resilience acceptance gate and returns
// one message per violation. The correctness checks never relax: acked
// loss, double-apply, and unexplained bytes are bugs at any scale.
// Availability relaxes slightly under -quick (fewer ops make each
// deadline-bounded op weigh more). An acked op can never take longer
// than its call, so the p99 bound is the per-append deadline.
func (rep *NetChaosReport) gate() []string {
	var fails []string
	if rep.Ops == 0 || rep.Acked == 0 {
		fails = append(fails, "storm did no work (zero acked ops)")
	}
	if rep.AckedLost != 0 {
		fails = append(fails, fmt.Sprintf("%d acked operations lost", rep.AckedLost))
	}
	if rep.DoubleApplied != 0 {
		fails = append(fails, fmt.Sprintf("%d records double-applied (DRC failed)", rep.DoubleApplied))
	}
	if rep.Unexpected != 0 {
		fails = append(fails, fmt.Sprintf("%d unexplained records on disk", rep.Unexpected))
	}
	if rep.Kills+rep.Partitions == 0 {
		fails = append(fails, "chaos controller injected no faults")
	}
	minAvail := 0.99
	if rep.Quick {
		minAvail = 0.95
	}
	if rep.Availability < minAvail {
		fails = append(fails, fmt.Sprintf(
			"availability %.4f below the %.2f gate", rep.Availability, minAvail))
	}
	maxP99 := float64(netChaosSpec(Params{Quick: rep.Quick}).CallTimeout.Microseconds())
	if rep.P99Us > maxP99 {
		fails = append(fails, fmt.Sprintf(
			"acked p99 %.0fµs exceeds the per-call deadline %.0fµs", rep.P99Us, maxP99))
	}
	if !rep.Quick && rep.Reconnects == 0 {
		fails = append(fails, "full storm never forced a reconnect (faults not reaching sessions)")
	}
	return fails
}
