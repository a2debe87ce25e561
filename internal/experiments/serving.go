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
// contention collapse, and the generator's default 128 KiB transfers
// (32 files of 256 KiB) put one READ's media time past the spin/sleep
// threshold (see package comment).
const (
	servingDepth   = 8 // pipelined leg; acceptance asks depth ≥ 8
	servingWorkers = 4
)

// ServingPair is one interleaved serial/pipelined measurement pair.
type ServingPair struct {
	SerialRPCsPerSec    float64 `json:"serial_rpcs_per_sec"`
	PipelinedRPCsPerSec float64 `json:"pipelined_rpcs_per_sec"`
	SpeedupX            float64 `json:"speedup_x"`
	SerialP99Us         float64 `json:"serial_p99_us"`
	PipelinedP99Us      float64 `json:"pipelined_p99_us"`
}

func (p ServingPair) speedup() float64 { return p.SpeedupX }

func (p ServingPair) String() string {
	return fmt.Sprintf("serial=%8.0f rpc/s (p99 %6.0fµs)  pipelined=%8.0f rpc/s (p99 %6.0fµs)  speedup=%.2fx",
		p.SerialRPCsPerSec, p.SerialP99Us, p.PipelinedRPCsPerSec, p.PipelinedP99Us, p.SpeedupX)
}

// ServingReport is the "serving" section of BENCH_trio.json. The
// embedded pair repeats the best one, the one the gate reads.
type ServingReport struct {
	FS          string        `json:"fs"`
	Conns       int           `json:"conns"`
	Depth       int           `json:"depth"`
	Workers     int           `json:"workers_per_conn"`
	Files       int           `json:"files"`
	FileSizeKiB int           `json:"file_size_kib"`
	BSKiB       int           `json:"bs_kib"`
	WritePct    int           `json:"write_pct"`
	OpsPerConn  int           `json:"ops_per_conn"`
	Quick       bool          `json:"quick"`
	Cost        bool          `json:"cost_model"`
	Pairs       []ServingPair `json:"pairs"`
	ServingPair
}

// servingSpec is the serving workload shape (the generator's defaults
// for everything else).
func servingSpec(p Params, depth int) workload.NetLoadSpec {
	s := workload.NetLoadSpec{Conns: 1, Depth: depth, WritePct: 10, OpsPerConn: 480, Seed: 17}
	if p.Quick {
		s.OpsPerConn = 160
	}
	s.Fill()
	return s
}

func servingPairs(p Params) int {
	if p.Quick {
		return 2
	}
	return 3
}

// arckServer mounts ArckFS over a fresh one-node device of the given
// size (cost model as cost says) behind an in-process trio-serve
// server; stop closes both.
func arckServer(pages int, cost bool, opts serve.Options) (srv *serve.Server, stop func(), err error) {
	inst, err := fsfactory.New("arckfs", fsfactory.Config{Nodes: 1, PagesPerNode: pages, CPUs: 8, Cost: cost})
	if err != nil {
		return nil, nil, err
	}
	if srv, err = serve.NewServer(inst, opts); err != nil {
		inst.Close()
		return nil, nil, err
	}
	return srv, func() { srv.Close(); inst.Close() }, nil
}

// RunServingSweep runs the interleaved serial/pipelined pairs and
// returns the report as the "serving" section, gated.
func RunServingSweep(w io.Writer, p Params) (*Outcome, error) {
	probe := servingSpec(p, servingDepth)
	header(w, "serving", fmt.Sprintf(
		"wire-protocol serving: %d conns, depth 1 vs %d, %dK %s zipf reads/writes (ISSUE 9)",
		probe.Conns, servingDepth, probe.BS>>10, "blocks"))
	costBanner(w, p, "functional smoke — pipelining gate not meaningful", "speedup = overlapped media time across in-flight RPCs")

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
	var err error
	rep.Pairs, rep.ServingPair, err = bestPair(w, "serving", servingPairs(p),
		func(piped bool) (workload.NetLoadResult, error) {
			spec := servingSpec(p, 1)
			if piped {
				spec.Depth = servingDepth
			}
			srv, stop, err := arckServer(spec.DevicePages(), !p.NoCost,
				serve.Options{Workers: servingWorkers, MaxInflight: 2 * servingDepth})
			if err != nil {
				return workload.NetLoadResult{}, err
			}
			defer stop()
			return workload.RunNetLoad(srv, spec)
		},
		func(serial, piped workload.NetLoadResult) ServingPair {
			a, b := serial.RPCsPerSec(), piped.RPCsPerSec()
			return ServingPair{SerialRPCsPerSec: a, PipelinedRPCsPerSec: b, SpeedupX: ratio(b, a),
				SerialP99Us: float64(serial.P99.Microseconds()), PipelinedP99Us: float64(piped.P99.Microseconds())}
		})
	if err != nil {
		return nil, err
	}
	return owned("serving", rep), nil
}

// gate evaluates the pipelining acceptance gate and returns one message
// per violation. With the cost model off there is no media time to
// overlap and every check is skipped.
//
// Gates, against the reference single-CPU runner (see EXPERIMENTS.md):
//
//   - full: best pipelined/serial speedup ≥ 2.0 at depth 8 (the
//     acceptance criterion);
//   - quick (the check.sh smoke): ≥ 1.3 — short trials on a loaded CI
//     host only catch collapses, not the full overlap win.
func (rep *ServingReport) gate() []string {
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
