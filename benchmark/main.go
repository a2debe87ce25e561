// Command benchmark is the repository's performance benchmark: four
// long, interference-robust workloads over the Trio stack, each
// reporting four end-to-end metrics, plus (with -trace) a traced run
// and per-layer probes. See README.md in this directory for what is
// measured and why; BENCHMARK.json at the repository root is the
// manifest a driver reads.
//
//	go run ./benchmark                      all workloads, episodes round-robin
//	go run ./benchmark -workload data-small one workload
//	go run ./benchmark -trace trace.json    also per-layer metrics and a Chrome trace
//	go run ./benchmark -selfcheck 5         five runs, spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

// plan sizes one invocation.
type plan struct {
	seed         int64
	episodes     int
	slices       int // timed slices per episode
	probeBatches int
	smoke        bool
	trace        bool
	traceOut     string // Chrome trace file; "" writes none
}

// report collects one workload's episodes and, when traced, its
// per-layer metrics.
type report struct {
	sp       spec
	eps      []episode
	layer    map[string]float64
	traceErr error
}

// med is the median over the episodes of one of their values.
func (r *report) med(f func(*episode) float64) float64 {
	out := make([]float64, len(r.eps))
	for i := range r.eps {
		out[i] = f(&r.eps[i])
	}
	return median(out)
}

// endToEnd reduces the episodes to the gated metrics: the median over
// episodes of each episode's quiet-quarter value.
func (r *report) endToEnd() map[string]float64 {
	return map[string]float64{
		"ops_per_s": r.med(func(e *episode) float64 { return e.opsPerS }),
		"op_p50_us": r.med(func(e *episode) float64 { return e.p50us }),
		"op_p90_us": r.med(func(e *episode) float64 { return e.p90us }),
		"setup_s":   r.med(func(e *episode) float64 { return e.setupS }),
	}
}

// diagnostics are the per-layer metrics the untraced run itself yields.
func (r *report) diagnostics() map[string]float64 {
	return map[string]float64{
		"nvm.device_alloc_s":    r.med(func(e *episode) float64 { return e.devAllocS }),
		"go.allocs_per_op":      r.med(func(e *episode) float64 { return e.allocsPerOp }),
		"go.alloc_bytes_per_op": r.med(func(e *episode) float64 { return e.allocBytesPerOp }),
		"go.gc_cycles_per_s":    r.med(func(e *episode) float64 { return e.gcPerS }),
		"run.op_p99_us":         r.med(func(e *episode) float64 { return e.p99us }),
		"run.all_ops_per_s":     r.med(func(e *episode) float64 { return e.allOpsPerS }),
		"run.slice_cv":          r.med(func(e *episode) float64 { return e.sliceCV }),
		"run.quiet_gap":         r.med(func(e *episode) float64 { return e.quietGap }),
		"host.copy4k_per_s":     r.med(func(e *episode) float64 { return e.hostCopy }),
		"host.alu_per_s":        r.med(func(e *episode) float64 { return e.hostALU }),
	}
}

func (r *report) counts() (attempted, failed int, firstErr error) {
	firstErr = r.traceErr
	for i := range r.eps {
		attempted += r.eps[i].attempted
		failed += r.eps[i].failed
		if firstErr == nil {
			firstErr = r.eps[i].err
		}
	}
	return attempted, failed, firstErr
}

// jsonMetric and jsonResult are the last-line result object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Workload  string                `json:"workload,omitempty"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result renders the report's metrics: the end-to-end set, or with
// tracing the per-layer set.
func (r *report) result(traced bool) jsonResult {
	attempted, failed, err := r.counts()
	res := jsonResult{
		Correct:   err == nil && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]jsonMetric),
	}
	defs, vals := endToEndDefs, r.endToEnd()
	if traced {
		defs, vals = perLayerDefs, r.layer
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return res
}

// runAll runs the selected workloads' episodes round-robin
// (A1 B1 C1 D1 A2 B2 ...), so minute-scale drift of the host lands on
// every workload alike, then the traced runs and probes.
func runAll(selected []spec, p plan, log io.Writer) []*report {
	reports := make([]*report, len(selected))
	for i, sp := range selected {
		reports[i] = &report{sp: sp}
	}
	for ep := 0; ep < p.episodes; ep++ {
		for _, r := range reports {
			e := runEpisode(r.sp, episodeSeed(p.seed, ep), p.slices)
			r.eps = append(r.eps, e)
			fmt.Fprintf(log, "# %-14s episode %d: %10.0f op/s  p50 %9.3f us  p90 %9.3f us  setup %.4f s  (all-slice %0.0f op/s, cv %.3f)\n",
				r.sp.name, ep+1, e.opsPerS, e.p50us, e.p90us, e.setupS, e.allOpsPerS, e.sliceCV)
			if e.err != nil {
				fmt.Fprintf(log, "# %-14s episode %d: %v\n", r.sp.name, ep+1, e.err)
			}
		}
	}
	if !p.trace {
		return reports
	}
	probes := runProbes(p.probeBatches, log)
	for _, r := range reports {
		r.layer = r.diagnostics()
		for k, v := range probes {
			r.layer[k] = v
		}
		out := p.traceOut
		if out != "" && len(reports) > 1 {
			out = strings.TrimSuffix(out, ".json") + "." + r.sp.name + ".json"
		}
		nOps := r.sp.traceOps
		if p.smoke {
			nOps = r.sp.smokeOps
		}
		tr, err := runTraced(r.sp, episodeSeed(p.seed, p.episodes), nOps, out)
		if err != nil {
			fmt.Fprintf(log, "# %-14s traced run: %v\n", r.sp.name, err)
			r.traceErr = fmt.Errorf("traced run: %w", err)
		}
		for k, v := range tr.metrics {
			r.layer[k] = v
		}
		r.layer["trace.overhead_frac"] = 0
		if tr.untracedOpsPerS > 0 {
			r.layer["trace.overhead_frac"] = 1 - tr.tracedOpsPerS/tr.untracedOpsPerS
		}
	}
	return reports
}

func printReports(w io.Writer, reports []*report, traced bool) {
	fmt.Fprintf(w, "%-15s %14s %13s %13s %10s %12s %8s\n",
		"workload", "ops_per_s[1/s]", "op_p50_us[us]", "op_p90_us[us]", "setup_s[s]", "attempted", "failed")
	for _, r := range reports {
		e := r.endToEnd()
		attempted, failed, _ := r.counts()
		fmt.Fprintf(w, "%-15s %14.1f %13.4f %13.4f %10.5f %12d %8d\n",
			r.sp.name, e["ops_per_s"], e["op_p50_us"], e["op_p90_us"], e["setup_s"], attempted, failed)
	}
	if !traced {
		return
	}
	fmt.Fprintf(w, "\n%-40s %-6s", "per-layer metric", "unit")
	for _, r := range reports {
		fmt.Fprintf(w, " %16s", r.sp.name)
	}
	fmt.Fprintln(w)
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "%-40s %-6s", d.name, d.unit)
		for _, r := range reports {
			fmt.Fprintf(w, " %16.4f", r.layer[d.name])
		}
		fmt.Fprintln(w)
	}
}

// run is main without the process exit, so the smoke test can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run only this workload (default: all four, episodes round-robin)")
	seed := fs.Int64("seed", 1, "seed of every op stream, zipf draw and offset")
	seconds := fs.Int("seconds", 30, "timed seconds per workload, split over 4 episodes of 125 ms slices")
	trace := fs.String("trace", "0", "0: end-to-end metrics only; 1: also the traced run, probes and per-layer metrics; a file name: as 1, and write the Chrome trace there")
	selfcheck := fs.Int("selfcheck", 0, "run the benchmark N times (seeds seed..seed+N-1), print each metric's spread and compare it with the bounds in BENCHMARK.json")
	smoke := fs.Bool("smoke", false, "a seconds-long functional pass: 1 episode of 4 slices, probes at 1 batch")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	selected := specs
	if *workloadName != "" {
		sp, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []spec{sp}
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	if *selfcheck > 0 {
		return runSelfcheck(selected, *selfcheck, *seed, *seconds, stdout, stderr)
	}

	p := plan{
		seed:         *seed,
		episodes:     episodes,
		slices:       max(1, int(time.Duration(*seconds)*time.Second/sliceLen)/episodes),
		probeBatches: 20,
		trace:        *trace != "0",
	}
	if *trace != "0" && *trace != "1" {
		p.traceOut = *trace
	}
	if *smoke {
		p.smoke, p.episodes, p.slices, p.probeBatches = true, 1, 4, 1
	}

	reports := runAll(selected, p, stderr)
	printReports(stdout, reports, p.trace)

	code := 0
	enc := json.NewEncoder(stdout)
	for _, r := range reports {
		res := r.result(p.trace)
		if len(reports) > 1 {
			res.Workload = r.sp.name
		}
		if !res.Correct {
			_, _, err := r.counts()
			fmt.Fprintf(stderr, "benchmark: %s: incorrect: %v\n", r.sp.name, err)
			code = 1
		}
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
