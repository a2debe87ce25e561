// Command trio-bench regenerates the tables and figures of the Trio
// paper's evaluation (§6) over the simulated NVM machine, and hosts the
// data-path regression harness behind `make bench`.
//
// Usage:
//
//	trio-bench -experiment fig5            # one experiment
//	trio-bench -experiment all             # the whole evaluation
//	trio-bench -experiment fig7 -quick     # shrunken sweeps (CI)
//	trio-bench -experiment datapath -json BENCH_trio.json
//	trio-bench -experiment datapath -quick -baseline BENCH_trio.json
//	trio-bench -experiment tenancy -json BENCH_trio.json
//	trio-bench -experiment fig5 -telemetry -trace trace.json
//	trio-bench -list                       # available experiments
//
// The figure experiments print the paper's units (GiB/s, ops/µs,
// kops/s, µs/op); EXPERIMENTS.md records a reference run side by side
// with the paper's numbers and discusses which shapes reproduce.
//
// The datapath experiment measures per-op software overhead (op/s,
// ns/op, allocs/op per workload × FS) and, with -json, emits the
// machine-readable BENCH_trio.json that future PRs diff against. It
// runs with the hardware cost model OFF unless -cost is given: modeled
// device time is a constant the software cannot change, so excluding it
// isolates the regression signal. -cpuprofile captures a pprof profile
// of the measured region. -baseline gates the run's allocs/op against a
// previously written BENCH JSON and exits 1 on regression.
//
// -telemetry enables the cross-layer metrics registry and prints the
// counter table after the run; -trace additionally records spans and
// writes a Chrome trace_event file (load it in chrome://tracing or
// Perfetto).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"trio/internal/experiments"
	"trio/internal/telemetry"
)

// gatedExperiments are the sweeps that carry their own acceptance gates
// and own a section of the BENCH JSON: the massive-tenancy shard-count
// curve, per-call vs batched trust-boundary crossings, serial vs
// pipelined RPC over the loopback wire, and the exactly-once audit of a
// network fault storm.
var gatedExperiments = map[string]struct {
	merged string // what the "merged … into" line calls the section
	run    gatedRun
}{
	"tenancy": {"tenancy sweep", gated(experiments.RunTenancySweep, experiments.CheckTenancyGate,
		func(d *experiments.DataPathReport, r *experiments.TenancyReport) { d.Tenancy = r })},
	"smallops": {"smallops report", gated(experiments.RunSmallOpsSweep, experiments.CheckSmallOpsGate,
		func(d *experiments.DataPathReport, r *experiments.SmallOpsReport) { d.SmallOps = r })},
	"serving": {"serving report", gated(experiments.RunServingSweep, experiments.CheckServingGate,
		func(d *experiments.DataPathReport, r *experiments.ServingReport) { d.Serving = r })},
	"netchaos": {"netchaos report", gated(experiments.RunNetChaosSweep, experiments.CheckNetChaosGate,
		func(d *experiments.DataPathReport, r *experiments.NetChaosReport) { d.NetChaos = r })},
}

// gatedRun runs one gated experiment: it returns the function that
// installs the fresh report into the BENCH JSON and the gate's
// violations.
type gatedRun func(experiments.Params) (install func(*experiments.DataPathReport), fails []string, err error)

// gated adapts one experiment's typed run/check/install triple to the
// table's shape.
func gated[R any](run func(io.Writer, experiments.Params) (*R, error), check func(*R) []string,
	install func(*experiments.DataPathReport, *R)) gatedRun {
	return func(p experiments.Params) (func(*experiments.DataPathReport), []string, error) {
		rep, err := run(os.Stdout, p)
		if err != nil {
			return nil, nil, err
		}
		return func(d *experiments.DataPathReport) { install(d, rep) }, check(rep), nil
	}
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (fig5..fig10, tab3, tab5, integrity, datapath, tenancy, smallops, serving, all)")
		quick      = flag.Bool("quick", false, "shrink sweeps and op counts")
		nocost     = flag.Bool("nocost", false, "disable the hardware cost model (functional smoke run)")
		cost       = flag.Bool("cost", false, "datapath only: enable the hardware cost model (off by default there)")
		jsonPath   = flag.String("json", "", "datapath only: write results to this JSON file")
		baseline   = flag.String("baseline", "", "datapath only: BENCH JSON to gate allocs/op against (exit 1 on regression)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run")
		useTelem   = flag.Bool("telemetry", false, "enable the metrics registry; print a counter table after the run")
		tracePath  = flag.String("trace", "", "enable tracing; write a Chrome trace_event JSONL file here")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *useTelem {
		telemetry.Default().Enable()
	}
	if *tracePath != "" {
		telemetry.EnableTracing(0)
	}

	reg := experiments.Registry()
	if *list || *experiment == "" {
		ids := make([]string, 0, len(reg))
		for id := range reg {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println("available experiments:")
		for _, id := range ids {
			fmt.Printf("  %s\n", id)
		}
		if *experiment == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nuse -experiment <id>")
			os.Exit(2)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	start := time.Now()
	var err error
	if *experiment == "datapath" {
		// The regression harness: cost off unless explicitly requested,
		// results optionally serialized for BENCH_trio.json.
		p := experiments.Params{Quick: *quick, NoCost: !*cost}
		var results []experiments.DataPathResult
		results, err = experiments.RunDataPath(os.Stdout, p)
		if err == nil && *jsonPath != "" {
			if werr := experiments.WriteDataPathJSON(*jsonPath, p, results); werr != nil {
				err = werr
			} else {
				fmt.Printf("\nwrote %d results to %s\n", len(results), *jsonPath)
			}
		}
		if err == nil && *baseline != "" {
			rep, lerr := experiments.LoadDataPathJSON(*baseline)
			if lerr != nil {
				err = lerr
			} else if regs := experiments.CheckAllocRegression(rep, results); len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "\nALLOC REGRESSIONS vs %s:\n", *baseline)
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "  %s\n", r)
				}
				os.Exit(1)
			} else {
				fmt.Printf("\nallocs/op within baseline %s\n", *baseline)
			}
		}
	} else if g := gatedExperiments[*experiment]; g.run != nil {
		// An experiment with acceptance gates: evaluated in-process, its
		// report merged into the BENCH JSON next to the other sections.
		p := experiments.Params{Quick: *quick, NoCost: *nocost}
		var install func(*experiments.DataPathReport)
		var fails []string
		install, fails, err = g.run(p)
		if err == nil && *jsonPath != "" {
			if werr := experiments.MergeSectionJSON(*jsonPath, install); werr != nil {
				err = werr
			} else {
				fmt.Printf("\nmerged %s into %s\n", g.merged, *jsonPath)
			}
		}
		if err == nil {
			if len(fails) > 0 {
				fmt.Fprintf(os.Stderr, "\n%s GATE FAILURES:\n", strings.ToUpper(*experiment))
				for _, f := range fails {
					fmt.Fprintf(os.Stderr, "  %s\n", f)
				}
				os.Exit(1)
			}
			fmt.Printf("\n%s gates passed\n", *experiment)
		}
	} else {
		fn, ok := reg[*experiment]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *experiment)
			os.Exit(2)
		}
		err = fn(os.Stdout, experiments.Params{Quick: *quick, NoCost: *nocost})
	}
	fmt.Printf("\n[%s finished in %v]\n", *experiment, time.Since(start).Round(time.Millisecond))
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment failed: %v\n", err)
		os.Exit(1)
	}

	if *useTelem {
		fmt.Println("\ntelemetry counters:")
		telemetry.Default().Snapshot().WriteTable(os.Stdout)
	}
	if *tracePath != "" {
		f, ferr := os.Create(*tracePath)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", ferr)
			os.Exit(1)
		}
		recs := telemetry.TraceSnapshot()
		if werr := telemetry.WriteChromeTrace(f, recs); werr != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", werr)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %d trace events to %s\n", len(recs), *tracePath)
	}
}
