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
// Every experiment takes the same route: run it (it prints its tables),
// merge the BENCH_trio.json section it owns, if any, into the -json
// file with every other section kept as it was, and exit 1 if any of
// its acceptance gates is violated.
//
// The datapath experiment measures per-op software overhead (op/s,
// ns/op, allocs/op per workload × FS); its section is the
// machine-readable baseline future PRs diff against. It runs with the
// hardware cost model OFF unless -cost is given: modeled device time is
// a constant the software cannot change, so excluding it isolates the
// regression signal. -baseline gates its allocs/op against a previously
// written BENCH JSON. -cpuprofile captures a pprof profile of the
// measured region.
//
// -telemetry enables the cross-layer metrics registry and prints the
// counter table after the run; -trace additionally records spans and
// writes a Chrome trace_event file (load it in chrome://tracing or
// Perfetto).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"trio/internal/experiments"
	"trio/internal/telemetry"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (see -list)")
		quick      = flag.Bool("quick", false, "shrink sweeps and op counts")
		nocost     = flag.Bool("nocost", false, "disable the hardware cost model (functional smoke run)")
		cost       = flag.Bool("cost", false, "datapath only: enable the hardware cost model (off by default there)")
		jsonPath   = flag.String("json", "", "merge the experiment's BENCH section into this JSON file")
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
	e, ok := reg[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *experiment)
		os.Exit(2)
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

	p := experiments.Params{Quick: *quick, NoCost: *nocost}
	if e.CostOff {
		p.NoCost = !*cost
	}
	start := time.Now()
	out, err := e.Run(os.Stdout, p)
	var fails []string
	if err == nil && out != nil {
		fails, err = settle(out, *jsonPath, *baseline)
	}
	fmt.Printf("\n[%s finished in %v]\n", *experiment, time.Since(start).Round(time.Millisecond))
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment failed: %v\n", err)
		os.Exit(1)
	}
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "\n%s GATE FAILURES:\n", strings.ToUpper(*experiment))
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	if out != nil {
		fmt.Printf("%s gates passed\n", *experiment)
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

// settle merges the outcome's section into the -json file and adds the
// -baseline allocs/op check to the run's own gate violations.
func settle(out *experiments.Outcome, jsonPath, baseline string) ([]string, error) {
	if jsonPath != "" && out.Section != nil {
		if err := experiments.MergeBench(jsonPath, out.Section); err != nil {
			return nil, err
		}
		fmt.Printf("\nmerged the section into %s\n", jsonPath)
	}
	fails := out.Fails
	if baseline != "" {
		regs, err := experiments.CheckBaseline(baseline, out)
		if err != nil {
			return nil, err
		}
		fails = append(fails, regs...)
	}
	return fails, nil
}
