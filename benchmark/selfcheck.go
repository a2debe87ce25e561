package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// manifest is BENCHMARK.json as the self-check and the smoke test read
// it.
type manifest struct {
	Workloads []struct {
		Name string
	}
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// runSelfcheck repeats the benchmark n times the way a driver would —
// one fresh process per workload and run, a different seed per run, the
// workloads interleaved — and prints, per end-to-end metric and
// workload, the median, the interquartile range and the largest
// deviation from the median, both as shares of the median. It returns
// non-zero when an interquartile range exceeds the metric's bound in
// BENCHMARK.json (setup_s is printed but, like in the driver, not held
// to its spread). It is the tool that sets the bounds, and the one a
// later change uses before claiming a gain.
func runSelfcheck(selected []spec, n int, seed int64, seconds int, stdout, stderr io.Writer) int {
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -selfcheck runs from the repository root: %v\n", err)
		return 2
	}
	bounds := make(map[string]float64)
	for _, e := range m.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}

	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	for _, sp := range selected {
		values[sp.name] = make(map[string][]float64)
	}
	code := 0
	for run := 0; run < n; run++ {
		for _, sp := range selected {
			res, err := runChild(self, sp.name, seed+int64(run), seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: run %d of %s: %v\n", run+1, sp.name, err)
				code = 1
				continue
			}
			fmt.Fprintf(stderr, "# run %d/%d %-14s", run+1, n, sp.name)
			for _, d := range endToEndDefs {
				v := res.Metrics[d.name].Value
				values[sp.name][d.name] = append(values[sp.name][d.name], v)
				fmt.Fprintf(stderr, "  %s=%.6g", d.name, v)
			}
			fmt.Fprintln(stderr)
		}
	}

	fmt.Fprintf(stdout, "%-15s %-10s %14s %9s %9s %7s  %s\n", "workload", "metric", "median", "iqr/med", "maxdev", "bound", "")
	for _, sp := range selected {
		for _, d := range endToEndDefs {
			xs := values[sp.name][d.name]
			iqr, verdict := relIQR(xs), "ok"
			switch bound, gated := bounds[d.name]; {
			case !gated:
				verdict = "no bound in BENCHMARK.json"
				code = 1
			case d.name == "setup_s":
				verdict = "spread not gated"
			case iqr > bound:
				verdict = "SPREAD EXCEEDS BOUND"
				code = 1
			case iqr > bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(stdout, "%-15s %-10s %14.6g %9.4f %9.4f %7.2f  %s\n",
				sp.name, d.name, median(xs), iqr, maxRelDev(xs), bounds[d.name], verdict)
		}
	}
	return code
}

// runChild runs one workload once in a child process and parses the
// result object on the last line of its output.
func runChild(self, workload string, seed int64, seconds int, stderr io.Writer) (jsonResult, error) {
	var res jsonResult
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		return res, err
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("reported incorrect (%d of %d ops failed)", res.Failed, res.Attempted)
	}
	return res, nil
}
