package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Experiment is one trio-bench id. Every run prints its tables to w;
// a run that owns a section of BENCH_trio.json or carries acceptance
// gates also returns an Outcome (nil otherwise).
type Experiment struct {
	Run func(w io.Writer, p Params) (*Outcome, error)
	// CostOff keeps the hardware cost model off unless asked for
	// (trio-bench -cost): the datapath harness measures software
	// overhead only. Every other experiment runs with it on unless
	// told otherwise (-nocost).
	CostOff bool
}

// Outcome is what a run hands back besides its printed tables.
type Outcome struct {
	// Section is the part of BENCH_trio.json the run owns: a value that
	// encodes as a JSON object, each of whose keys replaces the file's.
	Section any
	// Fails lists the run's gate violations.
	Fails []string
}

// gatedReport is a report with acceptance gates: gate returns one message
// per violation.
type gatedReport interface{ gate() []string }

// owned is the Outcome of a gated report that owns one key of
// BENCH_trio.json.
func owned(key string, rep gatedReport) *Outcome {
	return &Outcome{Section: map[string]any{key: rep}, Fails: rep.gate()}
}

// figure lifts a run that only prints tables to the Experiment shape.
func figure(fn func(io.Writer, Params) error) func(io.Writer, Params) (*Outcome, error) {
	return func(w io.Writer, p Params) (*Outcome, error) { return nil, fn(w, p) }
}

// Registry maps every trio-bench id to its experiment.
func Registry() map[string]Experiment {
	return map[string]Experiment{
		"fig5":      {Run: figure(Fig5)},
		"fig6":      {Run: figure(Fig6)},
		"fig7":      {Run: figure(Fig7)},
		"fig7-data": {Run: figure(Fig7Data)},
		"tab3":      {Run: figure(Tab3)},
		"fig8":      {Run: figure(Fig8)},
		"integrity": {Run: figure(Integrity)},
		"fig9":      {Run: figure(Fig9)},
		"tab5":      {Run: figure(Tab5)},
		"fig10":     {Run: figure(Fig10)},
		"datapath":  {Run: RunDataPath, CostOff: true},
		"tenancy":   {Run: RunTenancySweep},
		"smallops":  {Run: RunSmallOpsSweep},
		"serving":   {Run: RunServingSweep},
		"netchaos":  {Run: RunNetChaosSweep},
		"all":       {Run: figure(All)},
	}
}

// MergeBench writes section into the BENCH JSON at path, keeping every
// other key of the file as it was (a missing or empty file starts a new
// one).
func MergeBench(path string, section any) error {
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(section)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckBaseline gates a datapath outcome's allocs/op against the BENCH
// JSON at path (trio-bench -baseline). Other outcomes carry no
// allocs/op and pass without reading the file.
func CheckBaseline(path string, out *Outcome) ([]string, error) {
	fresh, ok := out.Section.(*DataPathReport)
	if !ok {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base DataPathReport
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return CheckAllocRegression(&base, fresh.Results), nil
}

// CheckAllocRegression compares fresh datapath results against a
// baseline report and returns one message per workload whose allocs/op
// regressed. Allocation counts are nearly deterministic, so the
// tolerance is tight: 0.5 allocs/op absolute plus 2% relative — enough
// to absorb GC-timing noise on the amortized paths (magazine refills,
// map growth), not enough to hide a new allocation on a hot path.
// ns/op is deliberately NOT gated here: wall-clock noise across
// machines would make CI flaky, and BENCH_trio.json records it for the
// humans reading the diff.
func CheckAllocRegression(baseline *DataPathReport, fresh []DataPathResult) []string {
	base := make(map[string]DataPathResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.FS+"/"+r.Workload] = r
	}
	var regressions []string
	for _, r := range fresh {
		b, ok := base[r.FS+"/"+r.Workload]
		if !ok {
			continue // new workload: nothing to gate against
		}
		limit := b.AllocsPerOp + 0.5 + 0.02*b.AllocsPerOp
		if r.AllocsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s: allocs/op %.2f > limit %.2f (baseline %.2f)",
				r.FS, r.Workload, r.AllocsPerOp, limit, b.AllocsPerOp))
		}
	}
	return regressions
}
