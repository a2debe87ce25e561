package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// LoadDataPathJSON reads a BENCH_trio.json report written by
// WriteDataPathJSON.
func LoadDataPathJSON(path string) (*DataPathReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep DataPathReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rep, nil
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

// MergeSectionJSON installs one experiment's fresh section into the
// BENCH JSON at path, preserving every other section already there (or
// starting a new report when the file does not exist yet).
func MergeSectionJSON(path string, install func(*DataPathReport)) error {
	rep, err := LoadDataPathJSON(path)
	if err != nil {
		rep = &DataPathReport{
			Schema: "trio-bench/datapath/v1",
			Go:     runtime.Version(),
		}
	}
	install(rep)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
