package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trio/internal/telemetry"
)

// zeroByDesign are per-layer metrics no workload is meant to move off
// zero: lease traffic would mean a timer-driven wait, a shed or replayed
// RPC a failing wire, and none of the mixes reaches the delegation
// thresholds or frees pages past the LibFS's own recycling.
var zeroByDesign = map[string]bool{
	"controller.lease_recalls":   true,
	"controller.lease_expiries":  true,
	"serve.drc_hits_per_op":      true,
	"serve.shed_per_op":          true,
	"mmu.shootdowns_per_op":      true,
	"delegation.delegated_ratio": true,
	"alloc.pages_out_per_op":     true,
	"alloc.mag_hit_ratio":        true,
	"alloc.mag_refills_per_op":   true,
}

// TestSmoke runs every workload for four slices, the traced run on a
// few hundred ops and the probes at one batch, and checks that the
// benchmark emits exactly the metrics BENCHMARK.json names, that every
// oracle holds, and that the workloads exercise what they claim to.
func TestSmoke(t *testing.T) {
	man, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	start := time.Now()
	reports := runAll(specs, plan{
		seed: 1, episodes: 1, slices: 4, probeBatches: 1,
		smoke: true, trace: true, traceOut: traceFile,
	}, io.Discard)
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 10s", d)
	}

	if len(reports) != len(man.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(reports), len(man.Workloads))
	}
	layer := make(map[string]map[string]float64) // workload → per-layer metric → value
	for i, r := range reports {
		name := man.Workloads[i].Name
		if r.sp.name != name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, r.sp.name, name)
		}
		if _, _, err := r.counts(); err != nil {
			t.Errorf("%s: %v", name, err)
		}

		e2e := r.result(false)
		if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, e2e.Correct, e2e.Attempted, e2e.Failed)
		}
		if len(e2e.Metrics) != len(man.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json names %d", name, len(e2e.Metrics), len(man.EndToEnd))
		}
		for _, m := range man.EndToEnd {
			got, ok := e2e.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s missing", name, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
			}
			if !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: %s = %v, want finite and positive", name, m.Name, got.Value)
			}
		}

		pl := r.result(true)
		if !pl.Correct {
			t.Errorf("%s: traced result not correct", name)
		}
		if len(pl.Metrics) != len(man.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json names %d", name, len(pl.Metrics), len(man.PerLayer))
		}
		layer[name] = make(map[string]float64)
		for _, m := range man.PerLayer {
			got, ok := pl.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
			}
			if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: %s = %v, want finite", name, m.Name, got.Value)
			}
			if got.Value < 0 && m.Name != "trace.overhead_frac" {
				t.Errorf("%s: %s = %v, want non-negative", name, m.Name, got.Value)
			}
			layer[name][m.Name] = got.Value
		}
	}
	for i, d := range endToEndDefs {
		if m := man.EndToEnd[i]; m.Name != d.name || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, m.Name, m.Better, d.name, d.better)
		}
	}
	for i, d := range perLayerDefs {
		if i >= len(man.PerLayer) {
			break
		}
		if m := man.PerLayer[i]; m.Name != d.name || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, m.Name, m.Better, d.name, d.better)
		}
	}

	// Every per-layer metric is live somewhere, unless it is zero by design.
	for _, m := range man.PerLayer {
		if zeroByDesign[m.Name] || m.Name == "trace.overhead_frac" {
			continue
		}
		moved := false
		for _, vals := range layer {
			moved = moved || vals[m.Name] > 0
		}
		if !moved {
			t.Errorf("per-layer metric %s is zero on every workload", m.Name)
		}
	}

	// share-handover really hands write access across domains on every
	// op, is verified doing so, and never waits on a lease timer.
	sh := layer["share-handover"]
	for _, m := range []string{"controller.maps_per_op", "controller.unmaps_per_op", "verifier.reports_per_op", "controller.checkpoints_per_op"} {
		if sh[m] < 1 {
			t.Errorf("share-handover: %s = %v, want at least 1", m, sh[m])
		}
	}
	for name, vals := range layer {
		for _, m := range []string{"controller.lease_recalls", "controller.lease_expiries"} {
			if vals[m] != 0 {
				t.Errorf("%s: %s = %v, want 0", name, m, vals[m])
			}
		}
	}
	// data-small bypasses the control plane and allocates nothing.
	ds := layer["data-small"]
	for _, m := range []string{"controller.maps_per_op", "alloc.pages_out_per_op", "controller.alloc_calls_per_op", "verifier.reports_per_op"} {
		if ds[m] != 0 {
			t.Errorf("data-small: %s = %v, want 0", m, ds[m])
		}
	}
	if ds["go.allocs_per_op"] > 0.01 && !raceEnabled {
		t.Errorf("data-small: go.allocs_per_op = %v, want 0 after warm-up", ds["go.allocs_per_op"])
	}

	// The trace files load, and a wire WRITE can be followed from the
	// harness through the serving tier and the LibFS to the device.
	for _, sp := range specs {
		path := strings.TrimSuffix(traceFile, ".json") + "." + sp.name + ".json"
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatalf("%s is not a JSON array of trace events: %v", path, err)
		}
		if len(events) < sp.smokeOps {
			t.Errorf("%s holds %d events for %d ops", path, len(events), sp.smokeOps)
		}
	}
	tr, err := runTraced(wireMixedSpec, 7, 200, "")
	if err != nil {
		t.Fatal(err)
	}
	if !hasChain(tr.spans, "serve.Session.Write", []string{layerBench, "serve", "libfs", "nvm"}) {
		t.Errorf("no wire WRITE in the trace shows bench -> serve -> libfs -> nvm spans")
	}
}

// hasChain reports whether some span in the deepest layer has exactly
// the given layers above it, root first, passing through a span named
// via.
func hasChain(recs []telemetry.SpanRecord, via string, layers []string) bool {
	byID := make(map[uint64]telemetry.SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	for _, leaf := range recs {
		cur, ok, seen := leaf, true, false
		for i := len(layers) - 1; ok; i-- {
			if cur.Layer != layers[i] {
				ok = false
				break
			}
			seen = seen || cur.Name == via
			if i == 0 {
				ok = cur.Parent == 0
				break
			}
			cur, ok = byID[cur.Parent]
		}
		if ok && seen {
			return true
		}
	}
	return false
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-seconds", "0"},
		{"-no-such-flag"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
