package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The experiments run in quick mode with the cost model off: these are
// plumbing tests (every experiment runs to completion and emits its
// tables), not performance assertions — those live in EXPERIMENTS.md
// against full costed runs.
func quickParams() Params {
	return Params{Quick: true, NoCost: true, Threads: []int{1, 2}}
}

func TestFig5Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(&buf, quickParams()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"arckfs", "nova", "4K-read", "create"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(&buf, quickParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "eight NUMA nodes") {
		t.Fatal("fig6 output missing panels")
	}
}

func TestFig7RunsOneBench(t *testing.T) {
	// The full Fig7 is 12 benchmarks; the harness loops the same code
	// path, so exercising the sweep once through the registry is enough
	// here and the CLI covers the rest.
	var buf bytes.Buffer
	p := quickParams()
	if err := Fig7(&buf, p); err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"MWCM", "MWRL", "DWTL"} {
		if !strings.Contains(buf.String(), bench) {
			t.Fatalf("fig7 missing %s", bench)
		}
	}
}

func TestTab3AndFig8Run(t *testing.T) {
	var buf bytes.Buffer
	if err := Tab3(&buf, quickParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "arckfs-trust-group") {
		t.Fatal("tab3 missing trust-group column")
	}
	buf.Reset()
	if err := Fig8(&buf, quickParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "verifier") {
		t.Fatal("fig8 missing breakdown")
	}
}

func TestFig9Tab5Fig10Run(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig9(&buf, quickParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "varmail") {
		t.Fatal("fig9 missing varmail")
	}
	buf.Reset()
	if err := Tab5(&buf, quickParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fillsync") {
		t.Fatal("tab5 missing fillsync")
	}
	buf.Reset()
	if err := Fig10(&buf, quickParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kvfs") || !strings.Contains(buf.String(), "fpfs") {
		t.Fatal("fig10 missing customized FSes")
	}
}

func TestIntegrityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("139 scenarios")
	}
	var buf bytes.Buffer
	if err := Integrity(&buf, quickParams()); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "11 handcrafted") {
		t.Fatal("integrity output malformed")
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	ids := []string{"fig5", "fig6", "fig7", "fig7-data", "tab3", "fig8", "integrity", "fig9", "tab5", "fig10",
		"datapath", "tenancy", "smallops", "serving", "netchaos", "all"}
	for _, id := range ids {
		if reg[id].Run == nil {
			t.Fatalf("registry missing %s", id)
		}
	}
	if len(reg) != len(ids) {
		t.Fatalf("registry has %d ids, the test knows %d", len(reg), len(ids))
	}
}
