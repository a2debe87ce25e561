package workload

import (
	"testing"
	"time"

	"trio/internal/controller"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

func runSmallOpsOnce(t *testing.T, spec SmallOpsSpec, cost bool) SmallOpsResult {
	t.Helper()
	var cm *nvm.CostModel
	if cost {
		cm = nvm.DefaultCostModel()
	}
	dev, err := nvm.NewDevice(nvm.Config{Nodes: 1, PagesPerNode: spec.DevicePages(), Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	c, err := controller.New(dev, controller.Options{
		Shards:    4,
		LeaseTime: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := RunSmallOps(c, spec)
	if err != nil {
		t.Fatalf("smallops %s (batched=%v): %v", spec.Mode, spec.Batched, err)
	}
	return res
}

// TestSmallOpsModes is the functional smoke: every mode completes, per
// call and batched, and reports the same counts on both arms.
func TestSmallOpsModes(t *testing.T) {
	for _, mode := range []string{"append", "create", "mapunmap"} {
		for _, batched := range []bool{false, true} {
			spec := SmallOpsSpec{Threads: 4, OpsPerThread: 40, Mode: mode, Batched: batched}
			res := runSmallOpsOnce(t, spec, false)
			if res.Cycles != int64(4*40) {
				t.Fatalf("%s batched=%v: cycles = %d, want %d", mode, batched, res.Cycles, 4*40)
			}
			wantOps := res.Cycles * 2
			if mode == "create" {
				wantOps += res.Cycles / 8 // one RemoveFiles per RemoveBatch files
			}
			if res.Ops != wantOps {
				t.Fatalf("%s batched=%v: ops = %d, want %d", mode, batched, res.Ops, wantOps)
			}
			if mode == "append" && res.Bytes != res.Cycles*4096 {
				t.Fatalf("append batched=%v: bytes = %d", batched, res.Bytes)
			}
		}
	}
}

// TestSmallOpsBatchedCrossings: with the cost model on, the batched arm
// pays one trap per window where the per-call arm pays one per file.
func TestSmallOpsBatchedCrossings(t *testing.T) {
	reg := telemetry.Default()
	reg.Enable()
	defer reg.Disable()
	traps := reg.NewCounter("nvm.cost_traps")
	trapsOf := func(batched bool) int64 {
		t0 := traps.Load()
		runSmallOpsOnce(t, SmallOpsSpec{Threads: 2, OpsPerThread: 64, Mode: "mapunmap", Batched: batched}, true)
		return traps.Load() - t0
	}
	perCall, batched := trapsOf(false), trapsOf(true)
	// Setup and teardown cost the same on both arms; the measured phase
	// is 2 threads x 64 cycles x 2 calls per call, / 8 per window batched.
	if saved := perCall - batched; saved != 2*64*2-2*64*2/8 {
		t.Fatalf("per-call arm paid %d traps, batched %d: saved %d, want %d", perCall, batched, saved, 2*64*2-2*64*2/8)
	}
}
