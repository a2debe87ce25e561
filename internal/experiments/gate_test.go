package experiments

import (
	"testing"

	"trio/internal/workload"
)

// gateCases pin every acceptance gate. Each case starts from a report
// that clears every gate of its experiment, sets the named figures, and
// says how many violations the gate must report. Thresholds sit between
// a just-above and a just-below case, so a gate that moves fails here.
// "allocs" is the datapath -baseline check: one workload recorded at
// "baseline" allocs/op and run again at "fresh" ("missing" leaves it
// out of the baseline). "points", "modes" and "pairs" set 0 empty the
// report.
var gateCases = []struct {
	exp   string
	quick bool
	cost  bool
	set   map[string]float64
	want  int
}{
	// tenancy, full: scaling >= 2.0, widest p99 recall <= 400 ms, widest >= 2500 ops/s.
	{"tenancy", false, true, nil, 0},
	{"tenancy", false, true, map[string]float64{"scaling_x": 2.01}, 0},
	{"tenancy", false, true, map[string]float64{"scaling_x": 1.99}, 1},
	{"tenancy", false, true, map[string]float64{"recall_p99_ms": 399.9}, 0},
	{"tenancy", false, true, map[string]float64{"recall_p99_ms": 400.1}, 1},
	{"tenancy", false, true, map[string]float64{"ops_per_sec": 2500.1}, 0},
	{"tenancy", false, true, map[string]float64{"ops_per_sec": 2499.9}, 1},
	{"tenancy", false, true, map[string]float64{"scaling_x": 1, "recall_p99_ms": 900, "ops_per_sec": 10}, 3},
	{"tenancy", false, true, map[string]float64{"points": 0, "scaling_x": 0}, 0},
	// tenancy, quick: scaling >= 1.3, p99 recall <= 600 ms, no throughput floor.
	{"tenancy", true, true, nil, 0},
	{"tenancy", true, true, map[string]float64{"scaling_x": 1.31, "recall_p99_ms": 599.9, "ops_per_sec": 1}, 0},
	{"tenancy", true, true, map[string]float64{"scaling_x": 1.29}, 1},
	{"tenancy", true, true, map[string]float64{"recall_p99_ms": 600.1}, 1},
	{"tenancy", true, true, map[string]float64{"scaling_x": 1, "recall_p99_ms": 900, "ops_per_sec": 0}, 2},
	// tenancy, cost model off: nothing to gate.
	{"tenancy", false, false, map[string]float64{"scaling_x": 1, "recall_p99_ms": 900, "ops_per_sec": 10}, 0},
	{"tenancy", true, false, map[string]float64{"scaling_x": 1, "recall_p99_ms": 900}, 0},

	// smallops, full: best of append/create >= 2.0, every mode >= 1.0.
	{"smallops", false, true, nil, 0},
	{"smallops", false, true, map[string]float64{"create": 2.01, "append": 1.5}, 0},
	{"smallops", false, true, map[string]float64{"create": 1.99, "append": 1.5}, 1},
	{"smallops", false, true, map[string]float64{"create": 1.5, "append": 2.01}, 0},
	{"smallops", false, true, map[string]float64{"create": 1.5, "append": 1.5, "mapunmap": 3}, 1},
	{"smallops", false, true, map[string]float64{"mapunmap": 1.01}, 0},
	{"smallops", false, true, map[string]float64{"mapunmap": 0.99}, 1},
	{"smallops", false, true, map[string]float64{"append": 0.99}, 1},
	{"smallops", false, true, map[string]float64{"create": 0.9, "append": 0.9, "mapunmap": 0.9}, 4},
	{"smallops", false, true, map[string]float64{"modes": 0}, 0},
	// smallops, quick: best of append/create >= 1.3, every mode >= 0.5.
	{"smallops", true, true, nil, 0},
	{"smallops", true, true, map[string]float64{"create": 1.31, "append": 0.51, "mapunmap": 0.51}, 0},
	{"smallops", true, true, map[string]float64{"create": 1.29, "append": 1.29}, 1},
	{"smallops", true, true, map[string]float64{"append": 0.49}, 1},
	{"smallops", true, true, map[string]float64{"create": 0.4, "append": 0.4, "mapunmap": 0.4}, 4},
	// smallops, cost model off: nothing to gate.
	{"smallops", false, false, map[string]float64{"create": 0.4, "append": 0.4, "mapunmap": 0.4}, 0},
	{"smallops", true, false, map[string]float64{"create": 0.4, "append": 0.4}, 0},

	// serving, full: best pipelined/serial >= 2.0, and the pipelined leg completed RPCs.
	{"serving", false, true, nil, 0},
	{"serving", false, true, map[string]float64{"speedup_x": 2.01}, 0},
	{"serving", false, true, map[string]float64{"speedup_x": 1.99}, 1},
	{"serving", false, true, map[string]float64{"pipelined_rpcs_per_sec": 0}, 1},
	{"serving", false, true, map[string]float64{"speedup_x": 0, "pipelined_rpcs_per_sec": 0}, 2},
	{"serving", false, true, map[string]float64{"pairs": 0, "speedup_x": 0}, 0},
	// serving, quick: >= 1.3.
	{"serving", true, true, nil, 0},
	{"serving", true, true, map[string]float64{"speedup_x": 1.31}, 0},
	{"serving", true, true, map[string]float64{"speedup_x": 1.29}, 1},
	// serving, cost model off: nothing to gate.
	{"serving", false, false, map[string]float64{"speedup_x": 0, "pipelined_rpcs_per_sec": 0}, 0},
	{"serving", true, false, map[string]float64{"speedup_x": 0}, 0},

	// netchaos: the exactly-once audit never relaxes; availability >= 0.99
	// (0.95 quick), acked p99 within the 500 ms call deadline, and a full
	// storm must force a reconnect. The cost model changes nothing.
	{"netchaos", false, true, nil, 0},
	{"netchaos", false, true, map[string]float64{"ops": 0, "acked": 0}, 1},
	{"netchaos", false, true, map[string]float64{"acked": 0}, 1},
	{"netchaos", false, true, map[string]float64{"acked_lost": 1}, 1},
	{"netchaos", false, true, map[string]float64{"double_applied": 1}, 1},
	{"netchaos", false, true, map[string]float64{"unexpected": 1}, 1},
	{"netchaos", false, true, map[string]float64{"kills": 0}, 0},
	{"netchaos", false, true, map[string]float64{"partitions": 0}, 0},
	{"netchaos", false, true, map[string]float64{"kills": 0, "partitions": 0}, 1},
	{"netchaos", false, true, map[string]float64{"availability": 0.9901}, 0},
	{"netchaos", false, true, map[string]float64{"availability": 0.9899}, 1},
	{"netchaos", false, true, map[string]float64{"p99_us": 500000}, 0},
	{"netchaos", false, true, map[string]float64{"p99_us": 500001}, 1},
	{"netchaos", false, true, map[string]float64{"reconnects": 0}, 1},
	{"netchaos", false, true, map[string]float64{"ops": 0, "acked": 0, "acked_lost": 1, "double_applied": 1,
		"unexpected": 1, "kills": 0, "partitions": 0, "availability": 0.5, "p99_us": 600000, "reconnects": 0}, 8},
	{"netchaos", true, true, nil, 0},
	{"netchaos", true, true, map[string]float64{"availability": 0.9501}, 0},
	{"netchaos", true, true, map[string]float64{"availability": 0.9499}, 1},
	{"netchaos", true, true, map[string]float64{"reconnects": 0}, 0},
	{"netchaos", true, true, map[string]float64{"p99_us": 500001}, 1},
	{"netchaos", false, false, map[string]float64{"acked_lost": 1, "availability": 0.5}, 2},
	{"netchaos", false, false, map[string]float64{"reconnects": 0}, 1},
	{"netchaos", true, false, map[string]float64{"reconnects": 0, "availability": 0.96}, 0},

	// allocs: fresh allocs/op <= baseline + 0.5 + 2% of baseline.
	{"allocs", false, false, map[string]float64{"baseline": 10, "fresh": 10.69}, 0},
	{"allocs", false, false, map[string]float64{"baseline": 10, "fresh": 10.71}, 1},
	{"allocs", false, false, map[string]float64{"baseline": 0, "fresh": 0.49}, 0},
	{"allocs", false, false, map[string]float64{"baseline": 0, "fresh": 0.51}, 1},
	{"allocs", true, false, map[string]float64{"baseline": 100, "fresh": 102.49}, 0},
	{"allocs", true, false, map[string]float64{"baseline": 100, "fresh": 102.51}, 1},
	{"allocs", false, true, map[string]float64{"baseline": 100, "fresh": 102.51}, 1},
	{"allocs", true, true, map[string]float64{"baseline": 10, "fresh": 99, "missing": 1}, 0},
}

func TestGateVerdicts(t *testing.T) {
	for _, c := range gateCases {
		fails := gateFails(c.exp, c.quick, c.cost, c.set)
		if len(fails) != c.want {
			t.Errorf("%s quick=%v cost=%v %v: %d violations %q, want %d",
				c.exp, c.quick, c.cost, c.set, len(fails), fails, c.want)
		}
	}
}

// gateFails builds exp's passing report with set applied and returns
// its gate's violations.
func gateFails(exp string, quick, cost bool, set map[string]float64) []string {
	v := func(k string, def float64) float64 {
		if x, ok := set[k]; ok {
			return x
		}
		return def
	}
	n := func(k string, def float64) int64 { return int64(v(k, def)) }
	switch exp {
	case "tenancy":
		rep := &TenancyReport{Quick: quick, Cost: cost, ScalingX: v("scaling_x", 3)}
		if v("points", 2) > 0 {
			rep.Points = []TenancyPoint{
				{TenancyResult: workload.TenancyResult{Shards: 1}, OpsPerSec: 3000, RecallP99Ms: 50},
				{TenancyResult: workload.TenancyResult{Shards: 8}, OpsPerSec: v("ops_per_sec", 9000), RecallP99Ms: v("recall_p99_ms", 100)},
			}
		}
		return rep.gate()
	case "smallops":
		rep := &SmallOpsReport{Quick: quick, Cost: cost}
		if v("modes", 3) > 0 {
			for _, m := range []struct {
				mode string
				x    float64
			}{{"append", 1.5}, {"create", 2.5}, {"mapunmap", 1.2}} {
				rep.Modes = append(rep.Modes, SmallOpsMode{Mode: m.mode, SmallOpsPair: SmallOpsPair{SpeedupX: v(m.mode, m.x)}})
			}
		}
		return rep.gate()
	case "serving":
		rep := &ServingReport{Quick: quick, Cost: cost, Depth: 8,
			ServingPair: ServingPair{SpeedupX: v("speedup_x", 3), PipelinedRPCsPerSec: v("pipelined_rpcs_per_sec", 3000)}}
		if v("pairs", 1) > 0 {
			rep.Pairs = []ServingPair{rep.ServingPair}
		}
		return rep.gate()
	case "netchaos":
		rep := &NetChaosReport{Quick: quick, NetChaosResult: workload.NetChaosResult{
			Ops: n("ops", 1000), Acked: n("acked", 995), AckedLost: n("acked_lost", 0),
			DoubleApplied: n("double_applied", 0), Unexpected: n("unexpected", 0),
			Kills: n("kills", 5), Partitions: n("partitions", 5), Reconnects: n("reconnects", 3)},
			Availability: v("availability", 0.995), P99Us: v("p99_us", 2000)}
		return rep.gate()
	case "allocs":
		base := &DataPathReport{Quick: quick, Cost: cost}
		if v("missing", 0) == 0 {
			base.Results = []DataPathResult{{FS: "arckfs", Workload: "stat", AllocsPerOp: v("baseline", 0)}}
		}
		return CheckAllocRegression(base, []DataPathResult{{FS: "arckfs", Workload: "stat", AllocsPerOp: v("fresh", 0)}})
	}
	panic("unknown experiment " + exp)
}
