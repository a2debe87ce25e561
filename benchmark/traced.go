package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"trio/internal/telemetry"
)

// spansPerOpBound sizes the telemetry ring for the traced run: no op of
// any workload makes the program emit more spans than this.
const spansPerOpBound = 16

// traced is what the traced run of one workload yields.
type traced struct {
	untracedOpsPerS float64
	tracedOpsPerS   float64
	metrics         map[string]float64
	spans           []telemetry.SpanRecord
}

// directReplayer is implemented by workloads whose ops cross a layer the
// program draws no span around (the wire): replaying the same ops
// straight on the mount gives that layer's time by subtraction.
type directReplayer interface {
	replayDirect(lane, from, n int) (time.Duration, error)
}

// runTraced runs one episode of a fixed op count twice on one mount —
// untraced, then with the default registry and the span tracer on and
// the benchmark's own spans around every call — and turns counter
// deltas and span self times into per-op metrics. traceOut, when not
// empty, receives the Chrome trace.
func runTraced(sp spec, seed int64, nOps int, traceOut string) (traced, error) {
	var res traced
	w := sp.build(seed)
	dev, _, err := newDevice(sp.devPages)
	if err != nil {
		return res, err
	}
	defer func() {
		w.close()
		runtime.GC()
	}()
	if err := w.setup(dev); err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}

	perLane := nOps / sp.lanes
	nOps = perLane * sp.lanes
	var failed error
	var failMu sync.Mutex
	// pass runs ops [from, from+perLane) on every lane and returns op/s.
	pass := func(from int, lanes []*laneTrace) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for l := 0; l < sp.lanes; l++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := from; i < from+perLane; i++ {
					var err error
					if lanes == nil {
						err = w.op(l, i, nil)
					} else {
						s := lanes[l].beginOp(i)
						err = w.op(l, i, lanes[l])
						lanes[l].endOp(s)
					}
					if err != nil {
						failMu.Lock()
						if failed == nil {
							failed = fmt.Errorf("lane %d op %d: %w", l, i, err)
						}
						failMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		return float64(nOps) / time.Since(start).Seconds()
	}

	res.untracedOpsPerS = pass(0, nil)

	lanes := make([]*laneTrace, sp.lanes)
	for l := range lanes {
		lanes[l] = newLaneTrace(l, sp.lanes, perLane*spansPerOpBound)
	}
	ctlReg := w.controller().Stats().Registry()
	telemetry.Default().Enable()
	telemetry.EnableTracing(nOps * spansPerOpBound)
	def0, ctl0 := telemetry.Default().Snapshot(), ctlReg.Snapshot()
	res.tracedOpsPerS = pass(perLane, lanes)
	def1, ctl1 := telemetry.Default().Snapshot(), ctlReg.Snapshot()
	telemetry.DisableTracing()
	telemetry.Default().Disable()
	program := telemetry.TraceSnapshot()

	res.spans = mergeSpans(lanes, program)
	self := selfTimeByLayer(res.spans)
	def, ctl := def1.Sub(def0), ctl1.Sub(ctl0)
	ops := float64(nOps)
	perOp := func(s telemetry.Snap, name string) float64 { return float64(s.Get(name)) / ops }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m := map[string]float64{
		"nvm.reads_per_op":       perOp(def, "nvm.reads"),
		"nvm.writes_per_op":      perOp(def, "nvm.writes"),
		"nvm.write_bytes_per_op": perOp(def, "nvm.write_bytes"),
		"nvm.persists_per_op":    perOp(def, "nvm.persists"),
		"nvm.fences_per_op":      perOp(def, "nvm.fences"),
		"mmu.checks_per_op":      perOp(def, "mmu.checks"),
		"mmu.faults_per_op":      perOp(def, "mmu.faults"),
		"mmu.shootdowns_per_op":  perOp(def, "mmu.shootdowns"),

		"alloc.pages_out_per_op":   perOp(def, "alloc.pages_out"),
		"alloc.mag_refills_per_op": perOp(def, "alloc.mag_refills"),
		"alloc.mag_hit_ratio": ratio(def.Get("alloc.mag_hits"),
			def.Get("alloc.mag_hits")+def.Get("alloc.mag_refills")+def.Get("alloc.tree_carves")),
		"delegation.delegated_ratio": ratio(def.Get("delegation.batches_delegated"),
			def.Get("delegation.batches_delegated")+def.Get("delegation.batches_inline")),
		"verifier.reports_per_op": perOp(def, "verifier.reports"),

		"serve.reply_frames_per_batch": ratio(def.Get("serve.reply_frames"), def.Get("serve.reply_batches")),
		"serve.drc_hits_per_op":        perOp(def, "serve.drc_hits"),
		"serve.shed_per_op":            perOp(def, "serve.shed"),

		"controller.maps_per_op":        perOp(ctl, "controller.map_count"),
		"controller.unmaps_per_op":      perOp(ctl, "controller.unmap_count"),
		"controller.map_ns_per_op":      perOp(ctl, "controller.map_ns"),
		"controller.unmap_ns_per_op":    perOp(ctl, "controller.unmap_ns"),
		"controller.verify_ns_per_op":   perOp(ctl, "controller.verify_ns"),
		"controller.checkpoints_per_op": perOp(ctl, "controller.checkpoints"),
		"controller.lease_recalls":      float64(ctl1.Get("controller.lease_recalls")),
		"controller.lease_expiries":     float64(ctl1.Get("controller.lease_expiries")),
	}
	// Page and inode grants are counted per controller shard.
	var grants int64
	for _, c := range ctl.Counters {
		if strings.HasPrefix(c.Name, "controller.shard") && strings.HasSuffix(c.Name, ".allocs") {
			grants += c.Value
		}
	}
	m["controller.alloc_calls_per_op"] = float64(grants) / ops
	for _, layer := range []string{"nvm", "index", "alloc", "delegation", "libfs", "controller", layerBench} {
		m[layer+".self_ns_per_op"] = float64(self[layer]) / ops
	}
	res.metrics = m

	// The program draws no span around the serving tier, so its time is
	// what the client saw minus the same ops replayed on the mount.
	m["serve.self_us_per_op"] = 0
	if dr, ok := w.(directReplayer); ok {
		var rpc int64
		for _, r := range res.spans {
			if r.Layer == "serve" {
				rpc += r.Dur
			}
		}
		var direct time.Duration
		for l := 0; l < sp.lanes; l++ {
			d, err := dr.replayDirect(l, perLane, perLane)
			if err != nil && failed == nil {
				failed = fmt.Errorf("direct replay: %w", err)
			}
			direct += d
		}
		m["serve.self_us_per_op"] = float64(rpc-int64(direct)) / ops / 1e3
	}

	if err := w.verify(); err != nil && failed == nil {
		failed = fmt.Errorf("oracle: %w", err)
	}
	if traceOut != "" && failed == nil {
		failed = writeChromeTrace(traceOut, res.spans)
	}
	return res, failed
}

func writeChromeTrace(path string, recs []telemetry.SpanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := telemetry.WriteChromeTrace(bw, recs); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
