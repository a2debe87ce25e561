package main

import (
	"sort"
	"time"

	"trio/internal/telemetry"
)

// The traced run records the benchmark's own spans — one per op, one
// around every call into fsapi, serve.Session and controller.Session —
// in memory, and nests the spans the program already emits (libfs.*
// and their index/alloc/delegation/nvm children, which are roots as far
// as the program knows) under the call span whose interval contains
// them. Self time per layer then falls out of telemetry.BuildSpanTree.

// harnessIDBase keeps the benchmark's span ids clear of the ids the
// telemetry tracer hands out (a counter starting at 1).
const harnessIDBase = uint64(1) << 40

// layerBench is the layer of the per-op span: what is left of it after
// the calls it made is the harness's own cost.
const layerBench = "bench"

// laneTrace records one closed-loop lane's spans. A nil *laneTrace is
// the untraced run: begin and end are no-ops, so workloads share one
// op implementation between the timed and the traced run.
type laneTrace struct {
	tid   int32
	idSeq uint64
	op    uint64 // id of the open op span, parent of the call spans
	opIdx int64
	recs  []telemetry.SpanRecord
}

func newLaneTrace(lane, lanes, capacity int) *laneTrace {
	tid := int32(lane)
	if lanes > 1 {
		// Lanes of a multi-lane workload run beside the server's worker
		// goroutines, whose spans carry CPU hints 0..n: keep the lanes on
		// rows of their own in the trace viewer.
		tid = int32(100 + lane)
	}
	return &laneTrace{
		tid:   tid,
		idSeq: harnessIDBase + uint64(lane)<<32,
		recs:  make([]telemetry.SpanRecord, 0, capacity),
	}
}

// beginOp opens the span of op i; every call span until endOp is its
// child.
func (t *laneTrace) beginOp(i int) int {
	t.opIdx = int64(i)
	s := t.open("op", layerBench, 0)
	t.op = t.recs[s].ID
	return s
}

func (t *laneTrace) endOp(s int) {
	t.end(s)
	t.op = 0
}

// begin opens a call span named after the function called, in the layer
// that function belongs to.
func (t *laneTrace) begin(name, layer string) int {
	if t == nil {
		return 0
	}
	return t.open(name, layer, t.op)
}

func (t *laneTrace) open(name, layer string, parent uint64) int {
	t.idSeq++
	t.recs = append(t.recs, telemetry.SpanRecord{
		ID: t.idSeq, Parent: parent, Name: name, Layer: layer, CPU: t.tid,
		Start: time.Now().UnixNano(), Arg: t.opIdx,
	})
	return len(t.recs) - 1
}

func (t *laneTrace) end(s int) {
	if t == nil {
		return
	}
	r := &t.recs[s]
	r.Dur = time.Now().UnixNano() - r.Start
}

// mergeSpans joins the lanes' spans with the program's and parents every
// program root under the innermost harness call span that contains it.
// With two lanes in flight a server-side span can sit inside a call span
// of each lane; the later-starting one wins. Sums per layer do not
// depend on that choice.
func mergeSpans(lanes []*laneTrace, program []telemetry.SpanRecord) []telemetry.SpanRecord {
	var calls [][]telemetry.SpanRecord // per lane, call spans in start order
	n := len(program)
	for _, t := range lanes {
		var c []telemetry.SpanRecord
		for _, r := range t.recs {
			if r.Layer != layerBench {
				c = append(c, r)
			}
		}
		calls = append(calls, c)
		n += len(t.recs)
	}
	out := make([]telemetry.SpanRecord, 0, n)
	for _, t := range lanes {
		out = append(out, t.recs...)
	}
	for _, r := range program {
		if r.Parent == 0 {
			end := r.Start + max(r.Dur, 0)
			var best *telemetry.SpanRecord
			for _, c := range calls {
				// Last call span of this lane starting at or before r.
				i := sort.Search(len(c), func(i int) bool { return c[i].Start > r.Start }) - 1
				if i >= 0 && c[i].Start+c[i].Dur >= end && (best == nil || c[i].Start > best.Start) {
					best = &c[i]
				}
			}
			if best != nil {
				r.Parent = best.ID
			}
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimeByLayer sums, per layer, each span's duration minus the part
// its children cover (clamped at zero: children of a call span that ran
// on other goroutines can overlap each other).
func selfTimeByLayer(recs []telemetry.SpanRecord) map[string]int64 {
	tree := telemetry.BuildSpanTree(recs)
	self := make(map[string]int64)
	for _, r := range recs {
		if r.Instant() {
			continue
		}
		d := r.Dur
		for _, c := range tree.Children[r.ID] {
			if !c.Instant() {
				d -= c.Dur
			}
		}
		self[r.Layer] += max(d, 0)
	}
	return self
}
