// Tracing: explicit-handle spans recorded into a bounded in-memory
// ring buffer, exportable as a Chrome trace_event file so a single 4K
// write can be laid out layer by layer (libfs → index → alloc →
// delegation → nvm) in chrome://tracing or Perfetto.
//
// The tracer is process-global and separate from the metrics Registry:
// spans cross package boundaries (a libfs op span fathers children
// recorded around allocator and delegation calls), so a single switch
// and ring serve the whole stack. Disabled, StartSpan costs one atomic
// load and returns an inert zero Span whose Child/End/Event methods are
// no-ops — no clock read, no allocation.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span (Dur ≥ 0) or instant event (Dur < 0)
// in the trace ring.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Layer  string `json:"layer"` // libfs, index, alloc, delegation, nvm, mmu, controller, verifier
	CPU    int32  `json:"cpu"`
	Start  int64  `json:"start_unix_nano"`
	Dur    int64  `json:"dur_ns"` // -1 for instant events
	Arg    int64  `json:"arg,omitempty"`
	Msg    string `json:"msg,omitempty"`
}

// Instant reports whether the record is an instant event.
func (r SpanRecord) Instant() bool { return r.Dur < 0 }

// ringSlot guards one record: the ring overwrites oldest-first, and the
// per-slot mutex keeps a writer that wrapped around from racing a slow
// writer (or a snapshot copy) on the same slot.
type ringSlot struct {
	mu   sync.Mutex
	rec  SpanRecord
	full bool
}

// DefaultTraceCapacity is the ring size EnableTracing(0) picks.
const DefaultTraceCapacity = 1 << 16

var tracer struct {
	on     atomic.Bool
	ring   atomic.Pointer[[]ringSlot]
	head   atomic.Uint64
	nextID atomic.Uint64
	mu     sync.Mutex // serializes Enable/Disable reconfiguration
}

// EnableTracing arms the tracer with a fresh ring of the given capacity
// (0 = DefaultTraceCapacity). Any previously recorded spans are
// discarded; span IDs keep growing monotonically across re-arms.
func EnableTracing(capacity int) {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	ring := make([]ringSlot, capacity)
	tracer.ring.Store(&ring)
	tracer.head.Store(0)
	tracer.on.Store(true)
}

// DisableTracing stops recording. The ring is retained so a final
// TraceSnapshot still sees the tail of the run.
func DisableTracing() {
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	tracer.on.Store(false)
}

// ResetTracing stops recording and drops the ring, returning the tracer
// to its initial state: TraceSnapshot is empty until the next
// EnableTracing. Tests that arm the process-wide tracer use it as their
// cleanup so a later test (or a -count=N repetition) starts clean.
func ResetTracing() {
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	tracer.on.Store(false)
	tracer.ring.Store(nil)
	tracer.head.Store(0)
}

// TracingOn reports whether spans are being recorded.
func TracingOn() bool { return tracer.on.Load() }

// record appends one record to the ring, overwriting the oldest.
func record(rec SpanRecord) {
	rp := tracer.ring.Load()
	if rp == nil {
		return
	}
	ring := *rp
	idx := tracer.head.Add(1) - 1
	slot := &ring[idx%uint64(len(ring))]
	slot.mu.Lock()
	slot.rec = rec
	slot.full = true
	slot.mu.Unlock()
}

// Span is a live span handle. The zero value (what StartSpan returns
// while tracing is off) is inert: Child returns another inert span, End
// and Event do nothing.
type Span struct {
	id     uint64
	parent uint64
	start  int64
	name   string
	layer  string
	cpu    int32
}

// Active reports whether the span will record on End.
func (s Span) Active() bool { return s.id != 0 }

// StartSpan opens a root span. cpu is the caller's CPU hint (rendered
// as the Chrome trace "thread"); name is the operation, layer the stack
// layer it belongs to.
//
// The disabled path (and the inert-span paths of Child/End/Event below)
// is deliberately a branch plus a zero return, with the recording body
// outlined, so the compiler inlines the check into hot callers and a
// disabled tracer costs one atomic load per op.
func StartSpan(cpu int, name, layer string) Span {
	if !tracer.on.Load() {
		return Span{}
	}
	return startSlow(cpu, name, layer)
}

func startSlow(cpu int, name, layer string) Span {
	return Span{
		id:    tracer.nextID.Add(1),
		start: time.Now().UnixNano(),
		name:  name,
		layer: layer,
		cpu:   int32(cpu),
	}
}

// Child opens a sub-span of s (inert if s is inert or tracing stopped).
func (s Span) Child(name, layer string) Span {
	if s.id == 0 {
		return Span{}
	}
	return s.childSlow(name, layer)
}

func (s Span) childSlow(name, layer string) Span {
	if !tracer.on.Load() {
		return Span{}
	}
	return Span{
		id:     tracer.nextID.Add(1),
		parent: s.id,
		start:  time.Now().UnixNano(),
		name:   name,
		layer:  layer,
		cpu:    s.cpu,
	}
}

// End completes the span and records it.
func (s Span) End() {
	if s.id == 0 {
		return
	}
	s.endSlow()
}

func (s Span) endSlow() {
	if !tracer.on.Load() {
		return
	}
	record(SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name, Layer: s.layer, CPU: s.cpu,
		Start: s.start, Dur: time.Now().UnixNano() - s.start,
	})
}

// Event records an instant event as a child of the span.
func (s Span) Event(name string, arg int64, msg string) {
	if s.id == 0 {
		return
	}
	s.eventSlow(name, arg, msg)
}

func (s Span) eventSlow(name string, arg int64, msg string) {
	if !tracer.on.Load() {
		return
	}
	record(SpanRecord{
		ID: tracer.nextID.Add(1), Parent: s.id, Name: name, Layer: s.layer, CPU: s.cpu,
		Start: time.Now().UnixNano(), Dur: -1, Arg: arg, Msg: msg,
	})
}

// Emit records a free-standing instant event (no parent span): the
// debug-plumbing replacement for ad-hoc println hooks. arg carries a
// filterable number (a page, an ino); msg the human-readable detail.
func Emit(cpu int, name, layer string, arg int64, msg string) {
	if !tracer.on.Load() {
		return
	}
	record(SpanRecord{
		ID: tracer.nextID.Add(1), Name: name, Layer: layer, CPU: int32(cpu),
		Start: time.Now().UnixNano(), Dur: -1, Arg: arg, Msg: msg,
	})
}

// TraceSnapshot copies the ring's current records in start-time order.
// It runs against concurrent recorders.
func TraceSnapshot() []SpanRecord {
	rp := tracer.ring.Load()
	if rp == nil {
		return nil
	}
	ring := *rp
	out := make([]SpanRecord, 0, len(ring))
	for i := range ring {
		slot := &ring[i]
		slot.mu.Lock()
		if slot.full {
			out = append(out, slot.rec)
		}
		slot.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one trace_event object (the "X" complete-event /
// "i" instant-event subset the Chrome and Perfetto loaders understand).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	Pid   int            `json:"pid"`
	Tid   int32          `json:"tid"`
	Ts    float64        `json:"ts"` // µs
	Dur   float64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes records as a Chrome trace_event JSON array,
// one event per line (JSONL-style: strip the "[", trailing commas and
// closing "]" to consume it line-wise; load the file as-is in
// chrome://tracing or https://ui.perfetto.dev). Timestamps are
// normalized to the earliest record.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	var epoch int64
	for i, r := range recs {
		if i == 0 || r.Start < epoch {
			epoch = r.Start
		}
	}
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Name,
			Cat:  r.Layer,
			Ph:   "X",
			Pid:  1,
			Tid:  r.CPU,
			Ts:   float64(r.Start-epoch) / 1e3,
			Dur:  float64(r.Dur) / 1e3,
			Args: map[string]any{"id": r.ID},
		}
		if r.Parent != 0 {
			ev.Args["parent"] = r.Parent
		}
		if r.Msg != "" {
			ev.Args["msg"] = r.Msg
		}
		if r.Arg != 0 {
			ev.Args["arg"] = r.Arg
		}
		if r.Instant() {
			ev.Ph, ev.Dur, ev.Scope = "i", 0, "t"
		}
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s,\n", line); err != nil {
			return err
		}
	}
	// A sentinel metadata event closes the array so the file is strict
	// JSON while staying line-oriented.
	_, err := io.WriteString(w, `{"name":"trace_end","ph":"i","s":"g","pid":1,"tid":0,"ts":0}]`+"\n")
	return err
}

// SpanTree is the parent→children index of a trace snapshot; the golden
// span-tree tests and trio-top's layer attribution build on it.
type SpanTree struct {
	Roots    []SpanRecord
	Children map[uint64][]SpanRecord
}

// BuildSpanTree indexes records by parent. Records whose parent is
// absent from the snapshot (evicted from the ring) count as roots.
func BuildSpanTree(recs []SpanRecord) SpanTree {
	t := SpanTree{Children: make(map[uint64][]SpanRecord)}
	present := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		present[r.ID] = true
	}
	for _, r := range recs {
		if r.Parent != 0 && present[r.Parent] {
			t.Children[r.Parent] = append(t.Children[r.Parent], r)
		} else {
			t.Roots = append(t.Roots, r)
		}
	}
	return t
}
