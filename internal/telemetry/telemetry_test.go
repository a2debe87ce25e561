package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("x.count")
	c.Add(5) // disabled: dropped
	if got := c.Load(); got != 0 {
		t.Fatalf("disabled counter recorded: %d", got)
	}
	r.Enable()
	c.Add(2)
	c.IncOn(3)
	c.AddOn(11, 4) // any hint; masked
	if got := c.Load(); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	r.Disable()
	c.Inc()
	if got := c.Load(); got != 7 {
		t.Fatalf("disabled counter recorded: %d", got)
	}
	// Re-registering the same name returns the same instrument.
	if r.NewCounter("x.count") != c {
		t.Fatal("duplicate registration returned a new counter")
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Add(1)
	c.Inc()
	c.IncOn(2)
	if c.Load() != 0 || c.Name() != "" || c.ShardValues() != nil {
		t.Fatal("nil counter misbehaved")
	}
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Name() != "" {
		t.Fatal("nil histogram misbehaved")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	h := r.NewHistogram("x.lat")
	for _, v := range []int64{0, 1, 2, 3, 4, 1024, 1 << 39, 1 << 45} {
		h.Observe(v)
	}
	s := r.Snapshot().Hist("x.lat")
	if s.Count != 8 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 2 { // 0, 1
		t.Fatalf("bucket0 = %d", s.Buckets[0])
	}
	if s.Buckets[1] != 1 || s.Buckets[2] != 2 { // 2 | 3,4
		t.Fatalf("bucket1=%d bucket2=%d", s.Buckets[1], s.Buckets[2])
	}
	if s.Buckets[10] != 1 { // 1024
		t.Fatalf("bucket10 = %d", s.Buckets[10])
	}
	if s.Buckets[HistBuckets-1] != 2 { // clamped giants
		t.Fatalf("last bucket = %d", s.Buckets[HistBuckets-1])
	}
	if q := s.Quantile(0.5); q != 4 {
		t.Fatalf("p50 = %d, want 4", q)
	}
	if q := s.Quantile(1.0); q != 1<<(HistBuckets-1) {
		t.Fatalf("p100 = %d", q)
	}
}

func TestSnapshotSubAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	c := r.NewCounterPerShard("x.pershard")
	h := r.NewHistogram("x.lat")
	c.AddOn(0, 10)
	c.AddOn(1, 5)
	h.Observe(100)
	s0 := r.Snapshot()
	c.AddOn(1, 7)
	h.Observe(200)
	d := r.Snapshot().Sub(s0)
	if got := d.Get("x.pershard"); got != 7 {
		t.Fatalf("delta = %d, want 7", got)
	}
	cs := d.Counters[0]
	if len(cs.Shards) != nShards || cs.Shards[1] != 7 || cs.Shards[0] != 0 {
		t.Fatalf("per-shard delta = %v", cs.Shards)
	}
	if hd := d.Hist("x.lat"); hd.Count != 1 || hd.Sum != 200 {
		t.Fatalf("hist delta = %+v", hd)
	}

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snap
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Get("x.pershard") != 22 {
		t.Fatalf("round-tripped value = %d", back.Get("x.pershard"))
	}

	buf.Reset()
	r.Snapshot().WriteTable(&buf)
	if !strings.Contains(buf.String(), "x.pershard") {
		t.Fatalf("table missing counter: %q", buf.String())
	}
}

func TestSpanLifecycle(t *testing.T) {
	EnableTracing(64)
	defer ResetTracing()

	root := StartSpan(3, "op", "libfs")
	if !root.Active() {
		t.Fatal("span inactive while tracing on")
	}
	child := root.Child("alloc.pages", "alloc")
	child.End()
	root.Event("note", 42, "hello")
	root.End()
	Emit(0, "page", "controller", 7, "bind")

	recs := TraceSnapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	tree := BuildSpanTree(recs)
	var rootRec *SpanRecord
	for i := range tree.Roots {
		if tree.Roots[i].Name == "op" {
			rootRec = &tree.Roots[i]
		}
	}
	if rootRec == nil {
		t.Fatalf("root span missing: %+v", recs)
	}
	kids := tree.Children[rootRec.ID]
	if len(kids) != 2 {
		t.Fatalf("children = %+v", kids)
	}
	names := map[string]bool{}
	for _, k := range kids {
		names[k.Name] = true
	}
	if !names["alloc.pages"] || !names["note"] {
		t.Fatalf("child names = %v", names)
	}
	if rootRec.CPU != 3 {
		t.Fatalf("cpu = %d", rootRec.CPU)
	}
}

func TestDisabledSpansAreInert(t *testing.T) {
	DisableTracing()
	sp := StartSpan(0, "op", "libfs")
	if sp.Active() {
		t.Fatal("span active while tracing off")
	}
	sp.Child("c", "l").End()
	sp.Event("e", 0, "")
	sp.End()
	Emit(0, "e", "l", 0, "")
}

// DisableTracing keeps the ring for a final snapshot; ResetTracing drops
// it, so what one test recorded cannot leak into the next.
func TestDisableKeepsRingResetDropsIt(t *testing.T) {
	EnableTracing(8)
	defer ResetTracing()
	Emit(0, "page", "controller", 7, "bind")
	DisableTracing()
	if recs := TraceSnapshot(); len(recs) != 1 {
		t.Fatalf("after DisableTracing: %d records, want the 1 recorded", len(recs))
	}
	ResetTracing()
	if TracingOn() {
		t.Fatal("tracing still on after ResetTracing")
	}
	if recs := TraceSnapshot(); len(recs) != 0 {
		t.Fatalf("after ResetTracing: %v, want none", recs)
	}
	Emit(0, "page", "controller", 7, "late") // disarmed: dropped
	EnableTracing(8)
	if recs := TraceSnapshot(); len(recs) != 0 {
		t.Fatalf("re-armed ring holds %v, want none", recs)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	EnableTracing(16)
	defer ResetTracing()
	sp := StartSpan(1, "op", "libfs")
	sp.Child("persist", "nvm").End()
	sp.Event("marker", 9, "m")
	sp.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, TraceSnapshot()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 4 { // 3 records + sentinel
		t.Fatalf("got %d events", len(events))
	}
	// Line-oriented: every record is one line.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // "[", 3 records, sentinel+"]"
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
}

func TestRingOverwrite(t *testing.T) {
	EnableTracing(8)
	defer ResetTracing()
	for i := 0; i < 100; i++ {
		StartSpan(0, "op", "libfs").End()
	}
	recs := TraceSnapshot()
	if len(recs) != 8 {
		t.Fatalf("ring kept %d records, want 8", len(recs))
	}
}

// TestConcurrentRecording hammers counters, histograms, spans and
// snapshots from many goroutines; run under -race this is the
// subsystem's race-cleanliness assertion.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	c := r.NewCounter("x.count")
	h := r.NewHistogram("x.lat")
	EnableTracing(256) // small ring: force wrap-around collisions
	defer ResetTracing()

	const goroutines = 16
	const per = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.IncOn(g)
				h.Observe(int64(i))
				sp := StartSpan(g, "op", "libfs")
				sp.Child("child", "alloc").End()
				sp.End()
				if i%64 == 0 {
					_ = r.Snapshot()
					_ = TraceSnapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*per {
		t.Fatalf("lost counter updates: %d != %d", got, goroutines*per)
	}
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("lost observations: %d != %d", got, goroutines*per)
	}
	if got := len(TraceSnapshot()); got != 256 {
		t.Fatalf("ring has %d records, want full 256", got)
	}
}
