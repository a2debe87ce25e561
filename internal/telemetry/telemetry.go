// Package telemetry is the cross-layer observability subsystem of the
// Trio stack: metrics (lock-light sharded counters and fixed-bucket
// histograms behind a Registry), tracing (cheap explicit-handle spans
// recorded into a bounded in-memory ring, exportable as a Chrome
// trace_event file), and exposition helpers (text tables, JSON, an
// http.Handler). It exists to answer the two questions the paper's
// evaluation (§6) keeps asking of userspace NVM file systems: "where
// did this operation spend its time" (indexing, allocation, delegation,
// persistence — the SplitFS/KucoFS-style layer attribution) and "what
// did the trusted side actually do" (verifier reports, reaps, repairs).
//
// Everything is compiled in and nil-safe, but near-free when disabled:
// a counter add or span start against a disabled registry/tracer costs
// roughly one atomic load and zero allocations (proven by the package
// benchmarks and guarded by the check.sh telemetry-overhead smoke).
// Hot-path packages (nvm, mmu, alloc, delegation, libfs) register their
// instruments against the package-level Default registry, which starts
// disabled; trusted bookkeeping that tests assert on (controller.Stats)
// uses its own always-enabled registry — those counters were plain
// atomics before and remain just as cheap.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// nShards is the counter shard count (power of two). Call sites pass
// their CPU hint / NUMA node / page number as the shard key; the Trio
// simulator models CPUs as explicit hints, so this is its per-CPU
// sharding.
const nShards = 8

// paddedInt64 keeps each shard on its own cacheline.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Registry names and owns a set of instruments. Instruments record only
// while their registry is enabled; the check is one atomic load.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters []*Counter
	hists    []*Histogram
	byName   map[string]any
}

// NewRegistry creates an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// def is the process-wide default registry the hot-path packages
// register into. Disabled until an operator (trio-bench -telemetry,
// trio-top, a test) enables it.
var def = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return def }

// On reports whether the default registry is enabled — the one-load
// gate hot paths consult before touching multiple instruments.
func On() bool { return def.enabled.Load() }

// Enable turns recording on.
func (r *Registry) Enable() { r.enabled.Store(true) }

// Disable turns recording off. Instrument values are retained.
func (r *Registry) Disable() { r.enabled.Store(false) }

// Counter is a monotonically growing (well-behaved callers only add
// non-negative deltas) sharded counter. The zero-value pointer is safe:
// every method nil-checks.
type Counter struct {
	reg      *Registry
	name     string
	perShard bool
	shards   [nShards]paddedInt64
}

// NewCounter registers (or returns the existing) counter under name.
func (r *Registry) NewCounter(name string) *Counter {
	return r.newCounter(name, false)
}

// NewCounterPerShard is NewCounter, but snapshots also expose the
// per-shard values — used where the shard key is meaningful on its own
// (e.g. cost-model charges keyed by NUMA node).
func (r *Registry) NewCounterPerShard(name string) *Counter {
	return r.newCounter(name, true)
}

func (r *Registry) newCounter(name string, perShard bool) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		if c, ok := got.(*Counter); ok {
			return c
		}
		panic(fmt.Sprintf("telemetry: %q already registered as a different instrument kind", name))
	}
	c := &Counter{reg: r, name: name, perShard: perShard}
	r.counters = append(r.counters, c)
	r.byName[name] = c
	return c
}

// Name reports the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add adds delta on shard 0. Use AddOn from call sites that carry a
// CPU/node hint so concurrent writers spread across cachelines.
func (c *Counter) Add(delta int64) { c.AddOn(0, delta) }

// Inc adds one on shard 0.
func (c *Counter) Inc() { c.AddOn(0, 1) }

// IncOn adds one on the shard picked by hint.
func (c *Counter) IncOn(hint int) { c.AddOn(hint, 1) }

// AddOn adds delta on the shard picked by hint (any int: a CPU hint, a
// NUMA node, a page number — it is masked down).
func (c *Counter) AddOn(hint int, delta int64) {
	if c == nil || !c.reg.enabled.Load() {
		return
	}
	c.shards[hint&(nShards-1)].v.Add(delta)
}

// Load sums the shards. It runs against concurrent writers; each shard
// read is atomic.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// ShardValues reports the per-shard values (index = hint & (shards-1)).
func (c *Counter) ShardValues() []int64 {
	if c == nil {
		return nil
	}
	out := make([]int64, nShards)
	for i := range c.shards {
		out[i] = c.shards[i].v.Load()
	}
	return out
}

// HistBuckets is the fixed bucket count of every histogram: bucket i
// counts observations v with 2^(i-1) < v ≤ 2^i (bucket 0 takes v ≤ 1).
// 40 power-of-two buckets cover 1 ns .. ~9 min latencies and 1 B .. ~½ TB
// sizes with one scheme.
const HistBuckets = 40

// Histogram is a fixed-bucket log2 histogram for latencies (ns) and
// sizes (bytes). Observations are lock-free atomic adds.
type Histogram struct {
	reg     *Registry
	name    string
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram registers (or returns the existing) histogram under name.
func (r *Registry) NewHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		if h, ok := got.(*Histogram); ok {
			return h
		}
		panic(fmt.Sprintf("telemetry: %q already registered as a different instrument kind", name))
	}
	h := &Histogram{reg: r, name: name}
	r.hists = append(r.hists, h)
	r.byName[name] = h
	return h
}

// Name reports the registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// bucketOf maps an observation to its bucket: ceil(log2(v)), clamped.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2 v) for v ≥ 2
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records one value (a duration in ns, a size in bytes).
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.reg.enabled.Load() {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed nanoseconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || !h.reg.enabled.Load() {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// clockBase carries a monotonic reading, so the time since it is one
// clock read; time.Now reads the wall clock too, at about twice the cost.
var clockBase = time.Now()

// Now is the process's monotonic clock in nanoseconds, always positive (a
// zero field can mean "unset"); only differences of Now values mean
// anything.
func Now() int64 { return int64(time.Since(clockBase)) + 1 }

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

// CounterSnap is a point-in-time counter value.
type CounterSnap struct {
	Name   string  `json:"name"`
	Value  int64   `json:"value"`
	Shards []int64 `json:"shards,omitempty"`
}

// HistSnap is a point-in-time histogram state.
type HistSnap struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets"` // len HistBuckets; bucket i upper bound is 2^i
}

// Quantile reports an upper bound on the q-quantile observation
// (q in [0,1]), at bucket (power of two) resolution.
func (h HistSnap) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen >= rank {
			return int64(1) << uint(i)
		}
	}
	return int64(1) << uint(HistBuckets-1)
}

// Mean reports the average observation.
func (h HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snap is a stable snapshot of one registry, sorted by name; it is the
// struct form behind the JSON exposition.
type Snap struct {
	TakenUnixNano int64         `json:"taken_unix_nano"`
	Counters      []CounterSnap `json:"counters"`
	Histograms    []HistSnap    `json:"histograms,omitempty"`
}

// Snapshot copies every instrument's current value. Each instrument is
// read with atomic loads; the snapshot is taken without stopping
// writers, so it is a consistent point-in-time read of each counter
// (never a torn half-written value, which field-by-field struct copies
// of plain ints could produce).
func (r *Registry) Snapshot() Snap {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()

	s := Snap{TakenUnixNano: time.Now().UnixNano()}
	for _, c := range counters {
		cs := CounterSnap{Name: c.name, Value: c.Load()}
		if c.perShard {
			cs.Shards = c.ShardValues()
		}
		s.Counters = append(s.Counters, cs)
	}
	for _, h := range hists {
		hs := HistSnap{Name: h.name, Buckets: make([]int64, HistBuckets)}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		hs.Count = h.count.Load()
		hs.Sum = h.sum.Load()
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Get reports the named counter's value in the snapshot (0 if absent).
func (s Snap) Get(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Hist reports the named histogram's snapshot (zero value if absent).
func (s Snap) Hist(name string) HistSnap {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return HistSnap{}
}

// Sub returns the per-instrument delta s - prev, for measuring one
// experiment window. Instruments absent from prev pass through.
func (s Snap) Sub(prev Snap) Snap {
	out := Snap{TakenUnixNano: s.TakenUnixNano}
	pc := make(map[string]CounterSnap, len(prev.Counters))
	for _, c := range prev.Counters {
		pc[c.Name] = c
	}
	for _, c := range s.Counters {
		d := c
		if p, ok := pc[c.Name]; ok {
			d.Value -= p.Value
			if len(d.Shards) == len(p.Shards) {
				d.Shards = append([]int64(nil), c.Shards...)
				for i := range d.Shards {
					d.Shards[i] -= p.Shards[i]
				}
			}
		}
		out.Counters = append(out.Counters, d)
	}
	ph := make(map[string]HistSnap, len(prev.Histograms))
	for _, h := range prev.Histograms {
		ph[h.Name] = h
	}
	for _, h := range s.Histograms {
		d := HistSnap{Name: h.Name, Count: h.Count, Sum: h.Sum, Buckets: append([]int64(nil), h.Buckets...)}
		if p, ok := ph[h.Name]; ok && len(p.Buckets) == len(d.Buckets) {
			d.Count -= p.Count
			d.Sum -= p.Sum
			for i := range d.Buckets {
				d.Buckets[i] -= p.Buckets[i]
			}
		}
		out.Histograms = append(out.Histograms, d)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snap) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable renders the snapshot as an aligned text table, skipping
// zero-valued instruments (an idle subsystem should not spam the view).
func (s Snap) WriteTable(w io.Writer) {
	width := 0
	for _, c := range s.Counters {
		if c.Value != 0 && len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, h := range s.Histograms {
		if h.Count != 0 && len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, c := range s.Counters {
		if c.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-*s %12d", width, c.Name, c.Value)
		if len(c.Shards) > 0 {
			fmt.Fprintf(w, "   per-shard %v", c.Shards)
		}
		fmt.Fprintln(w)
	}
	for _, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-*s %12d   mean %.0f  p50 ≤%d  p90 ≤%d  p99 ≤%d\n",
			width, h.Name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	}
}
