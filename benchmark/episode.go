package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"trio/internal/controller"
	"trio/internal/nvm"
)

const (
	// episodes per workload and invocation; a workload's value is the
	// median over them.
	episodes = 4
	// sliceLen is the unit in which an episode's throughput is sampled.
	sliceLen = 125 * time.Millisecond
	// warmSlices run before the timed slices of every episode and are
	// discarded: caches fill, magazines and pools reach steady state.
	warmSlices = 1
)

// workload is one of the benchmark's four op mixes. An instance lives
// for one episode: it is built from the seed (generating its op stream
// before any clock starts), set up on a fresh device, driven op by op,
// checked against its oracle and closed.
type workload interface {
	// setup mounts the program on dev, populates it and reads the
	// population back against the oracle. It is what setup_s times.
	setup(dev *nvm.Device) error
	// op executes op i of the lane's pre-generated stream. A non-nil
	// error is a failed op. tr is nil except in the traced run.
	op(lane, i int, tr *laneTrace) error
	// verify compares the program's final state with the oracle.
	verify() error
	// controller exposes the always-on Stats registry of the mount.
	controller() *controller.Controller
	close()
}

// spec describes a workload to the engine.
type spec struct {
	name string
	why  string
	// devPages sizes the single-node device of one episode.
	devPages int
	// lanes is the number of closed-loop goroutines issuing ops.
	lanes int
	// timeEvery times one op in timeEvery (the others only count).
	timeEvery int
	// traceOps is the fixed op count of the traced run.
	traceOps int
	// smokeOps is traceOps for -smoke.
	smokeOps int
	build    func(seed int64) workload
}

var specs = []spec{dataSmallSpec, metaChurnSpec, shareHandoverSpec, wireMixedSpec}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// episodeSeed derives the op-stream seed of one episode from -seed, so
// the four episodes of a run replay different (but reproducible) streams.
func episodeSeed(seed int64, ep int) int64 { return seed*1000003 + int64(ep) }

// newDevice allocates an episode's device and touches every page, so
// that whether the Go runtime handed out fresh or recycled memory shows
// in device_alloc_s and not in setup_s or in the first timed slices.
func newDevice(pages int) (*nvm.Device, float64, error) {
	start := time.Now()
	dev, err := nvm.NewDevice(nvm.Config{Nodes: 1, PagesPerNode: pages})
	if err != nil {
		return nil, 0, err
	}
	for p := nvm.PageID(0); p < dev.NumPages(); p++ {
		dev.Page(p)[0] = 0
	}
	return dev, time.Since(start).Seconds(), nil
}

// sliceRec is what one lane did in one slice.
type sliceRec struct {
	ops    int
	ns     int64
	lo, hi int // its latency samples are samples[lo:hi]
}

// laneRun is one lane's record of an episode's timed phase.
type laneRun struct {
	slices    []sliceRec
	samples   []uint32 // ns per timed op
	attempted int
	failed    int
	firstErr  error
	next      int // next op index of the lane's stream
}

func (lr *laneRun) do(w workload, lane int) {
	lr.attempted++
	if err := w.op(lane, lr.next, nil); err != nil {
		lr.failed++
		if lr.firstErr == nil {
			lr.firstErr = fmt.Errorf("op %d: %w", lr.next, err)
		}
	}
	lr.next++
}

// run drives the lane's closed loop through nSlices slices whose
// deadlines are multiples of sliceLen after base. A slice ends
// with the first timed op that completes past its deadline and is
// charged the time since the previous slice ended, so every op and
// every nanosecond lands in exactly one slice.
func (lr *laneRun) run(w workload, lane int, base time.Time, nSlices, timeEvery int) {
	prevEnd := int64(time.Since(base))
	for s := 0; s < nSlices; s++ {
		deadline := int64(s+1) * int64(sliceLen)
		rec := sliceRec{lo: len(lr.samples)}
		for {
			for k := 1; k < timeEvery; k++ {
				lr.do(w, lane)
			}
			t0 := int64(time.Since(base))
			lr.do(w, lane)
			t1 := int64(time.Since(base))
			lr.samples = append(lr.samples, uint32(min(t1-t0, 1<<32-1)))
			rec.ops += timeEvery
			if t1 >= deadline {
				rec.ns = t1 - prevEnd
				prevEnd = t1
				break
			}
		}
		rec.hi = len(lr.samples)
		lr.slices = append(lr.slices, rec)
	}
}

// episode is the outcome of one episode of one workload.
type episode struct {
	setupS    float64
	devAllocS float64

	opsPerS float64 // median throughput of the quiet-quarter slices
	p50us   float64 // over the latencies sampled in those slices
	p90us   float64
	p99us   float64

	allOpsPerS float64 // median throughput of all slices
	sliceCV    float64
	quietGap   float64 // opsPerS / allOpsPerS

	allocsPerOp     float64
	allocBytesPerOp float64
	gcPerS          float64

	hostCopy float64 // reference kernels, see host.go
	hostALU  float64

	attempted int
	failed    int
	err       error // first failed op or oracle mismatch
}

// runEpisode builds one fresh instance of the workload, times its
// set-up, runs the warm-up and nSlices timed slices, and checks the
// oracle.
func runEpisode(sp spec, seed int64, nSlices int) (ep episode) {
	w := sp.build(seed)
	dev, allocS, err := newDevice(sp.devPages)
	if err != nil {
		ep.err = err
		return ep
	}
	ep.devAllocS = allocS
	defer func() {
		w.close()
		// Return the episode's arena before the next one asks for its own.
		runtime.GC()
	}()

	start := time.Now()
	if err := w.setup(dev); err != nil {
		ep.err = fmt.Errorf("setup: %w", err)
		return ep
	}
	ep.setupS = time.Since(start).Seconds()

	runs := make([]*laneRun, sp.lanes)
	for l := range runs {
		runs[l] = &laneRun{
			slices:  make([]sliceRec, 0, nSlices),
			samples: make([]uint32, 0, 1<<21),
		}
	}
	// drive runs n slices on every lane, dropping what an earlier call
	// (the warm-up) recorded; the lanes' op streams carry on.
	drive := func(n int) {
		base := time.Now()
		var wg sync.WaitGroup
		for l, lr := range runs {
			lr.slices, lr.samples = lr.slices[:0], lr.samples[:0]
			wg.Add(1)
			go func() {
				defer wg.Done()
				lr.run(w, l, base, n, sp.timeEvery)
			}()
		}
		wg.Wait()
	}
	drive(warmSlices)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	drive(nSlices)
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)

	ops := 0
	for _, lr := range runs {
		ep.attempted += lr.attempted
		ep.failed += lr.failed
		if ep.err == nil {
			ep.err = lr.firstErr
		}
		for _, s := range lr.slices {
			ops += s.ops
		}
	}
	ep.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	ep.allocBytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
	ep.gcPerS = float64(m1.NumGC-m0.NumGC) / elapsed
	ep.summarize(runs, nSlices)

	ep.hostCopy, ep.hostALU = hostKernels()

	if err := w.verify(); err != nil && ep.err == nil {
		ep.err = fmt.Errorf("oracle: %w", err)
	}
	return ep
}

// summarize reduces the lanes' slice records to the episode's values.
func (ep *episode) summarize(runs []*laneRun, nSlices int) {
	thr := make([]float64, nSlices)
	for _, lr := range runs {
		for s, rec := range lr.slices {
			if rec.ns > 0 {
				thr[s] += float64(rec.ops) / float64(rec.ns) * 1e9
			}
		}
	}
	quiet := quietQuarter(thr)
	qthr := make([]float64, len(quiet))
	var pool []uint32
	for i, s := range quiet {
		qthr[i] = thr[s]
		for _, lr := range runs {
			pool = append(pool, lr.samples[lr.slices[s].lo:lr.slices[s].hi]...)
		}
	}
	slices.Sort(pool)

	ep.opsPerS = median(qthr)
	ep.p50us = quantileSorted(pool, 0.50) / 1e3
	ep.p90us = quantileSorted(pool, 0.90) / 1e3
	ep.p99us = quantileSorted(pool, 0.99) / 1e3
	ep.allOpsPerS = median(thr)
	ep.sliceCV = coefVar(thr)
	if ep.allOpsPerS > 0 {
		ep.quietGap = ep.opsPerS / ep.allOpsPerS
	}
}
