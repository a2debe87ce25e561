// Command trio-top is the live observability console for the Trio
// stack: it drives a mixed ArckFS workload over the simulated NVM
// machine and renders a per-interval table of cross-layer telemetry —
// LibFS op rates and latency quantiles, NVM traffic, allocator and
// delegation activity, MMU checks, operations carried per trust-boundary
// crossing, scrub and seal activity, and the trio-serve wire
// front-end's connection count, RPC rate and in-flight depth — from
// registry snapshot deltas.
//
// Usage:
//
//	trio-top                          # 10 one-second refreshes
//	trio-top -interval 500ms -n 0     # run until interrupted
//	trio-top -rot 20                  # inject bit rot; watch the scrubber react
//	trio-top -http :6060              # also serve /metrics, /trace, /debug/pprof
//	trio-top -trace top.trace.json    # record spans, write a Chrome trace
//
// The HTTP endpoints expose the same registry the table reads, so a
// browser or curl can watch the run from outside while pprof profiles
// it.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/delegation"
	"trio/internal/fsapi"
	"trio/internal/libfs"
	"trio/internal/nvm"
	"trio/internal/serve"
	"trio/internal/telemetry"
)

func main() {
	var (
		interval  = flag.Duration("interval", time.Second, "refresh interval")
		count     = flag.Int("n", 10, "number of refreshes (0 = run until interrupted)")
		workers   = flag.Int("workers", 4, "workload goroutines")
		rotMax    = flag.Int("rot", 0, "flip one bit in a random cold page per interval, up to this many (shows scrub detection live)")
		httpAddr  = flag.String("http", "", "serve /metrics, /trace and /debug/pprof on this address")
		tracePath = flag.String("trace", "", "record spans; write a Chrome trace_event file on exit")
	)
	flag.Parse()

	telemetry.Default().Enable()
	if *tracePath != "" {
		telemetry.EnableTracing(0)
	}
	if *workers < 1 {
		*workers = 1
	}
	// Cost model on: boundary crossings are counted where they are
	// charged, so the ops/trap column has something to read.
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 2, PagesPerNode: 1 << 15, Cost: nvm.DefaultCostModel()})
	// The background sweeper doubles as the scrub scheduler: one
	// rate-limited checksum audit slice runs per sweep period.
	ctl, err := controller.New(dev, controller.Options{
		LeaseSweep:    50 * time.Millisecond,
		RecallTimeout: 25 * time.Millisecond,
	})
	if err != nil {
		fatal(err)
	}
	if *httpAddr != "" {
		// telemetry.Handler routes /metrics — the process-wide registry and
		// the controller's (its checksum, seal and granule counters) — and
		// /trace; net/http/pprof registered itself on the default mux at
		// import.
		mux := http.NewServeMux()
		h := telemetry.Handler(telemetry.Default(), ctl.Stats().Registry())
		mux.Handle("/metrics", h)
		mux.Handle("/trace", h)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "trio-top: http: %v\n", err)
			}
		}()
		fmt.Printf("serving /metrics, /trace, /debug/pprof on %s\n", *httpAddr)
	}
	fp := nvm.NewFaultPlan()
	dev.SetFaultPlan(fp)
	pool := delegation.NewPool(dev, 2)
	fs, err := libfs.New(ctl.Register(1000, 1000, 0, 0),
		libfs.Config{CPUs: *workers, Pool: pool, Stripe: true})
	if err != nil {
		fatal(err)
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for w := 0; w < *workers; w++ {
		dir := fmt.Sprintf("/w%d", w)
		if err := fs.NewClient(w).Mkdir(dir, 0o755); err != nil {
			fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := fs.NewClient(w)
			rng := rand.New(rand.NewSource(int64(w)*6364136223846793005 + 1))
			buf := make([]byte, 4096)
			for i := 0; !stop.Load(); i++ {
				path := fmt.Sprintf("/w%d/f%d", w, i%8)
				f, err := cl.Create(path, 0o644)
				if err != nil {
					continue
				}
				for j := 0; j < 16; j++ {
					off := int64(rng.Intn(64)) * 4096
					if _, err := f.WriteAt(buf, off); err != nil {
						break
					}
					if _, err := f.ReadAt(buf, off); err != nil {
						break
					}
				}
				f.Close()
				if rng.Intn(8) == 0 {
					cl.Unlink(path)
				}
			}
		}(w)
	}

	// A second trust domain scans the workers' trees: the resulting
	// recalls force unmaps, so files keep crossing the verify-adopt-seal
	// boundary and the scrubber always has cold, sealed pages to vouch
	// for (and the -rot injector something to corrupt).
	scanner, err := libfs.New(ctl.Register(2000, 2000, 1, 1), libfs.Config{CPUs: 1})
	if err != nil {
		fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer scanner.Close()
		cl := scanner.NewClient(0)
		for !stop.Load() {
			for w := 0; w < *workers; w++ {
				cl.ReadDir(fmt.Sprintf("/w%d", w))
				for i := 0; i < 8; i++ {
					cl.Stat(fmt.Sprintf("/w%d/f%d", w, i))
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Serving traffic: the same LibFS is exported over the trio-serve
	// wire protocol and a loopback client keeps a couple of requests
	// pipelined against it, so the serve columns (conns, rpc/s, in
	// flight) show a live front-end instead of zeros.
	wsrv, err := serve.NewServer(fs, serve.Options{Workers: 2, MaxInflight: 8})
	if err != nil {
		fatal(err)
	}
	wconn, err := wsrv.Loopback(9999)
	if err != nil {
		fatal(err)
	}
	wctx := context.Background()
	srvDir, _, err := wconn.Mkdir(wctx, wsrv.Root(), "srv", 0o755)
	if err != nil {
		fatal(err)
	}
	var srvFiles []fsapi.Handle
	srvBlk := make([]byte, 8192)
	for i := 0; i < 4; i++ {
		h, _, err := wconn.Create(wctx, srvDir, fmt.Sprintf("s%d", i), 0o644)
		if err != nil {
			fatal(err)
		}
		if _, err := wconn.Write(wctx, h, 0, srvBlk); err != nil {
			fatal(err)
		}
		srvFiles = append(srvFiles, h)
	}
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(lane) + 99))
			buf := make([]byte, len(srvBlk))
			for !stop.Load() {
				h := srvFiles[rng.Intn(len(srvFiles))]
				var err error
				if rng.Intn(4) == 0 {
					_, err = wconn.Write(wctx, h, 0, buf)
				} else {
					_, err = wconn.Read(wctx, h, 0, buf)
				}
				if err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(lane)
	}

	// The rot injector: a deliberately silent FlipBits into a random
	// sealed (cold) page per refresh, so the scrub columns demonstrate
	// detection, repair and quarantine in real time.
	rotRNG := rand.New(rand.NewSource(42))
	rotLeft := *rotMax
	injectRot := func() {
		if rotLeft <= 0 {
			return
		}
		mem := core.Direct(dev, 0)
		total := dev.NumPages()
		var sealed []nvm.PageID
		for p := nvm.PageID(core.FirstFilePage); p < core.ChecksumBase(total); p++ {
			if _, trusted, err := core.LoadChecksumTrusted(mem, total, p); err == nil && trusted {
				sealed = append(sealed, p)
			}
		}
		if len(sealed) == 0 {
			return
		}
		p := sealed[rotRNG.Intn(len(sealed))]
		if fp.FlipBits(p, rotRNG.Intn(nvm.PageSize), 1<<rotRNG.Intn(8)) == nil {
			rotLeft--
		}
	}

	prev := telemetry.Default().Snapshot()
	prevCS := ctl.Stats().Snapshot()
	for tick := 0; *count == 0 || tick < *count; tick++ {
		injectRot()
		time.Sleep(*interval)
		cur := telemetry.Default().Snapshot()
		d := cur.Sub(prev)
		prev = cur
		cs := ctl.Stats().Snapshot()
		dcs := cs.Sub(prevCS)
		prevCS = cs
		secs := *interval / time.Millisecond
		rate := func(name string) float64 {
			return float64(d.Get(name)) * 1000 / float64(secs)
		}
		csRate := func(v int64) float64 {
			return float64(v) * 1000 / float64(secs)
		}
		if tick%20 == 0 {
			fmt.Printf("%10s %10s %9s %9s %10s %10s %10s %9s %10s %8s %9s %7s %7s %7s %9s %9s %9s %9s %6s %5s %7s %5s\n",
				"read/s", "write/s", "rd p99ns", "wr p99ns",
				"nvm wr/s", "persist/s", "alloc pg/s", "deleg/s", "mmu chk/s",
				"ops/trap",
				"scrub/s", "detect", "repair", "quar",
				"sl-cln/s", "sl-strm/s",
				"vf-scop/s", "vf-full/s", "gran-w",
				"conns", "rpc/s", "infl")
		}
		// Operations carried per kernel crossing: 1 when every call traps
		// on its own, more when batched calls share one.
		opsPerTrap := 0.0
		if traps := d.Get("nvm.cost_traps"); traps > 0 {
			opsPerTrap = float64(d.Get("nvm.cost_trap_ops")) / float64(traps)
		}
		// vf-scop/vf-full: verifications that carried the index facts of
		// the file's last clean walk over, and those that walked. gran-w:
		// granules whose write references are counted whole right now.
		fmt.Printf("%10.0f %10.0f %9d %9d %10.0f %10.0f %10.0f %9.0f %10.0f %8.2f %9.0f %7d %7d %7d %9.0f %9.0f %9.0f %9.0f %6d %5d %7.0f %5d\n",
			rate("libfs.read_ops"), rate("libfs.write_ops"),
			d.Hist("libfs.read_ns").Quantile(0.99),
			d.Hist("libfs.write_ns").Quantile(0.99),
			rate("nvm.writes"), rate("nvm.persists"),
			rate("alloc.pages_out"),
			rate("delegation.batches_delegated")+rate("delegation.batches_inline"),
			rate("mmu.checks"),
			opsPerTrap,
			csRate(dcs.ScrubPages),
			cs.ScrubDetected, cs.ScrubRepaired, cs.ScrubQuarantined,
			csRate(dcs.SealCleanPages), csRate(dcs.SealStreamedPages),
			csRate(dcs.VerifyScoped), csRate(dcs.VerifyFull), cs.GranWriteRefs,
			cur.Get("serve.conns"), rate("serve.rpcs"), cur.Get("serve.inflight"))
	}

	stop.Store(true)
	wg.Wait()
	wconn.Close()
	wsrv.Close()
	if err := fs.Close(); err != nil {
		fatal(err)
	}
	ctl.Close()
	pool.Close()

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		recs := telemetry.TraceSnapshot()
		if err := telemetry.WriteChromeTrace(f, recs); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %d trace events to %s\n", len(recs), *tracePath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trio-top:", err)
	os.Exit(1)
}
