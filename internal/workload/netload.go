// netload: the wire-protocol load generator (ISSUE 9). It simulates a
// fleet of remote clients hammering one trio-serve server: each client
// connection keeps Depth requests pipelined (Depth=1 degenerates to
// classic serial RPC — the baseline the serving experiment compares
// against), and file popularity is zipfian, the shape real serving
// traffic has (a few hot files take most of the reads, a long cold
// tail takes the rest).
//
// The driver measures what a serving front-end is judged by: aggregate
// RPC throughput and client-observed tail latency (p50/p99 across
// every request of every connection).
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"trio/internal/fsapi"
	"trio/internal/serve"
)

// NetLoadSpec configures one load-generator run.
type NetLoadSpec struct {
	// Conns is the number of client connections.
	Conns int
	// Depth is the pipelining depth per connection: how many requests
	// each connection keeps in flight (1 = serial RPC).
	Depth int
	// Files is the shared file population size.
	Files int
	// FileSize is each file's prefilled size.
	FileSize int64
	// BS is the READ/WRITE transfer size.
	BS int
	// WritePct is the percentage of operations that are WRITEs (the
	// rest are READs).
	WritePct int
	// OpsPerConn is the request count each connection issues.
	OpsPerConn int
	// ZipfS is the zipf skew (>1; higher = hotter head). 0 disables
	// skew (uniform popularity).
	ZipfS float64
	// Seed makes runs reproducible.
	Seed int64
}

func (s *NetLoadSpec) fill() {
	if s.Conns <= 0 {
		s.Conns = 4
	}
	if s.Depth <= 0 {
		s.Depth = 1
	}
	if s.Files <= 0 {
		s.Files = 32
	}
	if s.FileSize <= 0 {
		s.FileSize = 256 << 10
	}
	if s.BS <= 0 {
		s.BS = 128 << 10
	}
	if s.BS > int(s.FileSize) {
		s.BS = int(s.FileSize)
	}
	if s.OpsPerConn <= 0 {
		s.OpsPerConn = 256
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// DevicePages sizes a device for the spec's data set plus headroom for
// metadata and allocator slack.
func (s *NetLoadSpec) DevicePages() int {
	sp := *s
	sp.fill()
	dataPages := int(int64(sp.Files)*sp.FileSize) / 4096
	return dataPages*2 + 2048
}

// NetLoadResult is one run's outcome.
type NetLoadResult struct {
	Conns   int
	Depth   int
	Ops     int64
	Bytes   int64
	Elapsed time.Duration
	// P50/P99 are client-observed per-request latencies.
	P50, P99 time.Duration
}

// RPCsPerSec reports aggregate request throughput.
func (r NetLoadResult) RPCsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

func (r NetLoadResult) String() string {
	return fmt.Sprintf("netload conns=%d depth=%d ops=%d %9.0f rpc/s p50=%v p99=%v",
		r.Conns, r.Depth, r.Ops, r.RPCsPerSec(), r.P50, r.P99)
}

// RunNetLoad prefills the file population through one setup session,
// then drives Conns pipelined sessions against the server.
func RunNetLoad(srv *serve.Server, spec NetLoadSpec) (NetLoadResult, error) {
	spec.fill()
	ctx := context.Background()

	// Layout phase (not timed): the shared population under /net.
	setup, err := srv.Loopback(^uint64(0))
	if err != nil {
		return NetLoadResult{}, fmt.Errorf("netload setup dial: %w", err)
	}
	defer setup.Close()
	dirH, _, err := setup.Mkdir(ctx, setup.Root(), "net", 0o755)
	if err != nil {
		return NetLoadResult{}, fmt.Errorf("netload mkdir: %w", err)
	}
	handles := make([]fsapi.Handle, spec.Files)
	block := make([]byte, spec.BS)
	for i := range block {
		block[i] = byte(i % 253)
	}
	for i := 0; i < spec.Files; i++ {
		h, _, err := setup.Create(ctx, dirH, fmt.Sprintf("f%04d", i), 0o644)
		if err != nil {
			return NetLoadResult{}, fmt.Errorf("netload create %d: %w", i, err)
		}
		for off := int64(0); off < spec.FileSize; off += int64(spec.BS) {
			n := int64(spec.BS)
			if off+n > spec.FileSize {
				n = spec.FileSize - off
			}
			if _, err := setup.Write(ctx, h, off, block[:n]); err != nil {
				return NetLoadResult{}, fmt.Errorf("netload prefill %d: %w", i, err)
			}
		}
		handles[i] = h
	}

	// Measured phase: Conns connections, Depth issuing goroutines each.
	// Every goroutine records its request latencies for the aggregate
	// percentiles.
	conns := make([]*serve.Session, spec.Conns)
	for i := range conns {
		c, err := srv.Loopback(uint64(i) + 2)
		if err != nil {
			return NetLoadResult{}, fmt.Errorf("netload dial %d: %w", i, err)
		}
		defer c.Close()
		conns[i] = c
	}

	blocksPerFile := spec.FileSize / int64(spec.BS)
	if blocksPerFile < 1 {
		blocksPerFile = 1
	}
	type lane struct {
		lats []time.Duration
		ops  int64
		err  error
	}
	lanes := make([]lane, spec.Conns*spec.Depth)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < spec.Conns; ci++ {
		perLane := spec.OpsPerConn / spec.Depth
		if perLane < 1 {
			perLane = 1
		}
		for di := 0; di < spec.Depth; di++ {
			li := ci*spec.Depth + di
			conn := conns[ci]
			wg.Add(1)
			go func() {
				defer wg.Done()
				l := &lanes[li]
				l.lats = make([]time.Duration, 0, perLane)
				rng := rand.New(rand.NewSource(spec.Seed + int64(li)*7919))
				zipf := rand.NewZipf(rng, spec.ZipfS, 1.0, uint64(spec.Files-1))
				buf := make([]byte, spec.BS)
				for op := 0; op < perLane; op++ {
					h := handles[int(zipf.Uint64())]
					off := rng.Int63n(blocksPerFile) * int64(spec.BS)
					t0 := time.Now()
					var err error
					if rng.Intn(100) < spec.WritePct {
						_, err = conn.Write(ctx, h, off, buf)
					} else {
						_, err = conn.Read(ctx, h, off, buf)
					}
					if err != nil {
						l.err = err
						return
					}
					l.lats = append(l.lats, time.Since(t0))
					l.ops++
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := NetLoadResult{Conns: spec.Conns, Depth: spec.Depth, Elapsed: elapsed}
	var all []time.Duration
	for i := range lanes {
		if lanes[i].err != nil {
			return NetLoadResult{}, fmt.Errorf("netload lane %d: %w", i, lanes[i].err)
		}
		res.Ops += lanes[i].ops
		all = append(all, lanes[i].lats...)
	}
	res.Bytes = res.Ops * int64(spec.BS)
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50 = all[len(all)/2]
		res.P99 = all[len(all)*99/100]
	}
	return res, nil
}
