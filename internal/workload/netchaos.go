// netchaos: the network-resilience storm (ISSUE 10). A fleet of
// reconnecting sessions appends unique fixed-size records to a zipfian
// file population while a chaos controller kills and partitions their
// transports mid-flight — some clients additionally run byte-level
// fault plans (chunked transfers, latency spikes, truncated frames at
// the kill point). Every client keeps an oracle of what the server
// ACKED versus what timed out in the "maybe applied" window; after the
// storm a clean connection reads every file back and the driver proves
// the exactly-once contract end to end:
//
//   - every acked record is present exactly once (no acked-op loss,
//     no double-apply from retransmission — the DRC's job),
//   - every deadline-bounded record is present at most once,
//   - nothing else landed (a Busy verdict really meant "not applied").
//
// This is the workload-level counterpart of the serve package's
// session tests: same invariants, but under concurrent multi-client
// load with faults arriving at arbitrary protocol points.
package workload

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/netsim"
	"trio/internal/serve"
)

// NetChaosSpec configures one storm.
type NetChaosSpec struct {
	// Clients is the number of concurrent sessions.
	Clients int
	// Files is the shared zipfian file population.
	Files int
	// OpsPerClient is how many appends each client attempts.
	OpsPerClient int
	// RecLen is the fixed record size; unique records are the oracle.
	RecLen int
	// ZipfS is the popularity skew (>1). 0 defaults to 1.2.
	ZipfS float64
	// Seed makes the storm reproducible (chaos schedule, zipf draws,
	// per-connection byte-fault plans).
	Seed int64
	// CallTimeout bounds each append; an expiry is a "maybe applied".
	CallTimeout time.Duration
	// ChaosEveryOps fires one fault event per roughly this many
	// completed operations, so the fault rate tracks progress instead
	// of wall-clock (a stalled fleet does not accumulate faults).
	ChaosEveryOps int
	// PartitionFor is how long an injected partition lasts.
	PartitionFor time.Duration
}

// Fill sets every unset field to its default.
func (s *NetChaosSpec) Fill() {
	if s.Clients <= 0 {
		s.Clients = 6
	}
	if s.Files <= 0 {
		s.Files = 16
	}
	if s.OpsPerClient <= 0 {
		s.OpsPerClient = 200
	}
	if s.RecLen < 16 {
		s.RecLen = 32
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.CallTimeout <= 0 {
		s.CallTimeout = 500 * time.Millisecond
	}
	if s.ChaosEveryOps <= 0 {
		s.ChaosEveryOps = 40
	}
	if s.PartitionFor <= 0 {
		s.PartitionFor = 25 * time.Millisecond
	}
}

// DevicePages sizes a device for the record volume plus headroom.
func (s *NetChaosSpec) DevicePages() int {
	sp := *s
	sp.Fill()
	dataBytes := int64(sp.Clients) * int64(sp.OpsPerClient) * int64(sp.RecLen)
	return int(dataBytes/4096)*3 + 4096
}

// NetChaosResult is one storm's outcome plus the oracle verdicts. The
// JSON tags are the fields BENCH_trio.json's netchaos section carries
// as they are.
type NetChaosResult struct {
	Clients int `json:"clients"`
	Files   int `json:"files"`

	// Per-op verdict counts: Ops = Acked + Maybe + NotApplied + Failed.
	Ops        int64 `json:"ops"`         // appends attempted
	Acked      int64 `json:"acked"`       // server confirmed (must land exactly once)
	Maybe      int64 `json:"maybe"`       // deadline expired in flight (may land at most once)
	NotApplied int64 `json:"not_applied"` // Busy surfaced past the retry budget (must not land)
	Failed     int64 `json:"failed"`      // session terminally dead (redial budget exhausted)

	// Fault volume actually injected.
	Kills      int64 `json:"kills"`      // connection kills (controller + byte-plan scheduled)
	Partitions int64 `json:"partitions"` // silent black-holes

	// Session-level resilience work, summed over clients.
	Reconnects  int64 `json:"reconnects"`
	Retransmits int64 `json:"retransmits"`
	BusyRetries int64 `json:"busy_retries"`
	Deadlines   int64 `json:"deadlines"`

	// Oracle verdicts from the post-storm read-back. The gate requires
	// AckedLost == DoubleApplied == Unexpected == 0.
	AckedLost     int64 `json:"acked_lost"`     // acked records missing from the files
	DoubleApplied int64 `json:"double_applied"` // any record present more than once
	MaybeApplied  int64 `json:"maybe_applied"`  // maybe-records that did land (informational)
	Unexpected    int64 `json:"unexpected"`     // records landed that no op produced, or torn tails

	Elapsed  time.Duration `json:"-"`
	P50, P99 time.Duration `json:"-"` // acked-op client-observed latency
}

// Availability is the fraction of attempted ops the fleet got a
// definitive success for, despite the faults.
func (r NetChaosResult) Availability() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Acked) / float64(r.Ops)
}

func (r NetChaosResult) String() string {
	return fmt.Sprintf(
		"netchaos clients=%d ops=%d acked=%d maybe=%d kills=%d parts=%d reconn=%d retx=%d avail=%.4f lost=%d double=%d p99=%v",
		r.Clients, r.Ops, r.Acked, r.Maybe, r.Kills, r.Partitions,
		r.Reconnects, r.Retransmits, r.Availability(), r.AckedLost, r.DoubleApplied, r.P99)
}

// chaosConn tracks one client's CURRENT transport so the controller can
// fault it, and accumulates fault counters across replacements.
type chaosConn struct {
	mu         sync.Mutex
	cur        *netsim.Conn
	kills      int64
	partitions int64
}

// swap retires the old wrapper (folding its fault counters in) and
// installs the new one.
func (c *chaosConn) swap(nw *netsim.Conn) {
	c.mu.Lock()
	if c.cur != nil {
		k, p := c.cur.Stats()
		c.kills += k
		c.partitions += p
	}
	c.cur = nw
	c.mu.Unlock()
}

func (c *chaosConn) totals() (kills, partitions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k, p := c.kills, c.partitions
	if c.cur != nil {
		ck, cp := c.cur.Stats()
		k += ck
		p += cp
	}
	return k, p
}

// netChaosRecord renders op (client, seq) as a fixed-size unique
// record: the oracle key and the on-disk bytes are the same string.
func netChaosRecord(recLen, client, seq int) string {
	s := fmt.Sprintf("c%03d-%08d", client, seq)
	for len(s) < recLen-1 {
		s += "."
	}
	return s[:recLen-1] + "\n"
}

// RunNetChaos prefills the population, runs the storm, then audits the
// files against the acked/maybe oracle over a clean connection.
func RunNetChaos(srv *serve.Server, spec NetChaosSpec) (NetChaosResult, error) {
	spec.Fill()
	ctx := context.Background()

	// Layout phase (not timed, clean transport): /chaos, empty files.
	setup, handles, err := wireFiles(ctx, srv, "chaos", spec.Files)
	if err != nil {
		return NetChaosResult{}, fmt.Errorf("netchaos %w", err)
	}
	defer setup.Close()

	// One chaosConn + redial function per client. Every redial mints a
	// fresh loopback duplex, serves its far end, and wraps the near end
	// in netsim. Every third client carries a byte-level fault plan —
	// chunked transfers, latency spikes, and a scheduled kill that
	// truncates the in-flight frame — so retransmission is exercised
	// against torn bytes, not just clean closes.
	var planSeed atomic.Int64
	planSeed.Store(spec.Seed)
	conns := make([]*chaosConn, spec.Clients)
	redials := make([]serve.Redial, spec.Clients)
	for i := range conns {
		cc := &chaosConn{}
		conns[i] = cc
		byteFaults := i%3 == 0
		redials[i] = func() (io.ReadWriteCloser, error) {
			a, b := serve.NewDuplex(1 << 20)
			go srv.ServeConn(a)
			plan := &netsim.Plan{Seed: planSeed.Add(1)}
			if byteFaults {
				plan.MaxChunk = 64
				plan.SpikeEvery = 101
				plan.Spike = 200 * time.Microsecond
				plan.KillAfterOps = 400
				plan.TruncateOnKill = true
			}
			w := netsim.Wrap(b, plan)
			cc.swap(w)
			return w, nil
		}
	}

	type clientState struct {
		acked map[string]bool
		maybe map[string]bool
		lats  []time.Duration
		stats serve.SessionStats

		acks, maybes, notApplied, failed int64
		err                              error
	}
	states := make([]clientState, spec.Clients)

	// Chaos controller: one fault per ChaosEveryOps completed ops,
	// random victim, kill or partition+heal. The client whose op
	// completes a multiple hands it over (due) and resumes once the fault
	// is in, so even a short storm gets every fault it earned.
	var completed atomic.Int64
	due, injected := make(chan struct{}), make(chan struct{})
	ctlDone := make(chan struct{})
	var ctlWG, healWG sync.WaitGroup
	ctlWG.Add(1)
	go func() {
		defer ctlWG.Done()
		rng := rand.New(rand.NewSource(spec.Seed * 7919))
		for {
			select {
			case <-ctlDone:
				return
			case <-due:
			}
			cc := conns[rng.Intn(spec.Clients)]
			cc.mu.Lock()
			victim := cc.cur
			cc.mu.Unlock()
			switch {
			case victim == nil:
			case rng.Intn(2) == 0:
				victim.Kill()
			default:
				victim.Partition()
				healWG.Add(1)
				time.AfterFunc(spec.PartitionFor, func() {
					victim.Heal()
					healWG.Done()
				})
			}
			injected <- struct{}{}
		}
	}()

	// Storm phase: one serial appender per client over its session.
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < spec.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			st := &states[ci]
			st.acked = make(map[string]bool, spec.OpsPerClient)
			st.maybe = make(map[string]bool)
			sess, err := serve.NewSession(redials[ci], serve.SessionOptions{
				ClientID:     uint64(100 + ci),
				CallTimeout:  spec.CallTimeout,
				BackoffBase:  time.Millisecond,
				BackoffMax:   50 * time.Millisecond,
				RedialBudget: 1000,
				Seed:         spec.Seed + int64(ci),
			})
			if err != nil {
				st.err = fmt.Errorf("client %d session: %w", ci, err)
				return
			}
			defer func() {
				st.stats = sess.Stats()
				sess.Close()
			}()
			rng := rand.New(rand.NewSource(spec.Seed + int64(ci)*7919))
			zipf := rand.NewZipf(rng, spec.ZipfS, 1.0, uint64(spec.Files-1))
			for op := 0; op < spec.OpsPerClient; op++ {
				rec := netChaosRecord(spec.RecLen, ci, op)
				h := handles[int(zipf.Uint64())]
				t0 := time.Now()
				_, err := sess.Append(ctx, h, []byte(rec))
				if completed.Add(1)%int64(spec.ChaosEveryOps) == 0 {
					due <- struct{}{}
					<-injected
				}
				switch {
				case err == nil:
					st.acked[rec] = true
					st.acks++
					st.lats = append(st.lats, time.Since(t0))
				case errors.Is(err, serve.ErrDeadline):
					// In flight at the deadline: applied or not, we
					// cannot know. The audit allows at most one copy.
					st.maybe[rec] = true
					st.maybes++
				case errors.Is(err, serve.ErrBusy):
					// Shed before execution: definitely not applied.
					st.notApplied++
				default:
					// Session terminally dead (redial budget) or a
					// hard protocol error: stop this client.
					st.failed++
					st.err = fmt.Errorf("client %d op %d: %w", ci, op, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(ctlDone)
	ctlWG.Wait()
	healWG.Wait()
	elapsed := time.Since(start)

	res := NetChaosResult{Clients: spec.Clients, Files: spec.Files, Elapsed: elapsed}
	acked := make(map[string]bool)
	maybe := make(map[string]bool)
	var lats []time.Duration
	for ci := range states {
		st := &states[ci]
		// A dead client is tolerated by the run (availability reflects
		// it) but a non-transport error is a driver bug worth failing.
		if st.err != nil && st.failed == 0 {
			return NetChaosResult{}, st.err
		}
		res.Ops += st.acks + st.maybes + st.notApplied + st.failed
		res.Acked += st.acks
		res.Maybe += st.maybes
		res.NotApplied += st.notApplied
		res.Failed += st.failed
		res.Reconnects += st.stats.Reconnects
		res.Retransmits += st.stats.Retransmits
		res.BusyRetries += st.stats.BusyRetries
		res.Deadlines += st.stats.Deadlines
		for r := range st.acked {
			acked[r] = true
		}
		for r := range st.maybe {
			maybe[r] = true
		}
		lats = append(lats, st.lats...)
	}
	for _, cc := range conns {
		k, p := cc.totals()
		res.Kills += k
		res.Partitions += p
	}

	// Audit phase: read every file over a fresh clean session and
	// check the bytes against the oracle.
	counts := make(map[string]int, len(acked))
	audit, err := srv.Loopback(^uint64(0) - 1)
	if err != nil {
		return NetChaosResult{}, fmt.Errorf("netchaos audit dial: %w", err)
	}
	defer audit.Close()
	buf := make([]byte, 64<<10)
	for i, h := range handles {
		attr, err := audit.Getattr(ctx, h)
		if err != nil {
			return NetChaosResult{}, fmt.Errorf("netchaos audit getattr f%04d: %w", i, err)
		}
		if attr.Size%int64(spec.RecLen) != 0 {
			res.Unexpected++ // torn tail: an append half-landed
		}
		var tail []byte
		for off := int64(0); off < attr.Size; {
			n, err := audit.Read(ctx, h, off, buf)
			if err != nil {
				return NetChaosResult{}, fmt.Errorf("netchaos audit read f%04d: %w", i, err)
			}
			if n == 0 {
				break
			}
			tail = append(tail, buf[:n]...)
			for len(tail) >= spec.RecLen {
				counts[string(tail[:spec.RecLen])]++
				tail = tail[spec.RecLen:]
			}
			off += int64(n)
		}
	}
	for r := range acked {
		switch counts[r] {
		case 0:
			res.AckedLost++
		case 1:
		default:
			res.DoubleApplied++
		}
	}
	for r := range maybe {
		switch counts[r] {
		case 0:
		case 1:
			res.MaybeApplied++
		default:
			res.DoubleApplied++
		}
	}
	for r := range counts {
		if !acked[r] && !maybe[r] {
			res.Unexpected++
		}
	}

	res.P50, res.P99 = quantiles(lats)
	return res, nil
}
