// Resilience tests (ISSUE 10): reconnecting sessions, retransmission
// exactly-once, deadlines under partitions, Busy backoff, DRC TTL,
// graceful drain, and Close/Drain racing live traffic — the serve-side
// half of what workload.RunNetChaos proves at scale.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/netsim"
)

// testSessionOptions keeps test reconnects fast and test failures quick.
func testSessionOptions(id uint64) SessionOptions {
	return SessionOptions{
		ClientID:     id,
		CallTimeout:  2 * time.Second,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		RedialBudget: 8,
	}
}

// loopRedial returns a Redial minting fresh loopback conns against srv,
// plus an accessor for the most recently dialed transport (so tests can
// kill or partition it).
func loopRedial(srv *Server, plan *netsim.Plan) (Redial, func() *netsim.Conn) {
	var mu sync.Mutex
	var cur *netsim.Conn
	redial := func() (io.ReadWriteCloser, error) {
		a, b := NewDuplex(loopbackBuf)
		go srv.ServeConn(a)
		nc := netsim.Wrap(b, plan)
		mu.Lock()
		cur = nc
		mu.Unlock()
		return nc, nil
	}
	last := func() *netsim.Conn {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}
	return redial, last
}

// readWholeFile reads a path straight out of the inner FS, bypassing
// the wire — the oracle's view of what actually got applied.
func readWholeFile(t *testing.T, fs fsapi.FS, path string) []byte {
	t.Helper()
	c := fs.NewClient(0)
	f, err := c.Open(path, false)
	if err != nil {
		t.Fatalf("oracle open %s: %v", path, err)
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("oracle read: %v", err)
	}
	return buf
}

// countRecords tallies fixed-size records in a file image.
func countRecords(t *testing.T, content []byte, recLen int) map[string]int {
	t.Helper()
	if len(content)%recLen != 0 {
		t.Fatalf("file length %d not a multiple of record size %d (torn append?)", len(content), recLen)
	}
	counts := make(map[string]int)
	for i := 0; i < len(content); i += recLen {
		counts[string(content[i:i+recLen])]++
	}
	return counts
}

// TestSessionReconnect: a dead transport between calls is invisible —
// the next call transparently redials, re-HELLOs, and succeeds.
func TestSessionReconnect(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	redial, last := loopRedial(lb.Server(), nil)

	sess, err := NewSession(redial, testSessionOptions(101))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx := context.Background()
	h, _, err := sess.Create(ctx, sess.Root(), "log", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Append(ctx, h, []byte("first.")); err != nil {
		t.Fatal(err)
	}

	last().Kill() // connection dies between calls

	if _, err := sess.Append(ctx, h, []byte("again.")); err != nil {
		t.Fatalf("append after kill: %v", err)
	}
	if got := readWholeFile(t, lb.inner, "/log"); string(got) != "first.again." {
		t.Fatalf("content %q", got)
	}
	if st := sess.Stats(); st.Reconnects < 1 {
		t.Fatalf("stats %+v, want >=1 reconnect", st)
	}
}

// TestSessionRetransmitExactlyOnce is the core tentpole property at
// unit scale: transports that keep dying mid-call (including byte-level
// truncation of the frame being written) never lose an acked append and
// never apply one twice, because retransmission reuses the original xid
// and the DRC dedupes.
func TestSessionRetransmitExactlyOnce(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()

	seed := atomic.Int64{}
	redial := func() (io.ReadWriteCloser, error) {
		a, b := NewDuplex(loopbackBuf)
		go lb.Server().ServeConn(a)
		p := &netsim.Plan{
			Seed:           seed.Add(1),
			KillAfterOps:   15,
			TruncateOnKill: true,
			MaxChunk:       64,
		}
		return netsim.Wrap(b, p), nil
	}

	sess, err := NewSession(redial, SessionOptions{
		ClientID:     102,
		CallTimeout:  2 * time.Second,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		RedialBudget: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx := context.Background()
	h, _, err := sess.Create(ctx, sess.Root(), "storm", 0o644)
	if err != nil {
		t.Fatal(err)
	}

	const recLen = 16
	const ops = 150
	acked := make(map[string]bool)
	maybe := make(map[string]bool)
	for i := 0; i < ops; i++ {
		rec := fmt.Sprintf("rec-%06d-----\n", i)[:recLen]
		_, err := sess.Append(ctx, h, []byte(rec))
		switch {
		case err == nil:
			acked[rec] = true
		case errors.Is(err, ErrDeadline):
			maybe[rec] = true
		default:
			t.Fatalf("append %d: unexpected error %v", i, err)
		}
	}

	counts := countRecords(t, readWholeFile(t, lb.inner, "/storm"), recLen)
	for rec := range acked {
		if counts[rec] != 1 {
			t.Fatalf("acked record %q applied %d times", rec, counts[rec])
		}
	}
	for rec, n := range counts {
		if !acked[rec] && !maybe[rec] {
			t.Fatalf("record %q in file but never issued", rec)
		}
		if n > 1 {
			t.Fatalf("record %q applied %d times", rec, n)
		}
	}
	st := sess.Stats()
	if st.Reconnects < 1 {
		t.Fatalf("stats %+v: the fault plan kills every ~15-30 ops, want reconnects", st)
	}
	t.Logf("acked=%d maybe=%d stats=%+v", len(acked), len(maybe), st)
}

// TestSessionRetransmitReusedBuffer: a WRITE or APPEND sends the
// caller's p itself, so p must never be read after the call returns —
// callers reuse it at once. A reconnect retransmits a copy of each
// pending request; a snapshot that kept a reference to p would send
// whatever the caller wrote there next under the old xid.
func TestSessionRetransmitReusedBuffer(t *testing.T) {
	// The kill storm of TestSessionRetransmitExactlyOnce, with WRITEs and
	// APPENDs from one buffer rewritten with the next record as each call
	// returns. Exactly-once by content: every acked record is applied
	// once, where it was aimed, and nothing appears that was not issued.
	t.Run("storm", func(t *testing.T) {
		lb := mountLoopback(t, "arckfs", Options{})
		defer lb.Close()
		seed := atomic.Int64{}
		redial := func() (io.ReadWriteCloser, error) {
			a, b := NewDuplex(loopbackBuf)
			go lb.Server().ServeConn(a)
			p := &netsim.Plan{Seed: seed.Add(1), KillAfterOps: 15, TruncateOnKill: true, MaxChunk: 64}
			return netsim.Wrap(b, p), nil
		}
		o := testSessionOptions(103)
		o.BackoffMax, o.RedialBudget = 10*time.Millisecond, 64
		sess, err := NewSession(redial, o)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		ctx := context.Background()
		ha, _, err := sess.Create(ctx, sess.Root(), "appended", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		hw, _, err := sess.Create(ctx, sess.Root(), "written", 0o644)
		if err != nil {
			t.Fatal(err)
		}

		const recLen, ops = 16, 150
		buf := make([]byte, recLen)
		acked, maybe := make(map[string]bool), make(map[string]bool)
		wrote := make(map[int]bool) // acked WRITE records by index
		for i := 0; i < ops; i++ {
			var err error
			if i%2 == 0 {
				copy(buf, fmt.Sprintf("app-%06d-----\n", i))
				_, err = sess.Append(ctx, ha, buf)
			} else {
				copy(buf, fmt.Sprintf("wrt-%06d-----\n", i))
				_, err = sess.Write(ctx, hw, int64(i/2)*recLen, buf)
			}
			switch {
			case err == nil && i%2 == 0:
				acked[string(buf)] = true
			case err == nil:
				wrote[i/2] = true
			case errors.Is(err, ErrDeadline):
				maybe[string(buf)] = true
			default:
				t.Fatalf("op %d: unexpected error %v", i, err)
			}
		}

		counts := countRecords(t, readWholeFile(t, lb.inner, "/appended"), recLen)
		for rec := range acked {
			if counts[rec] != 1 {
				t.Fatalf("acked record %q applied %d times", rec, counts[rec])
			}
		}
		for rec, n := range counts {
			if !acked[rec] && !maybe[rec] {
				t.Fatalf("record %q appended but never issued", rec)
			}
			if n > 1 {
				t.Fatalf("record %q appended %d times", rec, n)
			}
		}
		written := readWholeFile(t, lb.inner, "/written")
		zero := make([]byte, recLen)
		for k := 0; k < ops/2; k++ {
			want := fmt.Sprintf("wrt-%06d-----\n", 2*k+1)
			var got []byte
			if (k+1)*recLen <= len(written) {
				got = written[k*recLen : (k+1)*recLen]
			}
			switch {
			case string(got) == want:
			case wrote[k]:
				t.Fatalf("acked write %d reads %q, want %q", k, got, want)
			case got != nil && !bytes.Equal(got, zero):
				t.Fatalf("block %d holds %q: never issued for it", k, got)
			}
		}
		if st := sess.Stats(); st.Reconnects < 1 {
			t.Fatalf("stats %+v: the fault plan kills every ~15-30 ops, want reconnects", st)
		}
	})

	// A deterministic schedule for the one way a call can return while a
	// reconnect still holds its request: the old transport's reader
	// drains a reply buffered before the close. Transport 0 answers two
	// APPENDs, but the session's reader is held before it sees the
	// replies; a third call's deadline replaces the transport. Transport
	// 1's ring is smaller than a retransmitted frame, so the first
	// retransmit blocks mid-payload with the second still to go out; only
	// then does the held reader deliver the replies, both callers return
	// and each p takes its next record. Transport 1 must still receive,
	// byte for byte, the frames transport 0 got — whichever of the two
	// the reconnect sends first.
	t.Run("drained-reply", func(t *testing.T) {
		const payload = 64
		var (
			first    = make(map[uint32][]byte) // the APPENDs as transport 0 received them
			gotFirst = make(chan struct{})
			release  = make(chan struct{}) // lets transport 0's reader on
			resend   = make(chan struct{}) // lets transport 1's peer read on
			second   = make(chan map[uint32][]byte, 1)
			t1       = make(chan *pipeBuf, 1) // what transport 1's peer reads
			dials    atomic.Int64
		)
		hello := func(srv io.ReadWriter) {
			fr, _, err := ReadFrame(srv, nil)
			if err != nil || Proc(fr.Op) != ProcHello {
				t.Errorf("peer: want HELLO, got op %d err %v", fr.Op, err)
				return
			}
			rep := BeginFrame(nil, fr.Xid, uint8(StatusOK))
			srv.Write(EndFrame(AppendAttr(AppendHandle(rep, fsapi.Handle{Ino: 1}), Attr{IsDir: true}), 0))
		}
		redial := func() (io.ReadWriteCloser, error) {
			switch dials.Add(1) {
			case 1:
				srv, cli := NewDuplex(1 << 16)
				go func() {
					defer srv.Close()
					hello(srv)
					for range 2 {
						xid, _, raw := nextReq(t, srv)
						first[xid] = raw
					}
					close(gotFirst)
					for xid := range first {
						srv.Write(EndFrame(appendU64(BeginFrame(nil, xid, uint8(StatusOK)), 0), 0))
					}
					nextReq(t, srv) // the GETATTR that never gets an answer
					io.Copy(io.Discard, srv)
				}()
				// 28 bytes: the HELLO reply; the reader stops after it.
				return &heldReader{ReadWriteCloser: cli, free: 28, release: release}, nil
			case 2:
				srv, cli := NewDuplex(32)
				t1 <- srv.(*half).rd
				go func() {
					defer srv.Close()
					hello(srv)
					<-resend
					got := make(map[uint32][]byte)
					for range 2 {
						xid, _, raw := nextReq(t, srv)
						got[xid] = raw
					}
					second <- got
					io.Copy(io.Discard, srv)
				}()
				return cli, nil
			}
			return nil, errors.New("no more transports")
		}
		sess, err := NewSession(redial, testSessionOptions(104))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()

		ps := [][]byte{bytes.Repeat([]byte{'A'}, payload), bytes.Repeat([]byte{'C'}, payload)}
		done := make(chan error, len(ps))
		for _, p := range ps {
			go func() {
				_, err := sess.Append(context.Background(), fsapi.Handle{Ino: 2}, p)
				done <- err
			}()
		}
		<-gotFirst
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := sess.Getattr(ctx, fsapi.Handle{Ino: 2}); !errors.Is(err, ErrDeadline) {
			t.Fatalf("getattr on the silent transport: %v, want ErrDeadline", err)
		}
		// The first retransmit fills transport 1's ring and blocks there.
		ring := <-t1
		if !eventually(func() bool { return occupied(ring) == 32 }) {
			t.Fatal("the retransmit never filled transport 1's ring")
		}
		close(release)
		for range ps {
			if err := <-done; err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		for _, p := range ps {
			copy(p, bytes.Repeat([]byte{'B'}, payload)) // the callers' next records
		}
		close(resend)
		got := <-second
		for xid, want := range first {
			if !bytes.Equal(got[xid], want) {
				t.Fatalf("xid %d retransmitted\n%q\nbut the first transmission was\n%q", xid, got[xid], want)
			}
		}
	})
}

// occupied reports how many bytes wait in a ring.
func occupied(p *pipeBuf) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// eventually polls cond for up to 5 s.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// heldReader passes the first free bytes read through, then holds every
// read until release is closed.
type heldReader struct {
	io.ReadWriteCloser
	free    int
	release chan struct{}
}

func (h *heldReader) Read(p []byte) (int, error) {
	if h.free == 0 {
		<-h.release
		return h.ReadWriteCloser.Read(p)
	}
	n, err := h.ReadWriteCloser.Read(p[:min(len(p), h.free)])
	h.free -= n
	return n, err
}

// TestSessionDeadlinePartition: a silent black-hole produces no
// transport error, so only the per-call deadline can fail the call —
// typed, retryable, fast — and it must also un-wedge the session by
// suspecting the transport.
func TestSessionDeadlinePartition(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	redial, last := loopRedial(lb.Server(), nil)

	sess, err := NewSession(redial, testSessionOptions(103))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := sess.Getattr(context.Background(), sess.Root()); err != nil {
		t.Fatal(err)
	}

	last().Partition()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.Getattr(ctx, sess.Root())
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("partitioned call = %v, want ErrDeadline", err)
	}
	if !Retryable(err) {
		t.Fatalf("ErrDeadline must be Retryable")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}

	// The suspect path force-closed the black-holed transport; the next
	// call must reconnect and succeed.
	if _, err := sess.Getattr(context.Background(), sess.Root()); err != nil {
		t.Fatalf("call after partition recovery: %v", err)
	}
	st := sess.Stats()
	if st.Deadlines != 1 || st.Reconnects < 1 {
		t.Fatalf("stats %+v, want 1 deadline and >=1 reconnect", st)
	}
}

// slowAppendFS delays server-side Append so a budget-1 server genuinely
// holds its in-flight slot while concurrent requests arrive. Without it
// a single-CPU scheduler hands execution around at every channel op and
// two requests are almost never resident at once, so admission control
// has nothing to shed and the test asserts nothing.
type slowAppendFS struct {
	fsapi.FS
	d time.Duration
}

func (s slowAppendFS) NewClient(cpu int) fsapi.Client {
	c := s.FS.NewClient(cpu)
	if hc, ok := c.(fsapi.HandleClient); ok {
		return slowAppendHC{hc, s.d}
	}
	return slowAppendClient{c, s.d}
}

type slowAppendClient struct {
	fsapi.Client
	d time.Duration
}

func (c slowAppendClient) Open(path string, write bool) (fsapi.File, error) {
	f, err := c.Client.Open(path, write)
	if err != nil {
		return f, err
	}
	return slowAppendFile{f, c.d}, nil
}

type slowAppendHC struct {
	fsapi.HandleClient
	d time.Duration
}

func (c slowAppendHC) OpenByHandle(h fsapi.Handle, write bool) (fsapi.File, error) {
	f, err := c.HandleClient.OpenByHandle(h, write)
	if err != nil {
		return f, err
	}
	return slowAppendFile{f, c.d}, nil
}

type slowAppendFile struct {
	fsapi.File
	d time.Duration
}

func (f slowAppendFile) Append(b []byte) (int64, error) {
	time.Sleep(f.d)
	return f.File.Append(b)
}

// TestSessionBusyBackoff: admission control sheds past the server-wide
// budget with StatusBusy; sessions absorb the shed with same-xid
// backoff retries and every operation still completes exactly once.
func TestSessionBusyBackoff(t *testing.T) {
	inst, err := fsfactory.New("arckfs", fsfactory.Config{Nodes: 2, PagesPerNode: 8192, CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLoopbackFS(slowAppendFS{inst, 2 * time.Millisecond}, Options{ServerInflight: 1})
	if err != nil {
		inst.Close()
		t.Fatal(err)
	}
	defer lb.Close()

	const clients = 4
	const lanes = 4 // concurrent appenders per session
	const perLane = 6
	const recLen = 16

	// Prepare the file over the mount's own session, before the storm.
	if _, _, err := lb.sess.Create(context.Background(), lb.sess.Root(), "busy", 0o644); err != nil {
		t.Fatal(err)
	}

	// Per-round start barrier: all lanes release their append at the
	// same instant so the requests are resident on the server inside one
	// admission window. Without it the ~µs execution time against the
	// much longer RPC round trip means a budget-1 server almost never
	// sees two requests at once and the test asserts nothing.
	total := clients * lanes
	bars := make([]chan struct{}, perLane)
	var arrived [perLane]atomic.Int32
	for i := range bars {
		bars[i] = make(chan struct{})
	}
	arrive := func(r int) {
		if arrived[r].Add(1) == int32(total) {
			close(bars[r])
		}
	}
	skipFrom := func(r int) { // a failed lane must not strand the barrier
		for ; r < perLane; r++ {
			arrive(r)
		}
	}

	var wg sync.WaitGroup
	var busyTotal atomic.Int64
	errs := make(chan error, clients*lanes)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			redial, _ := loopRedial(lb.Server(), nil)
			sess, err := NewSession(redial, testSessionOptions(uint64(200+ci)))
			if err != nil {
				errs <- err
				for li := 0; li < lanes; li++ {
					skipFrom(0)
				}
				return
			}
			defer sess.Close()
			ctx := context.Background()
			h, _, err := sess.Lookup(ctx, sess.Root(), "busy")
			if err != nil {
				errs <- err
				for li := 0; li < lanes; li++ {
					skipFrom(0)
				}
				return
			}
			var lw sync.WaitGroup
			for li := 0; li < lanes; li++ {
				lw.Add(1)
				go func(li int) {
					defer lw.Done()
					for i := 0; i < perLane; i++ {
						arrive(i)
						<-bars[i]
						rec := fmt.Sprintf("c%02d%02d-%04d-----\n", ci, li, i)[:recLen]
						if _, err := sess.Append(ctx, h, []byte(rec)); err != nil {
							errs <- fmt.Errorf("client %d lane %d append %d: %w", ci, li, i, err)
							skipFrom(i + 1)
							return
						}
					}
				}(li)
			}
			lw.Wait()
			busyTotal.Add(sess.Stats().BusyRetries)
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	counts := countRecords(t, readWholeFile(t, lb.inner, "/busy"), recLen)
	if len(counts) != clients*lanes*perLane {
		t.Fatalf("%d distinct records, want %d", len(counts), clients*lanes*perLane)
	}
	for rec, n := range counts {
		if n != 1 {
			t.Fatalf("record %q applied %d times", rec, n)
		}
	}
	if busyTotal.Load() == 0 {
		t.Fatalf("budget 1 with %d concurrent clients never shed — admission control inert", clients)
	}
}

// TestDRCTTLExpiry (unit, fake clock): a completed verdict past the TTL
// is superseded — the retransmission re-executes instead of replaying.
func TestDRCTTLExpiry(t *testing.T) {
	d := newDRC(16, time.Minute)
	now := time.Unix(1000, 0)
	d.now = func() time.Time { return now }

	key := drcKey{client: 1, xid: 7}
	fp := reqFingerprint(ProcAppend, []byte("x"))

	e, dup := d.claim(key, fp)
	if dup {
		t.Fatal("fresh claim reported dup")
	}
	d.record(key, e, []byte("verdict"))

	if _, dup := d.claim(key, fp); !dup {
		t.Fatal("immediate retransmission must replay")
	}

	now = now.Add(2 * time.Minute)
	e2, dup := d.claim(key, fp)
	if dup {
		t.Fatal("expired verdict must re-execute, not replay")
	}
	d.record(key, e2, []byte("verdict2"))
	if _, dup := d.claim(key, fp); !dup {
		t.Fatal("re-recorded verdict must replay again")
	}
}

// TestDRCTTLEndToEnd: with a tiny TTL, a same-xid retransmission after
// expiry re-executes on the wire (the file grows). This is why DRCTTL
// must exceed every client's retry horizon — and the default (2 min)
// dwarfs the session's capped backoff by orders of magnitude.
func TestDRCTTLEndToEnd(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{DRCTTL: 50 * time.Millisecond})
	defer lb.Close()
	srv := lb.Server()

	rc := dialRaw(t, srv, 301)
	rootB := AppendHandle(nil, srv.Root())
	st, body := rc.rpc(10, ProcCreate, append(appendU16(append([]byte{}, rootB...), 0o644), AppendString(nil, "ttl")...))
	if st != StatusOK {
		t.Fatalf("create: %d", st)
	}
	dd := NewDec(body)
	h := dd.Handle()

	appendBody := AppendBytes(AppendHandle(nil, h), []byte("entry"))
	if st, _ := rc.rpc(11, ProcAppend, appendBody); st != StatusOK {
		t.Fatalf("append: %d", st)
	}
	// Within the TTL: replay, no growth.
	st, body = rc.rpc(11, ProcAppend, appendBody)
	dd = NewDec(body)
	if st != StatusOK || dd.U64() != 0 {
		t.Fatalf("fresh duplicate must replay the original verdict")
	}

	time.Sleep(120 * time.Millisecond) // let the verdict expire

	st, body = rc.rpc(11, ProcAppend, appendBody)
	if st != StatusOK {
		t.Fatalf("expired retransmission: %d", st)
	}
	dd = NewDec(body)
	if at := dd.U64(); at != 5 {
		t.Fatalf("expired retransmission landed at %d, want 5 (re-executed)", at)
	}
	if got := readWholeFile(t, lb.inner, "/ttl"); string(got) != "entryentry" {
		t.Fatalf("content %q", got)
	}
}

// TestServerDrainNoAckedLoss is the acceptance criterion's dedicated
// drain test: Drain racing live appenders loses no acked op, applies
// nothing twice, and ops shed with Busy during the drain definitely did
// not apply.
func TestServerDrainNoAckedLoss(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	srv := lb.Server()

	if _, _, err := lb.sess.Create(context.Background(), lb.sess.Root(), "drainlog", 0o644); err != nil {
		t.Fatal(err)
	}

	const appenders = 4
	const recLen = 16
	type result struct {
		acked []string
		busy  []string
		maybe []string
	}
	results := make([]result, appenders)
	var wg sync.WaitGroup
	for ai := 0; ai < appenders; ai++ {
		wg.Add(1)
		go func(ai int) {
			defer wg.Done()
			redial, _ := loopRedial(srv, nil)
			opts := testSessionOptions(uint64(400 + ai))
			opts.CallTimeout = 300 * time.Millisecond
			opts.RedialBudget = 3
			sess, err := NewSession(redial, opts)
			if err != nil {
				return // server may already be draining
			}
			defer sess.Close()
			ctx := context.Background()
			h, _, err := sess.Lookup(ctx, sess.Root(), "drainlog")
			if err != nil {
				return
			}
			r := &results[ai]
			for i := 0; ; i++ {
				rec := fmt.Sprintf("a%02d-%06d-----\n", ai, i)[:recLen]
				_, err := sess.Append(ctx, h, []byte(rec))
				switch {
				case err == nil:
					r.acked = append(r.acked, rec)
				case errors.Is(err, ErrBusy):
					r.busy = append(r.busy, rec)
					return
				default:
					r.maybe = append(r.maybe, rec)
					return
				}
			}
		}(ai)
	}

	time.Sleep(10 * time.Millisecond) // let the storm build
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain did not quiesce: %v", err)
	}
	wg.Wait()

	counts := countRecords(t, readWholeFile(t, lb.inner, "/drainlog"), recLen)
	ackedTotal := 0
	for ai := range results {
		for _, rec := range results[ai].acked {
			ackedTotal++
			if counts[rec] != 1 {
				t.Fatalf("acked record %q applied %d times across drain", rec, counts[rec])
			}
		}
		for _, rec := range results[ai].busy {
			if counts[rec] != 0 {
				t.Fatalf("Busy-shed record %q is in the file (%d×) — shed after execution?", rec, counts[rec])
			}
		}
		for _, rec := range results[ai].maybe {
			if counts[rec] > 1 {
				t.Fatalf("in-doubt record %q applied %d times", rec, counts[rec])
			}
		}
	}
	if ackedTotal == 0 {
		t.Fatal("no append was acked before the drain — test raced wrong")
	}
	t.Logf("acked=%d across %d appenders", ackedTotal, appenders)
}

// TestCloseDrainRace hammers Server.Close/Drain against ServeConn and
// in-flight calls, PR 2 chaos style: repeated rounds, leak-checked.
func TestCloseDrainRace(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	baseline := runtime.NumGoroutine()
	for round := 0; round < rounds; round++ {
		lb := mountLoopback(t, "arckfs", Options{})
		srv := lb.Server()

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for ci := 0; ci < 3; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				redial, _ := loopRedial(srv, nil)
				opts := testSessionOptions(uint64(500 + ci))
				opts.CallTimeout = 100 * time.Millisecond
				opts.RedialBudget = 2
				sess, err := NewSession(redial, opts)
				if err != nil {
					return
				}
				defer sess.Close()
				ctx := context.Background()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := sess.Getattr(ctx, sess.Root()); err != nil && !Retryable(err) {
						return // session broke against the closing server
					}
				}
			}(ci)
		}

		time.Sleep(time.Duration(1+round) * time.Millisecond)
		if round%2 == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			srv.Drain(ctx)
			cancel()
		} else {
			srv.Close()
		}
		close(stop)
		wg.Wait()
		lb.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+3 {
		t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
	}
}

// countWriteRWC counts transport writes, standing in for the global
// reply-batch telemetry (which other tests also bump).
type countWriteRWC struct {
	io.ReadWriteCloser
	writes atomic.Int64
}

func (c *countWriteRWC) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.ReadWriteCloser.Write(p)
}

// TestLoopbackLatencyReplyBatching: with delivery latency slowing the
// client's reads and a small ring, the server's reply writer must
// coalesce many replies per transport write instead of one-frame-one-
// write — the batching the perfect-pipe loopback never exercised.
func TestLoopbackLatencyReplyBatching(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	srv := lb.Server()

	// a = server end, b = client end; netsim delays the client's reads
	// of server replies. The small ring is the point: a slow reader
	// fills it, the reply writer blocks, replies pile up behind it, and
	// the next transport write must carry a batch.
	a, b := NewDuplex(512)
	slow := netsim.Wrap(b, &netsim.Plan{ReadLatency: 300 * time.Microsecond})
	cw := &countWriteRWC{ReadWriteCloser: a}
	go srv.ServeConn(cw)
	conn, err := NewSession(func() (io.ReadWriteCloser, error) { return slow, nil }, testSessionOptions(601))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const calls = 64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := conn.Getattr(context.Background(), conn.Root()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// +1 for the HELLO reply. Under a slow reader the writer must have
	// coalesced: strictly fewer writes than frames.
	if w := cw.writes.Load(); w >= calls+1 {
		t.Fatalf("%d transport writes for %d reply frames — no batching under slow reader", w, calls+1)
	} else {
		t.Logf("%d reply frames in %d transport writes", calls+1, w)
	}
}

// TestLoopbackDeadlines: the duplex deadline surface the server's
// dead-peer shedding relies on.
func TestLoopbackDeadlines(t *testing.T) {
	a, b := NewDuplex(64)
	ha := a.(*half)

	// Read deadline on an empty pipe fires.
	ha.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	start := time.Now()
	if _, err := ha.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read = %v, want ErrDeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("read deadline far too slow to fire")
	}

	// Clearing the deadline lets traffic flow again.
	ha.SetReadDeadline(time.Time{})
	if _, err := b.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := ha.Read(buf); err != nil || buf[0] != 'x' {
		t.Fatalf("read after clearing deadline: %v", err)
	}

	// Write deadline on a full ring fires.
	if _, err := ha.Write(bytes.Repeat([]byte("y"), 64)); err != nil {
		t.Fatal(err)
	}
	ha.SetWriteDeadline(time.Now().Add(10 * time.Millisecond))
	if _, err := ha.Write([]byte("z")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write on full ring = %v, want ErrDeadlineExceeded", err)
	}
	a.Close()
	b.Close()
}

// TestServerReadTimeoutShedsDeadPeer: a connection that hellos and then
// goes silent is shed once ReadTimeout elapses, instead of pinning its
// goroutines forever.
func TestServerReadTimeoutShedsDeadPeer(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{ReadTimeout: 50 * time.Millisecond})
	defer lb.Close()
	srv := lb.Server()

	a, b := NewDuplex(1 << 16)
	done := make(chan struct{})
	go func() {
		srv.ServeConn(a)
		close(done)
	}()
	// HELLO, then silence.
	frame := BeginFrame(nil, 1, uint8(ProcHello))
	frame = append(frame, appendU64(appendU16(appendU32(nil, Magic), ProtoVersion), 701)...)
	frame = EndFrame(frame, 0)
	if _, err := b.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(b, nil); err != nil {
		t.Fatalf("hello reply: %v", err)
	}

	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("silent peer not shed by ReadTimeout")
	}
	b.Close()
}
