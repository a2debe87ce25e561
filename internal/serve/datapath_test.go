// Tests of the copy-once data path (ISSUE 19): who owns a payload
// buffer when, on both sides of the wire — READ replies sized without a
// fill, request frames handed to workers in place, payloads landed
// straight in the caller's buffer and what happens when the transport
// dies, the session closes or the peer lies in the middle of one.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trio/internal/fsapi"
)

// TestReadShortThroughRecycledBuffer: the server sizes a READ reply for
// the requested count without filling it, in a pooled buffer that last
// carried somebody else's bytes. A read that comes up short (past EOF)
// must answer exactly cnt bytes in a frame whose length field says so:
// nothing of the buffer's previous life may reach the wire.
func TestReadShortThroughRecycledBuffer(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{Workers: 1})
	defer lb.Close()
	srv := lb.Server()
	rc := dialRaw(t, srv, 801)
	defer rc.rw.Close()
	rootB := AppendHandle(nil, srv.Root())

	create := func(xid uint32, name string, content []byte) []byte {
		st, body := rc.rpc(xid, ProcCreate, append(appendU16(append([]byte{}, rootB...), 0o644), AppendString(nil, name)...))
		if st != StatusOK {
			t.Fatalf("create %s: %d", name, st)
		}
		d := NewDec(body)
		hB := AppendHandle(nil, d.Handle())
		if st, _ := rc.rpc(xid+1, ProcWrite, AppendBytes(appendU64(append([]byte{}, hB...), 0), content)); st != StatusOK {
			t.Fatalf("write %s: %d", name, st)
		}
		return hB
	}
	const block = 16 << 10
	secret := bytes.Repeat([]byte{'S'}, block)
	public := bytes.Repeat([]byte{'p'}, 100)
	secretH := create(10, "secret", secret)
	publicH := create(20, "public", public)
	readReq := func(hB []byte, off uint64, n uint32) []byte {
		return appendU32(appendU64(append([]byte{}, hB...), off), n)
	}

	for round := uint32(0); round < 8; round++ {
		// A full-size read of the other file leaves its bytes in the
		// reply buffer the pool hands out next; a spare poisoned buffer
		// covers a pool that dropped it.
		if st, body := rc.rpc(100+2*round, ProcRead, readReq(secretH, 0, block)); st != StatusOK || len(body) != 4+block {
			t.Fatalf("secret read: status %d, %d body bytes", st, len(body))
		}
		putBuf(append(getBuf(), secret...))

		st, body := rc.rpc(101+2*round, ProcRead, readReq(publicH, 50, block))
		if st != StatusOK {
			t.Fatalf("short read: %d", st)
		}
		d := NewDec(body)
		data := d.Bytes()
		if d.Err() != nil || len(d.Rest()) != 0 {
			t.Fatalf("short read body malformed: %d bytes, %d trailing", len(body), len(d.Rest()))
		}
		if len(body) != 4+50 || !bytes.Equal(data, public[50:]) {
			t.Fatalf("short read returned %d body bytes %q, want count + the file's last 50", len(body), data)
		}
	}
	// The stream is still frame-aligned: no stray bytes followed a reply.
	if st, _ := rc.rpc(999, ProcNull, nil); st != StatusOK {
		t.Fatalf("null after short reads: %d", st)
	}
}

// ---------------------------------------------------------------------
// a scripted peer: the server end of each transport a Session dials is
// played by the test, byte by byte
// ---------------------------------------------------------------------

// scriptedRedial returns a Redial whose i-th transport is served by
// scripts[i] on its own goroutine, after the harness has answered the
// HELLO; past the last script every dial fails. The returned wait blocks
// until every started script has returned.
func scriptedRedial(t *testing.T, scripts ...func(srv io.ReadWriteCloser)) (Redial, func()) {
	t.Helper()
	var dials atomic.Int64
	var wg sync.WaitGroup
	redial := func() (io.ReadWriteCloser, error) {
		i := int(dials.Add(1)) - 1
		if i >= len(scripts) {
			return nil, errors.New("scripted peer: out of transports")
		}
		srv, cli := NewDuplex(1 << 20)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer srv.Close()
			fr, _, err := ReadFrame(srv, nil)
			if err != nil || Proc(fr.Op) != ProcHello {
				t.Errorf("scripted peer: want HELLO, got op %d err %v", fr.Op, err)
				return
			}
			hello := BeginFrame(nil, fr.Xid, uint8(StatusOK))
			hello = AppendAttr(AppendHandle(hello, fsapi.Handle{Ino: 1}), Attr{IsDir: true})
			if _, err := srv.Write(EndFrame(hello, 0)); err != nil {
				return
			}
			scripts[i](srv)
		}()
		return cli, nil
	}
	return redial, wg.Wait
}

// nextReq reads one request off a scripted transport: the frame's xid,
// op, and a copy of every byte of it as the client sent it.
func nextReq(t *testing.T, srv io.Reader) (xid uint32, proc Proc, raw []byte) {
	t.Helper()
	fr, buf, err := ReadFrame(srv, nil)
	if err != nil {
		t.Errorf("scripted peer: read request: %v", err)
		return 0, 0, nil
	}
	return fr.Xid, Proc(fr.Op), append([]byte(nil), buf...)
}

// readReply builds a READ reply frame claiming count payload bytes and
// carrying payload (the two differ only in the hostile cases).
func readReply(xid uint32, count int, payload []byte) []byte {
	f := BeginFrame(nil, xid, uint8(StatusOK))
	f = append(appendU32(f, uint32(count)), payload...)
	return EndFrame(f, 0)
}

// serveNulls answers requests with empty OK replies until the
// transport ends: a peer that is merely alive.
func serveNulls(srv io.ReadWriteCloser) {
	var buf []byte
	for {
		fr, nbuf, err := ReadFrame(srv, buf)
		if buf = nbuf; err != nil {
			return
		}
		if _, err := srv.Write(EndFrame(BeginFrame(nil, fr.Xid, uint8(StatusOK)), 0)); err != nil {
			return
		}
	}
}

// guarded returns a len-n slice in the middle of a larger array filled
// with a sentinel, and a check that everything outside [0:written) —
// the slice's own tail and the guard bands around it — still holds it.
func guarded(n int) (p []byte, intact func(written int) bool) {
	const band = 64
	whole := bytes.Repeat([]byte{0xEE}, band+n+band)
	p = whole[band : band+n : band+n]
	return p, func(written int) bool {
		for i, b := range whole {
			if (i < band || i >= band+written) && b != 0xEE {
				return false
			}
		}
		return true
	}
}

func stamped(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// waitGoroutines waits for the goroutine count to return to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestReplyTornMidBody: a reply cut off anywhere after its header — the
// call already claimed, a READ's payload half landed in p — costs the
// caller nothing: the call goes back to pending, the reconnect
// retransmits the byte-identical frame under the same xid, and the
// second reply completes it with the right bytes.
func TestReplyTornMidBody(t *testing.T) {
	const cnt = 16 << 10
	payload := stamped(cnt)
	full := readReply(0, cnt, payload)
	attr := Attr{Size: 4242, Mode: 0o644}
	cases := []struct {
		name string
		read bool
		keep int // reply bytes delivered before the transport dies
	}{
		{"read/header-only", true, reqHeader},
		{"read/mid-count", true, reqHeader + 2},
		{"read/k=0", true, reqHeader + 4},
		{"read/k=1", true, reqHeader + 4 + 1},
		{"read/k=mid", true, reqHeader + 4 + cnt/2},
		{"read/k=cnt-1", true, len(full) - 1},
		{"getattr/header-only", false, reqHeader},
		{"getattr/mid-attr", false, reqHeader + 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reply := func(xid uint32) []byte {
				if tc.read {
					return readReply(xid, cnt, payload)
				}
				return EndFrame(AppendAttr(BeginFrame(nil, xid, uint8(StatusOK)), attr), 0)
			}
			var firstXid uint32
			var firstRaw []byte
			redial, wait := scriptedRedial(t,
				func(srv io.ReadWriteCloser) {
					firstXid, _, firstRaw = nextReq(t, srv)
					srv.Write(reply(firstXid)[:tc.keep])
				},
				func(srv io.ReadWriteCloser) {
					xid, _, raw := nextReq(t, srv)
					if xid != firstXid || !bytes.Equal(raw, firstRaw) {
						t.Errorf("retransmission differs: xid %d vs %d, %d vs %d bytes", xid, firstXid, len(raw), len(firstRaw))
					}
					srv.Write(reply(xid))
					serveNulls(srv)
				})
			sess, err := NewSession(redial, testSessionOptions(811))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if tc.read {
				p, intact := guarded(cnt)
				n, err := sess.Read(ctx, sess.Root(), 0, p)
				if err != nil || n != cnt || !bytes.Equal(p, payload) || !intact(cnt) {
					t.Fatalf("read across a torn reply: n=%d err=%v, payload ok=%v", n, err, bytes.Equal(p, payload))
				}
			} else if a, err := sess.Getattr(ctx, sess.Root()); err != nil || a != attr {
				t.Fatalf("getattr across a torn reply: %+v %v", a, err)
			}
			if st := sess.Stats(); st.Reconnects != 1 || st.Retransmits != 1 {
				t.Fatalf("stats %+v, want exactly one reconnect and one retransmit", st)
			}
			sess.Close()
			wait()
		})
	}
}

// TestCloseDuringLanding: Close while demux holds a claimed call with
// half a payload landed fails the call with ErrSessionClosed — it is in
// nobody's pending map at that moment, so it must not stay parked — and
// leaves no goroutine behind.
func TestCloseDuringLanding(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const cnt = 16 << 10
	half := make(chan struct{})
	redial, wait := scriptedRedial(t, func(srv io.ReadWriteCloser) {
		xid, _, _ := nextReq(t, srv)
		srv.Write(readReply(xid, cnt, stamped(cnt))[:reqHeader+4+cnt/2])
		close(half)
		io.Copy(io.Discard, srv) // hold the transport open until the session closes it
	})
	sess, err := NewSession(redial, testSessionOptions(812))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.Read(context.Background(), sess.Root(), 0, make([]byte, cnt))
		done <- err
	}()
	<-half
	for !callLanding(sess) {
		time.Sleep(100 * time.Microsecond)
	}
	sess.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("read across Close = %v, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call still parked after Close")
	}
	wait()
	waitGoroutines(t, baseline)
}

// callLanding reports whether a demux currently holds a claimed call:
// the session has no pending call although one is in flight.
func callLanding(s *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending) == 0
}

// TestReadLandsOnlyWhatItShould: whatever the reply claims, a READ
// writes p[:n] and nothing else — a short read leaves p's tail alone, a
// payload longer than p is cut at len(p) and the excess skipped, a count
// the frame cannot back (or a body too short to hold a count) lands
// nothing and fails the call, not the connection — and the stream stays
// frame-aligned for the next call every time.
func TestReadLandsOnlyWhatItShould(t *testing.T) {
	const want = 4096
	payload := stamped(2 * want)
	cases := []struct {
		name    string
		count   int // the reply's count field; -1: the body is just the carried bytes
		carried int // payload bytes actually in the frame
		n       int
		err     error
	}{
		{"short", 100, 100, 100, nil},
		{"empty", 0, 0, 0, nil},
		{"exact", want, want, want, nil},
		{"longer-than-p", 2 * want, 2 * want, want, nil},
		{"trailing-bytes", 100, 300, 100, nil},
		{"count-past-frame", want, 100, 0, ErrBadFrame},
		{"count-huge", 0xFFFFFFFF, 8, 0, ErrBadFrame},
		{"no-room-for-count", -1, 2, 0, ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			redial, wait := scriptedRedial(t, func(srv io.ReadWriteCloser) {
				xid, _, _ := nextReq(t, srv)
				if tc.count >= 0 {
					srv.Write(readReply(xid, tc.count, payload[:tc.carried]))
				} else {
					srv.Write(EndFrame(append(BeginFrame(nil, xid, uint8(StatusOK)), payload[:tc.carried]...), 0))
				}
				serveNulls(srv)
			})
			sess, err := NewSession(redial, testSessionOptions(813))
			if err != nil {
				t.Fatal(err)
			}
			p, intact := guarded(want)
			n, err := sess.Read(context.Background(), sess.Root(), 0, p)
			if n != tc.n || !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
				t.Fatalf("read = %d, %v; want %d, %v", n, err, tc.n, tc.err)
			}
			if !bytes.Equal(p[:n], payload[:n]) || !intact(n) {
				t.Fatalf("read of %d bytes wrote outside p[:%d]", n, n)
			}
			if err := sess.Commit(context.Background(), sess.Root()); err != nil {
				t.Fatalf("call after the odd reply: %v (stream misaligned?)", err)
			}
			if st := sess.Stats(); st.Reconnects != 0 {
				t.Fatalf("stats %+v: the odd reply cost a reconnect", st)
			}
			sess.Close()
			wait()
		})
	}
}

// TestDeadlineDuringLanding: the peer goes silent with half a payload
// delivered. The claimed call is in no pending map, so the deadline
// cannot simply withdraw it: it closes the transport, waits for demux
// to let go of p, and fails with ErrDeadline in bounded time; the next
// call rides the reconnect. Both the caller's context and CallTimeout
// bound it.
func TestDeadlineDuringLanding(t *testing.T) {
	for _, viaCtx := range []bool{true, false} {
		t.Run(fmt.Sprintf("ctx=%v", viaCtx), func(t *testing.T) {
			const cnt = 16 << 10
			redial, wait := scriptedRedial(t,
				func(srv io.ReadWriteCloser) {
					xid, _, _ := nextReq(t, srv)
					srv.Write(readReply(xid, cnt, stamped(cnt))[:reqHeader+4+cnt/2])
					io.Copy(io.Discard, srv) // silent, not dead
				},
				serveNulls)
			opts := testSessionOptions(815)
			ctx := context.Background()
			if viaCtx {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
				defer cancel()
			} else {
				opts.CallTimeout = 30 * time.Millisecond
			}
			sess, err := NewSession(redial, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer wait()
			defer sess.Close()

			p := make([]byte, cnt)
			start := time.Now()
			_, err = sess.Read(ctx, sess.Root(), 0, p)
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("read across a silent peer = %v, want ErrDeadline", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("deadline took %v to fire", d)
			}
			// p is the caller's again: under -race this store would trip
			// on a demux still landing into it.
			for i := range p {
				p[i] = 0
			}
			if err := sess.Commit(context.Background(), sess.Root()); err != nil {
				t.Fatalf("call after the deadline: %v", err)
			}
			if st := sess.Stats(); st.Deadlines != 1 || st.Reconnects != 1 {
				t.Fatalf("stats %+v, want 1 deadline and 1 reconnect", st)
			}
		})
	}
}

// ---------------------------------------------------------------------
// server side
// ---------------------------------------------------------------------

// probeFS counts opens and closes per path and fails one ReadAt on
// demand. Its clients hide the native handle interface, so the server
// resolves handles by path and every open comes through Open.
type probeFS struct {
	fsapi.FS
	st *probeState
}

type probeState struct {
	mu            sync.Mutex
	opens, closes map[string]int
	failRead      atomic.Bool
}

func (s *probeState) counts(path string) (opens, closes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opens[path], s.closes[path]
}

func (p probeFS) NewClient(cpu int) fsapi.Client { return probeClient{p.FS.NewClient(cpu), p.st} }

type probeClient struct {
	fsapi.Client
	st *probeState
}

func (c probeClient) Open(path string, write bool) (fsapi.File, error) {
	f, err := c.Client.Open(path, write)
	if err != nil {
		return nil, err
	}
	c.st.mu.Lock()
	c.st.opens[path]++
	c.st.mu.Unlock()
	return probeFile{f, path, c.st}, nil
}

type probeFile struct {
	fsapi.File
	path string
	st   *probeState
}

func (f probeFile) ReadAt(b []byte, off int64) (int, error) {
	if f.st.failRead.CompareAndSwap(true, false) {
		return 0, fsapi.ErrIO
	}
	return f.File.ReadAt(b, off)
}

func (f probeFile) Close() error {
	f.st.mu.Lock()
	f.st.closes[f.path]++
	f.st.mu.Unlock()
	return f.File.Close()
}

// TestFileCacheDropForgetsOrder: dropping a cached file after an I/O
// error takes its key out of the eviction order too. Left behind, the
// re-open queued the key a second time, and evicting the stale slot
// closed the live file and cost the cache an entry.
func TestFileCacheDropForgetsOrder(t *testing.T) {
	st := &probeState{opens: map[string]int{}, closes: map[string]int{}}
	inner := newInner(t, "arckfs")
	lb, err := NewLoopbackFS(probeFS{inner, st}, Options{Workers: 1, FileCache: 2})
	if err != nil {
		inner.Close()
		t.Fatal(err)
	}
	defer lb.Close()
	sess, ctx := lb.sess, context.Background()

	var h [3]fsapi.Handle
	for i, name := range []string{"a", "b", "c"} {
		if h[i], _, err = sess.Create(ctx, sess.Root(), name, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := make([]byte, 8)
	read := func(i int) error { _, err := sess.Read(ctx, h[i], 0, p); return err }

	if err := read(0); err != nil { // a cached
		t.Fatal(err)
	}
	st.failRead.Store(true)
	if err := read(0); !errors.Is(err, fsapi.ErrIO) { // a dropped
		t.Fatalf("injected read failure = %v", err)
	}
	for _, i := range []int{0, 1, 0, 1} { // a re-opened, b opened: the cache holds exactly these two
		if err := read(i); err != nil {
			t.Fatal(err)
		}
	}
	if opens, closes := st.counts("/a"); opens != 2 || closes != 1 {
		t.Fatalf("/a: %d opens, %d closes after drop + re-open + one more file; want 2, 1 (live file evicted through its stale slot?)", opens, closes)
	}
	if opens, _ := st.counts("/b"); opens != 1 {
		t.Fatalf("/b: %d opens, want 1", opens)
	}
	// One open past the cap evicts the oldest live entry and only that.
	if err := read(2); err != nil {
		t.Fatal(err)
	}
	if err := read(1); err != nil {
		t.Fatal(err)
	}
	if opens, closes := st.counts("/a"); opens != 2 || closes != 2 {
		t.Fatalf("/a: %d opens, %d closes after a third file; want 2, 2", opens, closes)
	}
	if opens, closes := st.counts("/b"); opens != 1 || closes != 0 {
		t.Fatalf("/b: %d opens, %d closes; want it still cached (1, 0)", opens, closes)
	}
}

// heldWrites is a transport whose writes, once hold is set, announce
// themselves and wait for release.
type heldWrites struct {
	io.ReadWriteCloser
	hold    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (h *heldWrites) Write(p []byte) (int, error) {
	if h.hold.Load() {
		h.entered <- struct{}{}
		<-h.release
	}
	return h.ReadWriteCloser.Write(p)
}

// TestDrainWaitsForFlushingWorker: a worker that is inside the
// transport write of its own reply is not done — Drain keeps polling
// until the reply is on the wire, and the client reads it afterwards.
func TestDrainWaitsForFlushingWorker(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	srv := lb.Server()

	a, b := NewDuplex(1 << 16)
	hw := &heldWrites{ReadWriteCloser: a, entered: make(chan struct{}, 1), release: make(chan struct{})}
	go srv.ServeConn(hw)
	rc := &rawClient{t: t, rw: b}
	if st, _ := rc.rpc(1, ProcHello, appendU64(appendU16(appendU32(nil, Magic), ProtoVersion), 821)); st != StatusOK {
		t.Fatalf("hello: %d", st)
	}
	st, body := rc.rpc(2, ProcCreate, AppendString(appendU16(AppendHandle(nil, srv.Root()), 0o644), "held"))
	if st != StatusOK {
		t.Fatalf("create: %d", st)
	}
	d := NewDec(body)
	appendReq := AppendBytes(AppendHandle(nil, d.Handle()), []byte("acked"))

	hw.hold.Store(true)
	frame := append(BeginFrame(nil, 3, uint8(ProcAppend)), appendReq...)
	if _, err := b.Write(EndFrame(frame, 0)); err != nil {
		t.Fatal(err)
	}
	<-hw.entered // the reply exists and its worker is flushing it

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a reply still on its way to the transport", err)
	case <-time.After(50 * time.Millisecond):
	}
	hw.hold.Store(false)
	close(hw.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	fr, _, err := ReadFrame(b, nil)
	if err != nil || fr.Xid != 3 || Status(fr.Op) != StatusOK {
		t.Fatalf("acked reply after drain: xid %d status %d err %v", fr.Xid, fr.Op, err)
	}
	if got := readWholeFile(t, lb.inner, "/held"); string(got) != "acked" {
		t.Fatalf("content %q", got)
	}
}
