package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/fstest"
	"trio/internal/netsim"
)

// newInner builds a fresh FS of the named flavor to put behind a wire
// server.
func newInner(t testing.TB, name string) fsapi.FS {
	t.Helper()
	inst, err := fsfactory.New(name, fsfactory.Config{Nodes: 2, PagesPerNode: 8192, CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// mountLoopback builds a fresh FS of the named flavor behind an
// in-process wire server.
func mountLoopback(t testing.TB, name string, opts Options) *LoopbackFS {
	t.Helper()
	inst := newInner(t, name)
	lb, err := NewLoopbackFS(inst, opts)
	if err != nil {
		inst.Close()
		t.Fatal(err)
	}
	return lb
}

// faultedFS is a LoopbackFS whose session dials a hostile wire: every
// transport is chunked at arbitrary byte boundaries, jittered, and
// killed mid-conversation on a seeded schedule, the kill truncating
// whatever frame is in flight. The default redial budget (not
// Loopback's fail-fast one) lets the session ride the storm out. Close
// adds the mount's reconnect count to a tally, so the suite can prove
// the faults fired.
type faultedFS struct {
	*LoopbackFS
	reconnects *atomic.Int64
}

func (f faultedFS) Close() error {
	f.reconnects.Add(f.sess.Stats().Reconnects)
	return f.LoopbackFS.Close()
}

func mountFaulted(t testing.TB, name string, reconnects *atomic.Int64) fsapi.FS {
	t.Helper()
	inst := newInner(t, name)
	srv, err := NewServer(inst, Options{})
	if err != nil {
		inst.Close()
		t.Fatal(err)
	}
	// One seed per transport: a failing run replays from the mount's
	// dial sequence. MaxChunk and KillAfterOps are sized so the suite's
	// largest frame (64 KiB, ~32 chunks each way) fits inside one
	// transport's life — a frame that cannot fit would never complete.
	var seed atomic.Int64
	redial := func() (io.ReadWriteCloser, error) {
		a, b := NewDuplex(loopbackBuf)
		go srv.ServeConn(a)
		return netsim.Wrap(b, &netsim.Plan{
			Seed:           seed.Add(1),
			MaxChunk:       4096,
			Jitter:         20 * time.Microsecond,
			KillAfterOps:   150,
			TruncateOnKill: true,
		}), nil
	}
	sess, err := NewSession(redial, SessionOptions{
		ClientID:    1,
		CallTimeout: 10 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	if err != nil {
		srv.Close()
		inst.Close()
		t.Fatal(err)
	}
	return faultedFS{&LoopbackFS{inner: inst, srv: srv, sess: sess}, reconnects}
}

// TestLoopbackConformance runs the full fstest suite through the wire:
// client adapter → Session → codec → pipelined server → fsapi. ArckFS
// exercises the native HandleClient path, NOVA the path-walk fallback.
// The faulted transport runs the same suite while connections die
// under it: in-process semantics must survive reconnect and same-xid
// retransmission, not just a perfect pipe.
func TestLoopbackConformance(t *testing.T) {
	for _, tc := range []struct {
		fs      string
		faulted bool
	}{
		{"arckfs", false},
		{"nova", false},
		{"arckfs", true},
	} {
		tc := tc
		name := tc.fs + "/clean"
		if tc.faulted {
			name = tc.fs + "/faulted"
		}
		t.Run(name, func(t *testing.T) {
			var reconnects atomic.Int64
			fstest.Run(t, func(t *testing.T) fsapi.FS {
				if tc.faulted {
					return mountFaulted(t, tc.fs, &reconnects)
				}
				return mountLoopback(t, tc.fs, Options{})
			})
			if tc.faulted && reconnects.Load() == 0 {
				t.Fatal("no session reconnected: the fault plan never fired, the run proved nothing")
			}
		})
	}
}

// TestLoopbackFailsFast: a Server.Loopback session is the client with a
// redial budget of one, so a server that is gone surfaces as ErrIO at
// once — to raw RPCs and through the fsapi adapter — instead of after a
// full backoff schedule.
func TestLoopbackFailsFast(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	sess, err := lb.Server().Loopback(7)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	if _, err := sess.Getattr(ctx, sess.Root()); err != nil {
		t.Fatalf("getattr against a live server: %v", err)
	}

	lb.Server().Close()
	start := time.Now()
	if _, err := sess.Getattr(ctx, sess.Root()); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("getattr against a closed server = %v, want ErrIO", err)
	}
	if _, err := NewClient(sess).Stat("/x"); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("adapter stat against a closed server = %v, want ErrIO", err)
	}
	if _, err := lb.Server().Loopback(8); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("loopback to a closed server = %v, want ErrIO", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a dead server took %v to surface", d)
	}
}

// TestNativeHandleProbe pins which FSes take which handle regime: the
// point of the fsapi extension is that ArckFS resolves handles through
// its ino tables, while baselines fall back to the server-side path map.
func TestNativeHandleProbe(t *testing.T) {
	for name, wantNative := range map[string]bool{"arckfs": true, "nova": false} {
		lb := mountLoopback(t, name, Options{})
		if lb.Server().tab.native != wantNative {
			t.Errorf("%s: native=%v, want %v", name, lb.Server().tab.native, wantNative)
		}
		lb.Close()
	}
}

// TestStaleHandle proves handle identity: once the file behind a handle
// is unlinked, the handle answers ErrStale — in both regimes.
func TestStaleHandle(t *testing.T) {
	for _, name := range []string{"arckfs", "nova"} {
		t.Run(name, func(t *testing.T) {
			lb := mountLoopback(t, name, Options{})
			defer lb.Close()
			conn, ctx := lb.sess, context.Background()

			if _, _, err := conn.Create(ctx, conn.Root(), "victim", 0o644); err != nil {
				t.Fatal(err)
			}
			h, _, err := conn.Lookup(ctx, conn.Root(), "victim")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Getattr(ctx, h); err != nil {
				t.Fatalf("getattr live handle: %v", err)
			}
			if err := conn.Remove(ctx, conn.Root(), "victim"); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Getattr(ctx, h); !errors.Is(err, fsapi.ErrStale) {
				t.Fatalf("getattr after unlink = %v, want ErrStale", err)
			}
			if _, err := conn.Read(ctx, h, 0, make([]byte, 16)); !errors.Is(err, fsapi.ErrStale) {
				t.Fatalf("read after unlink = %v, want ErrStale", err)
			}
		})
	}
}

// TestRenameKeepsHandle pins the NFS property that a handle names an
// inode: renaming the file must not invalidate an already-minted handle.
func TestRenameKeepsHandle(t *testing.T) {
	for _, name := range []string{"arckfs", "nova"} {
		t.Run(name, func(t *testing.T) {
			lb := mountLoopback(t, name, Options{})
			defer lb.Close()
			conn, ctx := lb.sess, context.Background()

			h, _, err := conn.Create(ctx, conn.Root(), "before", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(ctx, h, 0, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			if err := conn.Rename(ctx, conn.Root(), "before", conn.Root(), "after"); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 7)
			if _, err := conn.Read(ctx, h, 0, got); err != nil {
				t.Fatalf("read via pre-rename handle: %v", err)
			}
			if string(got) != "payload" {
				t.Fatalf("content %q", got)
			}
		})
	}
}

// TestWireTraversalRejected drives hostile names at a live server and
// expects ErrInval from the boundary, with the FS untouched.
func TestWireTraversalRejected(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	conn, ctx := lb.sess, context.Background()

	for _, bad := range []string{"..", ".", "", "a/b", "x\x00y"} {
		if _, _, err := conn.Lookup(ctx, conn.Root(), bad); !errors.Is(err, fsapi.ErrInval) {
			t.Errorf("lookup %q = %v, want ErrInval", bad, err)
		}
		if _, _, err := conn.Create(ctx, conn.Root(), bad, 0o644); !errors.Is(err, fsapi.ErrInval) {
			t.Errorf("create %q = %v, want ErrInval", bad, err)
		}
		if err := conn.Remove(ctx, conn.Root(), bad); !errors.Is(err, fsapi.ErrInval) {
			t.Errorf("remove %q = %v, want ErrInval", bad, err)
		}
	}
	names, err := conn.Readdir(ctx, conn.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("hostile names leaked entries: %v", names)
	}
}

// TestPipelinedOutOfOrder floods one connection from many goroutines
// and checks every reply routes to its caller: the xid demux, the
// in-flight cap and out-of-order completion all under load. Run with
// -race this is the pipelining data-race test.
func TestPipelinedOutOfOrder(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{Workers: 4, MaxInflight: 16})
	defer lb.Close()
	conn, ctx := lb.sess, context.Background()

	h, _, err := conn.Create(ctx, conn.Root(), "shared", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Each goroutine writes its own 64-byte stripe, then reads it back.
	const gs, stripes = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, gs)
	for g := 0; g < gs; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			pat := bytes.Repeat([]byte{byte('A' + g)}, 64)
			for i := 0; i < stripes; i++ {
				off := int64((g*stripes + i) * 64)
				if _, err := conn.Write(ctx, h, off, pat); err != nil {
					errs <- fmt.Errorf("write g%d: %w", g, err)
					return
				}
			}
			got := make([]byte, 64)
			for i := 0; i < stripes; i++ {
				off := int64((g*stripes + i) * 64)
				if _, err := conn.Read(ctx, h, off, got); err != nil {
					errs <- fmt.Errorf("read g%d: %w", g, err)
					return
				}
				if !bytes.Equal(got, pat) {
					errs <- fmt.Errorf("g%d stripe %d corrupted: %q", g, i, got[:8])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if a, err := conn.Getattr(ctx, h); err != nil || a.Size != gs*stripes*64 {
		t.Fatalf("final size %+v %v", a, err)
	}
}

// ---------------------------------------------------------------------
// raw-frame machinery for retry tests (a client that picks its own xids
// and resends them at will, which Session never lets a caller do)
// ---------------------------------------------------------------------

type rawClient struct {
	t    *testing.T
	rw   io.ReadWriteCloser
	rbuf []byte
}

// dialRaw opens a raw loopback connection and performs HELLO.
func dialRaw(t *testing.T, srv *Server, clientID uint64) *rawClient {
	t.Helper()
	a, b := NewDuplex(1 << 16)
	go srv.ServeConn(a)
	rc := &rawClient{t: t, rw: b}
	body := appendU64(appendU16(appendU32(nil, Magic), ProtoVersion), clientID)
	st, _ := rc.rpc(1, ProcHello, body)
	if st != StatusOK {
		t.Fatalf("hello: status %d", st)
	}
	return rc
}

// rpc sends one frame and reads one reply (exactly one in flight).
func (rc *rawClient) rpc(xid uint32, proc Proc, body []byte) (Status, []byte) {
	rc.t.Helper()
	frame := BeginFrame(nil, xid, uint8(proc))
	frame = append(frame, body...)
	frame = EndFrame(frame, 0)
	if _, err := rc.rw.Write(frame); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
	fr, nbuf, err := ReadFrame(rc.rw, rc.rbuf)
	rc.rbuf = nbuf
	if err != nil {
		rc.t.Fatalf("read reply: %v", err)
	}
	if fr.Xid != xid {
		rc.t.Fatalf("reply xid %d for request %d", fr.Xid, xid)
	}
	return Status(fr.Op), append([]byte(nil), fr.Body...)
}

// TestDuplicateRequestCache simulates the dropped-reply retry for every
// non-idempotent proc the satellite names: the duplicate (same client
// id, same xid — even on a NEW connection) must return the recorded
// verdict, and the operation must not apply twice.
func TestDuplicateRequestCache(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	srv := lb.Server()
	root := srv.Root()
	rootB := AppendHandle(nil, root)

	rc := dialRaw(t, srv, 77)

	// APPEND: the sharpest double-apply detector — a replayed append
	// must return the ORIGINAL landing offset and not grow the file.
	st, body := rc.rpc(10, ProcCreate, append(appendU16(append([]byte{}, rootB...), 0o644), AppendString(nil, "log")...))
	if st != StatusOK {
		t.Fatalf("create: %d", st)
	}
	d := NewDec(body)
	logH := d.Handle()

	appendBody := AppendBytes(AppendHandle(nil, logH), []byte("entry"))
	st, body = rc.rpc(11, ProcAppend, appendBody)
	if st != StatusOK {
		t.Fatalf("append: %d", st)
	}
	d = NewDec(body)
	if at := d.U64(); at != 0 {
		t.Fatalf("first append landed at %d", at)
	}
	// Reply "dropped" — client retries, same xid.
	st, body = rc.rpc(11, ProcAppend, appendBody)
	if st != StatusOK {
		t.Fatalf("replayed append: %d", st)
	}
	d = NewDec(body)
	if at := d.U64(); at != 0 {
		t.Fatalf("replayed append landed at %d, want cached 0", at)
	}
	st, body = rc.rpc(12, ProcGetattr, AppendHandle(nil, logH))
	if st != StatusOK {
		t.Fatalf("getattr: %d", st)
	}
	d = NewDec(body)
	if a := d.Attr(); a.Size != 5 {
		t.Fatalf("size after replay = %d, want 5 (double-applied!)", a.Size)
	}

	// REMOVE: the replay must answer OK (the cached verdict), not the
	// ErrNotExist a re-executed unlink would produce.
	removeBody := append(append([]byte{}, rootB...), AppendString(nil, "log")...)
	if st, _ := rc.rpc(20, ProcRemove, removeBody); st != StatusOK {
		t.Fatalf("remove: %d", st)
	}
	if st, _ := rc.rpc(20, ProcRemove, removeBody); st != StatusOK {
		t.Fatalf("replayed remove: %d, want cached OK", st)
	}
	// A FRESH remove (new xid) proves the file really is gone.
	if st, _ := rc.rpc(21, ProcRemove, removeBody); st != StatusNotExist {
		t.Fatalf("fresh remove: %d, want StatusNotExist", st)
	}

	// RENAME: replay answers OK; fresh rename of the gone source fails.
	if st, _ := rc.rpc(30, ProcCreate, append(appendU16(append([]byte{}, rootB...), 0o644), AppendString(nil, "a")...)); st != StatusOK {
		t.Fatalf("create a: %d", st)
	}
	renameBody := append(append([]byte{}, rootB...), rootB...)
	renameBody = append(renameBody, AppendString(nil, "a")...)
	renameBody = append(renameBody, AppendString(nil, "b")...)
	if st, _ := rc.rpc(31, ProcRename, renameBody); st != StatusOK {
		t.Fatalf("rename: %d", st)
	}
	if st, _ := rc.rpc(31, ProcRename, renameBody); st != StatusOK {
		t.Fatalf("replayed rename: %d, want cached OK", st)
	}
	if st, _ := rc.rpc(32, ProcRename, renameBody); st != StatusNotExist {
		t.Fatalf("fresh rename: %d, want StatusNotExist", st)
	}

	// Reconnect with the SAME client id: the DRC outlives the
	// connection, so a retransmit after reconnect still replays.
	rc2 := dialRaw(t, srv, 77)
	if st, _ := rc2.rpc(20, ProcRemove, removeBody); st != StatusOK {
		t.Fatalf("replayed remove after reconnect: %d, want cached OK", st)
	}
	// A DIFFERENT client id shares nothing.
	rc3 := dialRaw(t, srv, 78)
	if st, _ := rc3.rpc(20, ProcRemove, removeBody); st != StatusNotExist {
		t.Fatalf("other client remove: %d, want StatusNotExist", st)
	}
	rc.rw.Close()
	rc2.rw.Close()
	rc3.rw.Close()
}

// TestHelloRequired: a request before HELLO has no DRC identity and
// must drop the connection.
func TestHelloRequired(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()

	a, b := NewDuplex(1 << 16)
	go lb.Server().ServeConn(a)
	frame := BeginFrame(nil, 1, uint8(ProcNull))
	frame = EndFrame(frame, 0)
	if _, err := b.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(b, nil); err == nil {
		t.Fatal("server answered a pre-HELLO request")
	}
	b.Close()
}

// TestDuplexPipe covers the loopback transport itself: buffered
// writes complete without a reader, data survives, close drains, and a
// close mid-write returns the bytes written.
func TestDuplexPipe(t *testing.T) {
	a, b := NewDuplex(64)
	msg := []byte("0123456789")
	for i := 0; i < 5; i++ { // 50 bytes < 64: no reader needed
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 50)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat(msg, 5)) {
		t.Fatal("pipe corrupted data")
	}

	// Flow control: a 100-byte write into a 64-byte ring must block
	// until the peer drains, then complete fully.
	done := make(chan error, 1)
	big := bytes.Repeat([]byte{0xCC}, 100)
	go func() {
		_, err := a.Write(big)
		done <- err
	}()
	got2 := make([]byte, 100)
	if _, err := io.ReadFull(b, got2); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, big) {
		t.Fatal("flow-controlled write corrupted data")
	}

	a.Close()
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after close: %v, want EOF", err)
	}
	if _, err := b.Write([]byte{1}); err == nil {
		t.Fatal("write after close succeeded")
	}

	// A close mid-write returns the bytes written and an error.
	a, b = NewDuplex(64)
	type result struct {
		n   int
		err error
	}
	res := make(chan result, 1)
	go func() {
		n, err := a.Write(big)
		res <- result{n, err}
	}()
	if !eventually(func() bool { return occupied(b.(*half).rd) == 64 }) {
		t.Fatal("close mid-write: the ring never filled")
	}
	b.Close()
	if r := <-res; r.n != 64 || !errors.Is(r.err, io.ErrClosedPipe) {
		t.Fatalf("write closed mid-frame = (%d, %v), want (64, ErrClosedPipe)", r.n, r.err)
	}
}
