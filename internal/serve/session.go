// Session: the wire client — the one implementation of the client side
// of the protocol.
//
// Every typed call allocates an xid, registers a completion slot,
// writes one frame, and parks until the demux goroutine delivers the
// matching reply — so ANY number of goroutines share one transport with
// many requests in flight, which is how the load generators drive
// pipelining depth.
//
// The transport comes from a redial function, and the session outlives
// it: when the transport breaks it redials with capped exponential
// backoff plus jitter, re-runs the HELLO handshake, and retransmits
// every in-flight request with its ORIGINAL xid. The server's duplicate-
// request cache is keyed (clientID, xid) and outlives connections, so
// a retransmitted mutation either replays the cached reply or executes
// for the first time — never twice. That is the exactly-once contract
// workload.RunNetChaos proves under fault storms.
//
// Two failure shapes need different handling and get different errors:
//
//   - a dead transport (read/write error): invisible to callers — the
//     call stays pending across the reconnect and is retransmitted;
//   - a silent transport (partition black-hole): detected only by the
//     per-call deadline. The call fails fast with ErrDeadline — the
//     request MAY have executed server-side, so only a same-xid retry
//     is safe and the Session does NOT retry it (a fresh call would
//     risk a double apply; the caller decides). The deadline also marks
//     the transport suspect and force-closes it, which is what turns an
//     undetectable partition into an ordinary reconnect.
//
// StatusBusy replies are retried internally with backoff and the same
// xid: the server sheds load before executing or recording anything,
// so the retry cannot double-apply.
//
// How hard to try is data, not a second client type: RedialBudget 1
// gives the fail-on-first-refused-connection client (Server.Loopback
// uses it so a dead in-process server surfaces at once), the default 64
// the one that rides out a fault storm.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/fsapi"
)

// Redial produces a fresh transport to the same server. It is called
// once per connection attempt; returning an error counts against the
// session's redial budget.
type Redial func() (io.ReadWriteCloser, error)

// SessionOptions configures a Session. The zero value of every field
// except ClientID gets a sane default.
type SessionOptions struct {
	// ClientID keys the server's duplicate-request cache and MUST be
	// non-zero and stable across reconnects of this logical client.
	ClientID uint64

	// CallTimeout bounds calls whose context carries no deadline, and
	// bounds the HELLO exchange during reconnect (a partition during
	// the handshake would otherwise hang the connect loop forever).
	// Default 30s.
	CallTimeout time.Duration

	// BackoffBase/BackoffMax shape the exponential backoff between
	// redial attempts and before Busy retries: base<<n capped at max,
	// plus uniform jitter of up to half the delay. Defaults 1ms/250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// RedialBudget is the number of CONSECUTIVE failed connection
	// attempts after which the session breaks permanently. Default 64.
	RedialBudget int

	// Seed makes backoff jitter reproducible in tests. 0 means 1.
	Seed int64
}

func (o SessionOptions) withDefaults() SessionOptions {
	if o.CallTimeout <= 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 250 * time.Millisecond
	}
	if o.RedialBudget <= 0 {
		o.RedialBudget = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SessionStats counts the resilience machinery's activations.
type SessionStats struct {
	Reconnects  int64 // successful re-handshakes after the first
	Retransmits int64 // in-flight requests resent with original xids
	BusyRetries int64 // StatusBusy replies retried after backoff
	Deadlines   int64 // calls failed by their context deadline
}

// scall is one in-flight session call. frame is the request up to its
// payload: the header and what an enc* helper (rpc.go) appended, in
// head unless a name outgrew it, patched once before the first
// transmission and never written again. payload is a WRITE's or an
// APPEND's p, the caller's, read only while the call is pending — and a
// pending call's caller is blocked in call. Every transmission is one
// transport write of frame then payload (send), so each carries the
// bytes the DRC fingerprinted first; a reconnect snapshot, which may
// outlive the call, sends a copy of both (connectLoop).
//
// A call is in exactly one place at a time: in Session.pending (where
// call, Close, fail and the reconnect snapshot reach it), or claimed by
// the one demux that read its reply header, which alone touches
// dst/small/rep and owes ch exactly one verdict. call never returns
// while claimed, so demux never writes a buffer the caller has taken
// back.
type scall struct {
	frame   []byte
	payload []byte
	dst     []byte        // READ: the caller's p, where a StatusOK payload lands
	rep     reply         // the verdict, published by the send on ch
	ch      chan struct{} // buffered 1; closed only on terminal session death

	// landing: claimed and the body not yet read. A deadline that finds
	// it set closes the transport — the peer may have gone silent.
	landing atomic.Bool
	small   [24]byte                    // bodies up to handle+attr land here, not in garbage
	head    [reqHeader + reqInline]byte // frame's storage unless a name outgrows it
}

// newCall returns a call whose frame is its own head with the header
// reserved, for an enc* helper to append the body to.
func newCall(dst, payload []byte) *scall {
	sc := &scall{dst: dst, payload: payload, ch: make(chan struct{}, 1)}
	sc.frame = sc.head[:reqHeader]
	return sc
}

// deliver hands the call its verdict: the claiming demux's one send.
func (sc *scall) deliver(rep reply) {
	sc.rep = rep
	sc.ch <- struct{}{}
}

// reply is what demux hands a call (scall.deliver).
type reply struct {
	status Status
	body   []byte // scall.small or a slice made for this reply
	n      int    // READ: payload bytes landed in scall.dst
	err    error  // errTorn, or ErrBadFrame for a self-contradicting READ body
}

// errTorn is the verdict for a reply whose transport died mid-body: the
// call registers again and is retransmitted under its xid.
var errTorn = errors.New("serve: reply torn mid-frame")

// Session is a persistent, reconnecting client connection. All methods
// are safe for concurrent use; any number of goroutines share the one
// transport with many requests in flight.
type Session struct {
	redial Redial
	opts   SessionOptions

	wmu sync.Mutex // serializes frame writes on the current transport
	// scratch is send's contiguous frame of a call with a payload, under
	// wmu; it keeps the capacity of the largest one sent (≤ MaxFrame).
	scratch []byte

	mu         sync.Mutex
	nextXid    uint32
	pending    map[uint32]*scall
	cur        io.ReadWriteCloser // nil while disconnected
	gen        int                // transport generation; bumps per install
	connecting bool               // a connectLoop goroutine is running
	closed     bool
	broken     error // terminal failure; fails all future calls
	root       fsapi.Handle
	rootAttr   Attr
	rng        *mrand.Rand // jitter; guarded by mu

	closeCh chan struct{} // closed by Close: interrupts backoff sleeps

	reconnects  atomic.Int64
	retransmits atomic.Int64
	busyRetries atomic.Int64
	deadlines   atomic.Int64
}

// NewSession connects eagerly (so Root is immediately valid) and
// returns a session that survives transport failures from then on. The
// initial connect uses the same backoff and redial budget as any
// reconnect; if the budget is exhausted NewSession fails.
func NewSession(redial Redial, o SessionOptions) (*Session, error) {
	if o.ClientID == 0 {
		return nil, fmt.Errorf("%w: zero client id", fsapi.ErrInval)
	}
	o = o.withDefaults()
	s := &Session{
		redial:     redial,
		opts:       o,
		pending:    make(map[uint32]*scall),
		connecting: true,
		rng:        mrand.New(mrand.NewSource(o.Seed)),
		closeCh:    make(chan struct{}),
	}
	// Seed the xid space randomly. The server's duplicate-request cache
	// is keyed (clientID, xid) and outlives sessions, so restarting at 0
	// would collide a fresh session's requests with the cached verdicts
	// of a predecessor that used the same clientID. The DRC fingerprints
	// requests so a collision degrades to a cache miss, never a wrong
	// replay — the seed keeps collisions rare, the fingerprint keeps
	// them harmless.
	var seed [4]byte
	if _, err := rand.Read(seed[:]); err == nil {
		s.nextXid = binary.LittleEndian.Uint32(seed[:])
	}
	s.connectLoop()
	s.mu.Lock()
	err := s.broken
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Root reports the root handle from the most recent handshake.
func (s *Session) Root() fsapi.Handle {
	h, _ := s.rootInfo()
	return h
}

// rootInfo reports the root handle and attributes the most recent
// handshake returned.
func (s *Session) rootInfo() (fsapi.Handle, Attr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root, s.rootAttr
}

// Stats snapshots the resilience counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Reconnects:  s.reconnects.Load(),
		Retransmits: s.retransmits.Load(),
		BusyRetries: s.busyRetries.Load(),
		Deadlines:   s.deadlines.Load(),
	}
}

// Close tears the session down. In-flight calls fail with
// ErrSessionClosed; no reconnect is attempted.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	rw := s.cur
	s.cur = nil
	for xid, sc := range s.pending {
		delete(s.pending, xid)
		close(sc.ch)
	}
	s.mu.Unlock()
	close(s.closeCh)
	if rw != nil {
		rw.Close()
	}
	return nil
}

// terminalErr reports why the session can no longer carry calls.
func (s *Session) terminalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	return ErrSessionClosed
}

// fail breaks the session permanently (redial budget exhausted).
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.broken == nil && !s.closed {
		s.broken = err
	}
	for xid, sc := range s.pending {
		delete(s.pending, xid)
		close(sc.ch)
	}
	s.connecting = false
	s.mu.Unlock()
}

// backoffDelay is base<<(attempt) capped at max, plus uniform jitter of
// up to half the delay so a thundering herd of reconnecting clients
// decorrelates.
func (s *Session) backoffDelay(attempt int) time.Duration {
	d := s.opts.BackoffBase
	for i := 0; i < attempt && d < s.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > s.opts.BackoffMax {
		d = s.opts.BackoffMax
	}
	s.mu.Lock()
	j := time.Duration(s.rng.Int63n(int64(d)/2 + 1))
	s.mu.Unlock()
	return d + j
}

// sleep waits for d, Close, ctx or the call's timeout (nil ctx and nil
// timeout = only Close interrupts). It reports false when the wait was
// interrupted.
func (s *Session) sleep(ctx context.Context, timeout <-chan time.Time, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-t.C:
		return true
	case <-s.closeCh:
		return false
	case <-done:
		return false
	case <-timeout:
		return false
	}
}

// suspect force-closes the current transport so the demux error path
// runs a reconnect. Used when a deadline fires: a partitioned transport
// produces no read error on its own, and without this every later call
// would hang on the same black hole.
func (s *Session) suspect() {
	s.mu.Lock()
	rw := s.cur
	if rw == nil || s.connecting || s.closed || s.broken != nil {
		s.mu.Unlock()
		return
	}
	s.cur = nil
	s.connecting = true
	s.mu.Unlock()
	rw.Close()
	go s.connectLoop()
}

// transportBroken runs when gen's demux dies. Stale generations are
// ignored; the live one triggers a reconnect.
func (s *Session) transportBroken(gen int) {
	s.mu.Lock()
	if s.closed || s.broken != nil || gen != s.gen || s.cur == nil {
		s.mu.Unlock()
		return
	}
	rw := s.cur
	s.cur = nil
	s.connecting = true
	s.mu.Unlock()
	rw.Close()
	go s.connectLoop()
}

// connectLoop dials until a handshake succeeds or the budget runs out,
// then installs the transport and retransmits everything pending. The
// install (gen bump, cur swap, pending snapshot) is one critical
// section, and call() registers+captures cur in one critical section,
// so every pending call is EITHER in the snapshot (retransmitted here)
// OR saw the new cur and sends itself — never neither, never both.
func (s *Session) connectLoop() {
	fails := 0
	var lastErr error
	for {
		s.mu.Lock()
		if s.closed || s.broken != nil {
			s.connecting = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()

		rw, err := s.redial()
		if err == nil {
			var root fsapi.Handle
			var rattr Attr
			root, rattr, err = s.hello(rw)
			if err == nil {
				s.mu.Lock()
				if s.closed || s.broken != nil {
					s.connecting = false
					s.mu.Unlock()
					rw.Close()
					return
				}
				s.gen++
				gen := s.gen
				s.cur = rw
				s.root, s.rootAttr = root, rattr
				s.connecting = false
				// A copy of each frame: a pending call's caller is blocked,
				// so its payload holds the bytes it sent first, but the call
				// may return — and its caller rewrite p — before the copy
				// goes out below.
				snap := make([][]byte, 0, len(s.pending))
				for _, sc := range s.pending {
					snap = append(snap, slices.Concat(sc.frame, sc.payload))
				}
				s.mu.Unlock()
				if gen > 1 {
					s.reconnects.Add(1)
				}
				go s.demux(rw, gen)
				for _, frame := range snap {
					// Counted before the write: the reply may complete the
					// call, and its caller read Stats, before send returns.
					s.retransmits.Add(1)
					if s.send(rw, frame, nil) != nil {
						break // demux's error path reconnects and re-snapshots
					}
				}
				return
			}
			rw.Close()
		}
		lastErr = err
		fails++
		if fails >= s.opts.RedialBudget {
			s.fail(fmt.Errorf("%w: session redial budget exhausted: %v", fsapi.ErrIO, lastErr))
			return
		}
		if !s.sleep(nil, nil, s.backoffDelay(fails-1)) {
			s.mu.Lock()
			s.connecting = false
			s.mu.Unlock()
			return
		}
	}
}

// hello runs the handshake synchronously on a transport no demux owns
// yet. CallTimeout bounds it by force-closing the transport: a
// partition striking mid-handshake must not wedge the connect loop.
func (s *Session) hello(rw io.ReadWriteCloser) (fsapi.Handle, Attr, error) {
	s.mu.Lock()
	s.nextXid++
	xid := s.nextXid
	s.mu.Unlock()

	timer := time.AfterFunc(s.opts.CallTimeout, func() { rw.Close() })
	defer timer.Stop()

	hello := sealReq(encHello(make([]byte, reqHeader), s.opts.ClientID), 0, xid, ProcHello)
	if werr := s.send(rw, hello, nil); werr != nil {
		return fsapi.Handle{}, Attr{}, fmt.Errorf("%w: hello write: %v", fsapi.ErrIO, werr)
	}
	fr, _, err := ReadFrame(rw, nil)
	if err != nil {
		return fsapi.Handle{}, Attr{}, fmt.Errorf("%w: hello read: %v", fsapi.ErrIO, err)
	}
	if fr.Xid != xid {
		return fsapi.Handle{}, Attr{}, fmt.Errorf("%w: hello reply xid mismatch", fsapi.ErrIO)
	}
	if st := Status(fr.Op); st != StatusOK {
		return fsapi.Handle{}, Attr{}, st.Err()
	}
	d := NewDec(fr.Body)
	h, a := d.Handle(), d.Attr()
	return h, a, d.Err()
}

// sealReq patches the header an enc* helper reserved, once, before the
// first transmission: the length covers the payload bytes that follow
// frame on the wire.
func sealReq(frame []byte, payload int, xid uint32, proc Proc) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)+payload-4))
	binary.LittleEndian.PutUint32(frame[4:], xid)
	frame[8] = uint8(proc)
	return frame
}

// send transmits one sealed request, frame then payload — first
// transmissions, retransmissions and HELLO alike — as ONE transport
// write (a separate header write would wake the server's reader only to
// park it again): a WRITE's or an APPEND's pair is first concatenated
// into the session's scratch frame, reused under wmu, so no frame-sized
// buffer is allocated per call. Errors are deliberately soft for calls:
// a failed write means the transport is dying, and the demux error path
// will reconnect and retransmit the still-pending call.
func (s *Session) send(rw io.ReadWriteCloser, frame, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if len(payload) > 0 {
		s.scratch = append(append(s.scratch[:0], frame...), payload...)
		frame = s.scratch
	}
	_, err := rw.Write(frame)
	return err
}

// demux reads reply frames from one transport generation and completes
// the matching pending calls. It parses the fixed header, claims the
// call — deleting it from pending BEFORE any body byte is read, so there
// is at most one delivery per registration and the buffered send never
// blocks — then reads the body straight into space the call owns, a
// READ's payload into the caller's p. Every claim ends in one verdict:
// the reply, or errTorn if the transport died under it. MaxFrame is
// checked before the length field sizes anything.
func (s *Session) demux(rw io.ReadWriteCloser, gen int) {
	defer s.transportBroken(gen)
	hdr := make([]byte, reqHeader)
	for {
		if _, err := io.ReadFull(rw, hdr); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr)
		if n < frameHeader || n > MaxFrame {
			return
		}
		xid, rest := binary.LittleEndian.Uint32(hdr[4:]), int(n)-frameHeader

		s.mu.Lock()
		sc := s.pending[xid]
		if sc != nil {
			delete(s.pending, xid)
			sc.landing.Store(true)
		}
		s.mu.Unlock()
		if sc == nil {
			// Late reply for an abandoned or superseded call.
			if discard(rw, rest) != nil {
				return
			}
			continue
		}
		rep, err := sc.recv(rw, Status(hdr[8]), rest)
		sc.landing.Store(false)
		if err != nil {
			// Reconnect first: the call that re-registers on the verdict
			// is then retransmitted once, by the install's snapshot or
			// by itself on the new transport.
			s.transportBroken(gen)
			sc.deliver(reply{err: errTorn})
			return
		}
		sc.deliver(rep)
	}
}

// recv reads the rest bytes of a claimed call's reply body into space
// the call owns. A StatusOK READ body is count:u32 then the payload,
// which lands in dst and nowhere else — at most len(dst), the excess
// discarded; a count the frame cannot back is ErrBadFrame with nothing
// landed. Any other body goes to the inline array or a slice sized by
// the MaxFrame-checked length. A non-nil error is the transport's: the
// body was not fully read.
func (sc *scall) recv(r io.Reader, st Status, rest int) (reply, error) {
	rep := reply{status: st}
	if sc.dst == nil || st != StatusOK {
		if rest <= len(sc.small) {
			rep.body = sc.small[:rest]
		} else {
			rep.body = make([]byte, rest)
		}
		_, err := io.ReadFull(r, rep.body)
		return rep, err
	}
	cnt := -1
	if rest >= 4 {
		if _, err := io.ReadFull(r, sc.small[:4]); err != nil {
			return rep, err
		}
		cnt, rest = int(binary.LittleEndian.Uint32(sc.small[:4])), rest-4
	}
	if cnt < 0 || cnt > rest {
		rep.err = ErrBadFrame
		return rep, discard(r, rest)
	}
	rep.n = min(cnt, len(sc.dst))
	if _, err := io.ReadFull(r, sc.dst[:rep.n]); err != nil {
		return rep, err
	}
	return rep, discard(r, rest-rep.n)
}

// discard skips n bytes of r.
func discard(r io.Reader, n int) error {
	if n == 0 {
		return nil
	}
	_, err := io.CopyN(io.Discard, r, int64(n))
	return err
}

// callTimers recycles the timers that bound deadline-less calls.
var callTimers sync.Pool

// call runs one request to completion across any number of transports:
// sc from newCall, whose frame is what an enc* helper appended to
// sc.frame (see scall).
func (s *Session) call(ctx context.Context, proc Proc, sc *scall, frame []byte) (reply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// CallTimeout bounds a call whose context carries no deadline.
	var timeout <-chan time.Time
	if _, has := ctx.Deadline(); !has {
		t, pooled := callTimers.Get().(*time.Timer)
		if pooled {
			t.Reset(s.opts.CallTimeout)
		} else {
			t = time.NewTimer(s.opts.CallTimeout)
		}
		defer func() {
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			callTimers.Put(t)
		}()
		timeout = t.C
	}
	sc.frame = frame

	s.mu.Lock()
	if err := s.deadLocked(); err != nil {
		s.mu.Unlock()
		return reply{}, err
	}
	s.nextXid++
	xid := s.nextXid
	s.mu.Unlock()
	sealReq(frame, len(sc.payload), xid, proc)

	torn := false
	for attempt := 0; ; attempt++ {
		// Register and capture the transport atomically (see
		// connectLoop for why this pairing matters).
		s.mu.Lock()
		if err := s.deadLocked(); err != nil {
			s.mu.Unlock()
			return reply{}, err
		}
		s.pending[xid] = sc
		rw := s.cur
		s.mu.Unlock()

		if rw != nil {
			if torn {
				s.retransmits.Add(1)
			}
			// A write error is ignored on purpose: the call stays
			// pending and the reconnect retransmits it.
			_ = s.send(rw, frame, sc.payload)
		}
		torn = false

		ok, expired := false, false
		select {
		case _, ok = <-sc.ch:
		case <-ctx.Done():
			expired = true
		case <-timeout:
			expired = true
		}

		if expired {
			s.deadlines.Add(1)
			s.mu.Lock()
			_, still := s.pending[xid]
			delete(s.pending, xid)
			s.mu.Unlock()
			if still {
				// The request may have executed server-side; only a
				// same-xid retransmit would be safe, and the caller's
				// deadline said stop. Suspect the transport so a silent
				// partition turns into a reconnect instead of wedging
				// every subsequent call.
				s.suspect()
				return reply{}, fmt.Errorf("%w (proc %d)", ErrDeadline, proc)
			}
			// A demux claimed us: until its verdict arrives dst is its
			// to write. If it is still reading the body, only closing
			// the transport bounds the wait.
			if sc.landing.Load() {
				s.suspect()
			}
			if _, ok = <-sc.ch; !ok {
				return reply{}, s.terminalErr()
			}
			switch {
			case sc.rep.err == errTorn:
				return reply{}, fmt.Errorf("%w (proc %d)", ErrDeadline, proc)
			case sc.rep.status == StatusBusy:
				// Busy at the deadline: definitely not applied.
				return reply{}, fmt.Errorf("%w: %v", ErrBusy, ErrDeadline)
			}
			// The reply beat the deadline by a hair: take it.
		}

		rep := sc.rep
		switch {
		case !ok:
			return reply{}, s.terminalErr()
		case rep.err == errTorn:
			torn = true
			continue
		case rep.err != nil:
			return reply{}, rep.err
		case rep.status == StatusBusy:
			// Shed before execution, never cached: a same-xid
			// retry after backoff is always safe.
			s.busyRetries.Add(1)
			if !s.sleep(ctx, timeout, s.backoffDelay(attempt)) {
				select {
				case <-s.closeCh:
					return reply{}, s.terminalErr()
				default:
				}
				// Deadline during Busy backoff: the server's last
				// verdict was "not executed", so surface Busy (the
				// caller knows the op definitely did not apply).
				return reply{}, fmt.Errorf("%w: %v", ErrBusy, ErrDeadline)
			}
		case rep.status != StatusOK:
			return reply{}, rep.status.Err()
		default:
			return rep, nil
		}
	}
}

// deadLocked reports the terminal error, if any. Caller holds s.mu.
func (s *Session) deadLocked() error {
	if s.broken != nil {
		return s.broken
	}
	if s.closed {
		return ErrSessionClosed
	}
	return nil
}

// ---------------------------------------------------------------------
// typed RPCs
// ---------------------------------------------------------------------

// Getattr stats a handle.
func (s *Session) Getattr(ctx context.Context, h fsapi.Handle) (Attr, error) {
	sc := newCall(nil, nil)
	rep, err := s.call(ctx, ProcGetattr, sc, AppendHandle(sc.frame, h))
	if err != nil {
		return Attr{}, err
	}
	return decAttr(rep)
}

// Lookup resolves name under dir.
func (s *Session) Lookup(ctx context.Context, dir fsapi.Handle, name string) (fsapi.Handle, Attr, error) {
	sc := newCall(nil, nil)
	rep, err := s.call(ctx, ProcLookup, sc, encDirName(sc.frame, dir, name))
	if err != nil {
		return fsapi.Handle{}, Attr{}, err
	}
	return decHandleAttr(rep)
}

// Read reads up to len(p) bytes at off into p.
func (s *Session) Read(ctx context.Context, h fsapi.Handle, off int64, p []byte) (int, error) {
	sc := newCall(p, nil)
	rep, err := s.call(ctx, ProcRead, sc, encIO(sc.frame, h, off, len(p)))
	return rep.n, err
}

// Write writes p at off.
func (s *Session) Write(ctx context.Context, h fsapi.Handle, off int64, p []byte) (int, error) {
	sc := newCall(nil, p)
	rep, err := s.call(ctx, ProcWrite, sc, encIO(sc.frame, h, off, len(p)))
	if err != nil {
		return 0, err
	}
	return decWrote(rep)
}

// Append appends p, returning the offset it landed at.
func (s *Session) Append(ctx context.Context, h fsapi.Handle, p []byte) (int64, error) {
	sc := newCall(nil, p)
	rep, err := s.call(ctx, ProcAppend, sc, encAppend(sc.frame, h, len(p)))
	if err != nil {
		return 0, err
	}
	return decAppendedAt(rep)
}

// Create creates (or truncates) name under dir.
func (s *Session) Create(ctx context.Context, dir fsapi.Handle, name string, mode uint16) (fsapi.Handle, Attr, error) {
	sc := newCall(nil, nil)
	rep, err := s.call(ctx, ProcCreate, sc, encMakeNode(sc.frame, dir, mode, name))
	if err != nil {
		return fsapi.Handle{}, Attr{}, err
	}
	return decHandleAttr(rep)
}

// Mkdir creates a directory under dir.
func (s *Session) Mkdir(ctx context.Context, dir fsapi.Handle, name string, mode uint16) (fsapi.Handle, Attr, error) {
	sc := newCall(nil, nil)
	rep, err := s.call(ctx, ProcMkdir, sc, encMakeNode(sc.frame, dir, mode, name))
	if err != nil {
		return fsapi.Handle{}, Attr{}, err
	}
	return decHandleAttr(rep)
}

// Remove unlinks a file name under dir.
func (s *Session) Remove(ctx context.Context, dir fsapi.Handle, name string) error {
	sc := newCall(nil, nil)
	_, err := s.call(ctx, ProcRemove, sc, encDirName(sc.frame, dir, name))
	return err
}

// Rmdir removes an empty directory name under dir.
func (s *Session) Rmdir(ctx context.Context, dir fsapi.Handle, name string) error {
	sc := newCall(nil, nil)
	_, err := s.call(ctx, ProcRmdir, sc, encDirName(sc.frame, dir, name))
	return err
}

// Rename moves fromName under fromDir to toName under toDir.
func (s *Session) Rename(ctx context.Context, fromDir fsapi.Handle, fromName string, toDir fsapi.Handle, toName string) error {
	sc := newCall(nil, nil)
	_, err := s.call(ctx, ProcRename, sc, encRename(sc.frame, fromDir, toDir, fromName, toName))
	return err
}

// Readdir lists the names under a directory handle, following the
// server's continuation cookie until the listing completes — each page
// is one bounded reply frame, so arbitrarily large directories list
// without ever exceeding MaxFrame.
func (s *Session) Readdir(ctx context.Context, h fsapi.Handle) ([]string, error) {
	var names []string
	cookie := uint32(0)
	for {
		sc := newCall(nil, nil)
		rep, err := s.call(ctx, ProcReaddir, sc, encReaddir(sc.frame, h, cookie))
		if err != nil {
			return nil, err
		}
		var next uint32
		if names, next, err = decDirPage(rep, names); err != nil {
			return nil, err
		}
		if next == 0 {
			return names, nil
		}
		if next <= cookie {
			return nil, fmt.Errorf("%w: readdir cookie did not advance", fsapi.ErrIO)
		}
		cookie = next
	}
}

// Setattr truncates the file a handle names.
func (s *Session) Setattr(ctx context.Context, h fsapi.Handle, size int64) error {
	sc := newCall(nil, nil)
	_, err := s.call(ctx, ProcSetattr, sc, encSetattr(sc.frame, h, size))
	return err
}

// Commit syncs the file a handle names.
func (s *Session) Commit(ctx context.Context, h fsapi.Handle) error {
	sc := newCall(nil, nil)
	_, err := s.call(ctx, ProcCommit, sc, AppendHandle(sc.frame, h))
	return err
}
