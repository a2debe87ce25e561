// In-process loopback transport: a buffered duplex byte pipe plus an
// fsapi.FS wrapper that mounts a server and a wire client over it.
//
// io.Pipe/net.Pipe are synchronous — every Write rendezvouses with a
// Read — which would serialize the very pipelining this subsystem
// exists to measure. This pipe buffers like a TCP socket: writes land
// in a bounded ring and block only when it fills (flow control), so a
// client can genuinely keep depth-N requests in flight against an
// in-process server. The loopback is both the conformance vehicle (the
// wire path runs the whole internal/fstest suite) and the experiment
// transport (-experiment serving measures pipelined vs serial RPC over
// it with zero kernel networking noise).
package serve

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"trio/internal/fsapi"
)

// pipeBuf is one direction: a bounded ring with blocking read/write
// and per-endpoint deadlines in the net.Conn style.
type pipeBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	r, w   int // read/write cursors; n tracks occupancy
	n      int
	closed bool

	// rdl/wdl fail blocked reads/writes past the deadline (zero = none).
	// The timers broadcast the cond so parked waiters re-check.
	rdl, wdl       time.Time
	rTimer, wTimer *time.Timer
}

func newPipeBuf(capacity int) *pipeBuf {
	p := &pipeBuf{buf: make([]byte, capacity)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func expired(dl time.Time) bool {
	return !dl.IsZero() && !time.Now().Before(dl)
}

// armDeadline re-points one of the wakeup timers; caller holds p.mu.
func (p *pipeBuf) armDeadline(t *time.Timer, dl time.Time) *time.Timer {
	if t != nil {
		t.Stop()
	}
	if dl.IsZero() {
		return nil
	}
	d := time.Until(dl)
	if d < 0 {
		d = 0
	}
	return time.AfterFunc(d, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
}

func (p *pipeBuf) setReadDeadline(dl time.Time) {
	p.mu.Lock()
	p.rdl = dl
	p.rTimer = p.armDeadline(p.rTimer, dl)
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipeBuf) setWriteDeadline(dl time.Time) {
	p.mu.Lock()
	p.wdl = dl
	p.wTimer = p.armDeadline(p.wTimer, dl)
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipeBuf) write(b []byte) (int, error) {
	total := 0
	p.mu.Lock()
	defer p.mu.Unlock()
	for total < len(b) {
		for p.n == len(p.buf) && !p.closed && !expired(p.wdl) {
			p.cond.Wait()
		}
		if p.n == len(p.buf) && expired(p.wdl) {
			return total, os.ErrDeadlineExceeded
		}
		if p.closed {
			return total, fmt.Errorf("%w: loopback pipe closed", io.ErrClosedPipe)
		}
		for total < len(b) && p.n < len(p.buf) {
			span := len(p.buf) - p.w
			if span > len(p.buf)-p.n {
				span = len(p.buf) - p.n
			}
			if span > len(b)-total {
				span = len(b) - total
			}
			copy(p.buf[p.w:p.w+span], b[total:total+span])
			p.w = (p.w + span) % len(p.buf)
			p.n += span
			total += span
		}
		p.cond.Broadcast()
	}
	return total, nil
}

func (p *pipeBuf) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 && !p.closed && !expired(p.rdl) {
		p.cond.Wait()
	}
	if p.n == 0 && expired(p.rdl) && !p.closed {
		return 0, os.ErrDeadlineExceeded
	}
	if p.n == 0 {
		return 0, io.EOF
	}
	total := 0
	for total < len(b) && p.n > 0 {
		span := len(p.buf) - p.r
		if span > p.n {
			span = p.n
		}
		if span > len(b)-total {
			span = len(b) - total
		}
		copy(b[total:total+span], p.buf[p.r:p.r+span])
		p.r = (p.r + span) % len(p.buf)
		p.n -= span
		total += span
	}
	p.cond.Broadcast()
	return total, nil
}

func (p *pipeBuf) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// half is one endpoint of the duplex pipe.
type half struct {
	rd, wr *pipeBuf
}

func (h *half) Read(b []byte) (int, error)  { return h.rd.read(b) }
func (h *half) Write(b []byte) (int, error) { return h.wr.write(b) }

// SetReadDeadline/SetWriteDeadline give the loopback the net.Conn
// deadline surface the server's dead-peer shedding probes for. A
// deadline only fails an op that would BLOCK past it; buffered data
// still delivers.
func (h *half) SetReadDeadline(t time.Time) error  { h.rd.setReadDeadline(t); return nil }
func (h *half) SetWriteDeadline(t time.Time) error { h.wr.setWriteDeadline(t); return nil }

// Close tears down both directions: the peer's pending reads drain then
// EOF, its writes fail.
func (h *half) Close() error {
	h.rd.close()
	h.wr.close()
	return nil
}

// NewDuplex returns two connected endpoints, each direction buffering
// up to capacity bytes.
func NewDuplex(capacity int) (a, b io.ReadWriteCloser) {
	ab := newPipeBuf(capacity)
	ba := newPipeBuf(capacity)
	return &half{rd: ba, wr: ab}, &half{rd: ab, wr: ba}
}

// loopbackBuf is the per-direction buffer of loopback connections:
// comfortably more than one max-depth pipeline of small frames plus a
// few data frames.
const loopbackBuf = 1 << 20

// Loopback opens one more in-process client of the server. Every
// transport its session dials is a fresh NewDuplex served by ServeConn,
// so a killed connection heals like any other; what it must not do is
// back off 64 times against a server that is gone — so the budget is
// one attempt, and the redial refuses outright once the server is
// closed or draining: calls then fail with an ErrIO-wrapped error at
// once. Used by the load generators to run many clients against one
// in-process server.
func (s *Server) Loopback(clientID uint64) (*Session, error) {
	redial := func() (io.ReadWriteCloser, error) {
		s.mu.Lock()
		down := s.closed || s.draining.Load()
		s.mu.Unlock()
		if down {
			return nil, errServerClosed
		}
		a, b := NewDuplex(loopbackBuf)
		go s.ServeConn(a)
		return b, nil
	}
	return NewSession(redial, SessionOptions{ClientID: clientID, RedialBudget: 1})
}

// LoopbackFS mounts inner behind an in-process server and presents the
// wire client back as an fsapi.FS — the conformance vehicle: if this
// passes internal/fstest, the wire preserves in-process semantics.
type LoopbackFS struct {
	inner fsapi.FS
	srv   *Server
	sess  *Session
}

var _ fsapi.FS = (*LoopbackFS)(nil)

// NewLoopbackFS wraps inner. The wrapper owns inner: Close tears down
// the session, the server, and then inner itself.
func NewLoopbackFS(inner fsapi.FS, opts Options) (*LoopbackFS, error) {
	srv, err := NewServer(inner, opts)
	if err != nil {
		return nil, err
	}
	sess, err := srv.Loopback(1)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &LoopbackFS{inner: inner, srv: srv, sess: sess}, nil
}

// Name implements fsapi.FS.
func (l *LoopbackFS) Name() string { return l.inner.Name() + "+serve" }

// NewClient implements fsapi.FS. Every client shares the one pipelined
// session — concurrent clients are exactly what exercises the
// out-of-order completion path.
func (l *LoopbackFS) NewClient(cpu int) fsapi.Client { return NewClient(l.sess) }

// Server exposes the in-process server (for extra Loopback sessions).
func (l *LoopbackFS) Server() *Server { return l.srv }

// Close implements fsapi.FS. inner is closed only after every
// connection the session ever dialed has finished serving: a worker's
// exit closes its cached files, which must not outlive the FS.
func (l *LoopbackFS) Close() error {
	l.sess.Close()
	l.srv.Close()
	l.srv.connWG.Wait()
	return l.inner.Close()
}
