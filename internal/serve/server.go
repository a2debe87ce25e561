// The protocol server: per-connection pipelining machinery mapped onto
// an fsapi.FS.
//
// Each connection runs a reader and a pool of workers; a reply leaves
// from the worker that made it, there is no writer goroutine:
//
//	reader ──reqs──▶ workers(×N) ──▶ transport
//	                     └─▶ queue ─┘ (while another worker is writing)
//
// The reader decodes frames and admits them under the per-connection
// in-flight cap (the backpressure the tentpole asks for: a client that
// pipelines past the cap blocks in the transport, it cannot balloon
// server memory). Workers execute out of order — each owns its own
// fsapi.Client and a small open-file cache — so a slow READ never
// blocks the metadata traffic behind it. A worker that finishes a reply
// while nobody is flushing writes it itself; otherwise it queues it for
// the current flusher, which coalesces every small reply it finds into
// one transport write (reply batching); xids, not arrival order, tell
// the client which request each reply answers.
//
// Buffers change owner instead of being copied. The reader hands the
// pooled buffer it read a frame into to the worker and takes a fresh
// one; the worker decodes views into it (the FS consumes a WRITE's
// payload from where it landed) and returns it to the pool. A reply is
// built in a pooled buffer — a READ reads the file straight into it —
// that is the worker's until sendReply and the flusher's after, and a
// payload frame goes to the transport from that buffer. So this side
// copies a READ NVM → reply frame → transport and a WRITE transport →
// request buffer → NVM.
//
// The server holds no per-client open-file state the protocol depends
// on: worker file caches are a pure performance cache, invalidated
// wholesale on namespace mutations via a server-wide epoch.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/fsapi"
	"trio/internal/telemetry"
)

// Options tunes a Server. Zero values select the defaults.
type Options struct {
	// Workers is the number of executor goroutines per connection
	// (default 4). Keep conns×workers near the device's per-node
	// concurrency sweet spot; more buys nothing but contention.
	Workers int
	// MaxInflight caps admitted-but-unreplied requests per connection
	// (default 64). This is the pipelining depth the server grants.
	MaxInflight int
	// DRCSize bounds the duplicate-request cache (default 1024 entries).
	DRCSize int
	// FileCache bounds each worker's open-file cache (default 16).
	FileCache int
	// HandleCap bounds the server-side handle→path table (default
	// 65536 entries). The table is an LRU: a handle evicted under
	// pressure answers ErrStale on its next use — the legitimate
	// stateless-server verdict — instead of the table growing without
	// bound on read-mostly workloads.
	HandleCap int
	// ServerInflight caps admitted-but-unreplied requests across ALL
	// connections (default 1024). Past it the server sheds new
	// requests with StatusBusy instead of queueing without bound — one
	// flooding tenant degrades into client-side backoff, not server
	// collapse. Shedding happens in the reader, before the DRC and
	// before dispatch, so a Busy verdict is never cached and a same-xid
	// retry is always safe.
	ServerInflight int
	// DRCTTL expires duplicate-request-cache verdicts by age (default
	// 2 minutes) in addition to the DRCSize FIFO cap, so a long-lived
	// quiet client cannot pin stale verdicts. It must comfortably
	// exceed any client's retry horizon.
	DRCTTL time.Duration
	// ReadTimeout/WriteTimeout, when positive and the transport
	// supports deadlines (net.Conn, the loopback duplex), bound each
	// frame read / reply batch write so a dead peer is shed instead of
	// holding a connection's goroutines forever. Default 0 = off.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.DRCSize <= 0 {
		o.DRCSize = 1024
	}
	if o.FileCache <= 0 {
		o.FileCache = 16
	}
	if o.HandleCap <= 0 {
		o.HandleCap = 65536
	}
	if o.ServerInflight <= 0 {
		o.ServerInflight = 1024
	}
	if o.DRCTTL <= 0 {
		o.DRCTTL = 2 * time.Minute
	}
	return o
}

// Server serves the trio wire protocol from one mounted fsapi.FS.
type Server struct {
	fs   fsapi.FS
	opts Options
	tab  *handleTab
	drc  *drc

	root     fsapi.Handle
	rootAttr Attr

	// epoch invalidates worker file caches after namespace mutations.
	epoch atomic.Uint64
	// cpuSeq spreads worker fsapi.Clients across CPU hints.
	cpuSeq atomic.Int64

	// inflight is the server-wide admitted-request count; admission
	// control sheds with StatusBusy past opts.ServerInflight.
	inflight atomic.Int64
	// draining: no new connections, no new requests (Busy), in-flight
	// work completes and flushes. Set by Drain.
	draining atomic.Bool

	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool
	// connWG counts running ServeConn calls. Add happens under mu while
	// !closed, so a Wait after Close sees every connection there was.
	connWG sync.WaitGroup
}

var errServerClosed = errors.New("serve: server closed")

// admit claims one slot of the server-wide in-flight budget; callers
// that get false must shed the request with StatusBusy.
func (s *Server) admit() bool {
	if s.inflight.Add(1) > int64(s.opts.ServerInflight) {
		s.inflight.Add(-1)
		return false
	}
	return true
}

func (s *Server) release() { s.inflight.Add(-1) }

// NewServer mounts a protocol server over fs. It probes fs for native
// handle support (fsapi.HandleClient) and mints the root handle.
func NewServer(fs fsapi.FS, opts Options) (*Server, error) {
	c := fs.NewClient(0)
	_, native := c.(fsapi.HandleClient)
	o := opts.withDefaults()
	s := &Server{
		fs:    fs,
		opts:  o,
		tab:   newHandleTab(native, o.HandleCap),
		drc:   newDRC(o.DRCSize, o.DRCTTL),
		conns: make(map[*srvConn]struct{}),
	}
	info, err := c.Stat("/")
	if err != nil {
		return nil, fmt.Errorf("serve: stat root: %w", err)
	}
	s.root = s.tab.mint("/", info)
	s.tab.pin(s.root)
	s.rootAttr = AttrOf(info)
	return s, nil
}

// Root reports the root handle HELLO hands out.
func (s *Server) Root() fsapi.Handle { return s.root }

// Serve accepts connections from l until it fails (or s is closed).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// Close tears down every active connection. The mounted FS is not
// closed; the caller owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.closeTransport()
	}
	return nil
}

// Drain shuts the server down gracefully: stop accepting connections,
// shed NEW requests with StatusBusy, let every admitted request
// complete and its reply reach the transport, then Close. The ctx
// bounds how long to wait; on expiry the remaining connections are
// torn down hard and ctx's error is returned.
//
// Acked-durability contract: any mutation whose reply was written
// before Drain returns is durable and will never be re-executed —
// draining never cancels work the server already accepted.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for {
		if s.quiesced() {
			return s.Close()
		}
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// quiesced reports whether every admitted request has completed AND its
// reply has been handed to the transport.
func (s *Server) quiesced() bool {
	if s.inflight.Load() != 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.unflushed.Load() != 0 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// per-connection machinery
// ---------------------------------------------------------------------

// request is one admitted frame. buf is the pooled buffer the reader
// read it into, the worker's to return to the pool once it has
// executed; body is the view of it past the xid and op bytes.
type request struct {
	xid       uint32
	proc      Proc
	buf, body []byte
}

type srvConn struct {
	srv *Server
	rw  io.ReadWriteCloser

	clientID atomic.Uint64 // set by HELLO; requests before it are fatal

	sem  chan struct{} // in-flight cap
	reqs chan request

	// Reply hand-off: finished reply frames (pooled buffers) queue under
	// wmu; whoever queues one while nobody is flushing becomes the
	// flusher until the queue is empty. Senders to a full queue wait for
	// room, so a peer that stops reading stalls the workers (and, through
	// their in-flight slots, the reader) instead of growing the queue.
	wmu      sync.Mutex
	room     sync.Cond // signalled when the flusher takes the queue
	queue    [][]byte
	flushing bool

	// unflushed counts replies queued but not yet handed to the
	// transport; Drain waits for it to reach zero so an acked mutation's
	// reply is actually on the wire before the server goes away.
	unflushed atomic.Int64

	// rd/wd are the transport's deadline hooks, nil when it has none.
	rd interface{ SetReadDeadline(time.Time) error }
	wd interface{ SetWriteDeadline(time.Time) error }

	// The flusher's own: spare queue slice, coalescing buffer, write failed.
	spare  [][]byte
	out    []byte
	broken bool

	workerWG sync.WaitGroup
	closer   sync.Once
}

// sendReply queues one complete reply frame, keeping the unflushed
// count Drain polls in step, and flushes the queue itself unless
// somebody already is. Every reply path must come through here.
func (c *srvConn) sendReply(frame []byte) {
	c.unflushed.Add(1)
	c.wmu.Lock()
	for c.flushing && len(c.queue) > c.srv.opts.MaxInflight {
		c.room.Wait()
	}
	c.queue = append(c.queue, frame)
	if c.flushing {
		c.wmu.Unlock()
		return
	}
	c.flushing = true
	for len(c.queue) > 0 {
		batch := c.queue
		c.queue = c.spare[:0]
		c.room.Broadcast()
		c.wmu.Unlock()
		c.flush(batch)
		c.wmu.Lock()
		c.spare = batch
	}
	c.flushing = false
	c.wmu.Unlock()
}

// bufPool recycles request frames and reply frames.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuf() []byte  { return (*(bufPool.Get().(*[]byte)))[:0] }
func putBuf(b []byte) { bufPool.Put(&b) }

// ServeConn runs one connection to completion. It is the entry point
// shared by the TCP accept loop and the in-process loopback transport.
func (s *Server) ServeConn(rw io.ReadWriteCloser) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		rw.Close()
		return errServerClosed
	}
	c := &srvConn{
		srv:  s,
		rw:   rw,
		sem:  make(chan struct{}, s.opts.MaxInflight),
		reqs: make(chan request, s.opts.MaxInflight),
	}
	c.room.L = &c.wmu
	if s.opts.ReadTimeout > 0 {
		c.rd, _ = rw.(interface{ SetReadDeadline(time.Time) error })
	}
	if s.opts.WriteTimeout > 0 {
		c.wd, _ = rw.(interface{ SetWriteDeadline(time.Time) error })
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	defer s.connWG.Done()
	mConns.Inc()
	mConnsTotal.Inc()

	for i := 0; i < s.opts.Workers; i++ {
		c.workerWG.Add(1)
		go c.worker(i)
	}

	err := c.readLoop()

	// Every flusher is a worker or was the reader: once the workers are
	// gone the reply queue is empty and flushed.
	close(c.reqs)
	c.workerWG.Wait()
	c.closeTransport()

	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	mConns.Add(-1)
	return err
}

func (c *srvConn) closeTransport() {
	c.closer.Do(func() { c.rw.Close() })
}

// readLoop decodes and admits requests until the transport ends.
func (c *srvConn) readLoop() error {
	buf := getBuf()
	defer func() { putBuf(buf) }()
	for {
		if c.rd != nil {
			c.rd.SetReadDeadline(time.Now().Add(c.srv.opts.ReadTimeout))
		}
		fr, nbuf, err := ReadFrame(c.rw, buf)
		buf = nbuf
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, ErrBadFrame) {
				mBadFrame.Inc()
			}
			return err
		}
		if Proc(fr.Op) == ProcHello {
			if err := c.hello(fr); err != nil {
				return err
			}
			continue
		}
		if c.clientID.Load() == 0 {
			// Requests before HELLO have no DRC identity; drop the
			// connection rather than guess.
			mBadFrame.Inc()
			return fmt.Errorf("%w: request before HELLO", ErrBadFrame)
		}
		if Proc(fr.Op) >= procCount {
			// Unknown proc: answer StatusBadProc here, never dispatch.
			// The op byte is attacker-controlled and downstream paths
			// index fixed-size per-proc tables with it.
			mBadFrame.Inc()
			reply := BeginFrame(getBuf(), fr.Xid, uint8(StatusBadProc))
			c.sendReply(EndFrame(reply, 0))
			continue
		}
		if c.srv.draining.Load() || !c.srv.admit() {
			// Overload shedding / drain. This verdict is issued BEFORE
			// the DRC claim and before dispatch: the request did not
			// execute and nothing was cached, so a same-xid retry after
			// the client's backoff is always safe.
			mShed.Inc()
			reply := BeginFrame(getBuf(), fr.Xid, uint8(StatusBusy))
			c.sendReply(EndFrame(reply, 0))
			continue
		}
		c.sem <- struct{}{} // backpressure: cap in-flight
		mInflight.Inc()
		c.reqs <- request{xid: fr.Xid, proc: Proc(fr.Op), buf: buf, body: fr.Body}
		buf = getBuf()
	}
}

// hello handles the handshake inline on the reader, so clientID is
// visible before any pipelined request behind it is dispatched.
func (c *srvConn) hello(fr Frame) error {
	d := NewDec(fr.Body)
	magic, ver, id := d.U32(), d.U16(), d.U64()
	reply := getBuf()
	if d.Err() != nil || magic != Magic || ver != ProtoVersion || id == 0 {
		reply = BeginFrame(reply, fr.Xid, uint8(StatusInval))
		c.sendReply(EndFrame(reply, 0))
		return fmt.Errorf("%w: bad HELLO", ErrBadFrame)
	}
	c.clientID.Store(id)
	reply = BeginFrame(reply, fr.Xid, uint8(StatusOK))
	reply = AppendHandle(reply, c.srv.root)
	reply = AppendAttr(reply, c.srv.rootAttr)
	c.sendReply(EndFrame(reply, 0))
	mRPCs.Inc()
	mProcs[ProcHello].Inc()
	return nil
}

// coalesceMax is the largest reply frame copied into a batch buffer to
// share a transport write; anything bigger carries a payload.
const coalesceMax = 1024

// flush hands a batch of reply frames to the transport in order and
// returns them to the pool: small frames coalesced into one write, a
// payload frame (or a lone frame) written as it is, never re-copied.
func (c *srvConn) flush(batch [][]byte) {
	out, held := c.out[:0], int64(0)
	for _, f := range batch {
		if len(batch) > 1 && len(f) <= coalesceMax {
			out, held = append(out, f...), held+1
		} else {
			if held > 0 {
				c.write(out, held)
				out, held = out[:0], 0
			}
			c.write(f, 1)
		}
		putBuf(f)
	}
	if held > 0 {
		c.write(out, held)
	}
	c.out = out
	// Flushed (or unflushable: the peer is gone and these replies can
	// never be delivered — Drain must not wait on a dead conn).
	c.unflushed.Add(-int64(len(batch)))
}

// write is one transport write of frames reply frames. A failed write
// closes the transport (unblocking the reader); later replies are dropped.
func (c *srvConn) write(b []byte, frames int64) {
	if c.broken {
		return
	}
	if c.wd != nil {
		c.wd.SetWriteDeadline(time.Now().Add(c.srv.opts.WriteTimeout))
	}
	if _, err := c.rw.Write(b); err != nil {
		c.broken = true
		c.closeTransport()
		return
	}
	mReplyBatches.Inc()
	mReplyFrames.Add(frames)
}

// worker executes admitted requests out of order. Each worker owns a
// private fsapi.Client (the per-thread contract of the FS layer) and a
// bounded open-file cache.
func (c *srvConn) worker(id int) {
	defer c.workerWG.Done()
	client := c.srv.fs.NewClient(int(c.srv.cpuSeq.Add(1)))
	fc := newFileCache(c.srv.opts.FileCache)
	defer fc.closeAll()
	for req := range c.reqs {
		c.handle(client, fc, id, req)
	}
}

func (c *srvConn) handle(client fsapi.Client, fc *fileCache, id int, req request) {
	var start time.Time
	if telemetry.On() {
		start = time.Now()
	}
	var reply []byte
	if nonIdempotent(req.proc) {
		key := drcKey{client: c.clientID.Load(), xid: req.xid}
		entry, dup := c.srv.drc.claim(key, reqFingerprint(req.proc, req.body))
		if dup {
			<-entry.done
			mDRCHits.Inc()
			reply = append(getBuf(), entry.reply...)
		} else {
			reply = c.exec(client, fc, req)
			c.srv.drc.record(key, entry, reply)
		}
	} else {
		reply = c.exec(client, fc, req)
	}
	putBuf(req.buf)
	c.sendReply(reply)
	<-c.sem
	c.srv.release()
	mInflight.Add(-1)
	mRPCs.IncOn(id)
	mProcs[req.proc].IncOn(id)
	if telemetry.On() {
		mRPCNanos.ObserveSince(start)
	}
}

// dirPath resolves a handle that a namespace op needs as a directory.
// A handle that is not in the table but still resolves to a live
// regular file answers ErrNotDir (the POSIX verdict), not ErrStale.
func (c *srvConn) dirPath(client fsapi.Client, h fsapi.Handle) (string, error) {
	dir, err := c.srv.tab.dirPath(h)
	if err == nil {
		return dir, nil
	}
	if info, serr := c.srv.tab.statHandle(client, h); serr == nil && !info.IsDir {
		return "", fsapi.ErrNotDir
	}
	return "", err
}

// errReply rebuilds buf as a bare status frame.
func errReply(buf []byte, xid uint32, err error) []byte {
	if errors.Is(err, fsapi.ErrStale) {
		mStale.Inc()
	}
	buf = BeginFrame(buf[:0], xid, uint8(StatusOf(err)))
	return EndFrame(buf, 0)
}

// exec runs one request and returns its encoded reply frame (in a
// pooled buffer the writer releases).
func (c *srvConn) exec(client fsapi.Client, fc *fileCache, req request) []byte {
	s := c.srv
	d := NewDec(req.body)
	buf := getBuf()
	ok := func() []byte { return EndFrame(buf, 0) }

	switch req.proc {
	case ProcNull:
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()

	case ProcGetattr:
		h := d.Handle()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		info, err := s.tab.statHandle(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = AppendAttr(buf, AttrOf(info))
		return ok()

	case ProcLookup:
		h, name := d.Handle(), d.Name()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		if err := CheckName(name); err != nil {
			return errReply(buf, req.xid, err)
		}
		dir, err := c.dirPath(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		path := joinPath(dir, string(name))
		info, err := client.Stat(path)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		nh := s.tab.mint(path, info)
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = AppendHandle(buf, nh)
		buf = AppendAttr(buf, AttrOf(info))
		return ok()

	case ProcRead:
		h, off, n := d.Handle(), int64(d.U64()), int(d.U32())
		if d.Err() != nil || n < 0 || n > MaxFrame-64 {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(c, client, h, false)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		// Encode optimistically: reserve count + n bytes without filling
		// them, read straight into the reply buffer, patch the count. The
		// frame is truncated to what ReadAt overwrote, so nothing a
		// recycled buffer held before leaves the process.
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		pos := len(buf)
		buf = slices.Grow(buf, 4+n)[:pos+4+n]
		cnt, err := f.ReadAt(buf[pos+4:], off)
		if err != nil {
			fc.drop(h, false)
			return errReply(buf, req.xid, err)
		}
		buf = buf[:pos+4+cnt]
		binary.LittleEndian.PutUint32(buf[pos:], uint32(cnt))
		return ok()

	case ProcWrite:
		h, off := d.Handle(), int64(d.U64())
		data := d.Bytes()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(c, client, h, true)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		cnt, err := f.WriteAt(data, off)
		if err != nil {
			fc.drop(h, true)
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = appendU32(buf, uint32(cnt))
		return ok()

	case ProcAppend:
		h := d.Handle()
		data := d.Bytes()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(c, client, h, true)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		at, err := f.Append(data)
		if err != nil {
			fc.drop(h, true)
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = appendU64(buf, uint64(at))
		return ok()

	case ProcCreate, ProcMkdir:
		h := d.Handle()
		mode := d.U16()
		name := d.Name()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		if err := CheckName(name); err != nil {
			return errReply(buf, req.xid, err)
		}
		dir, err := c.dirPath(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		path := joinPath(dir, string(name))
		if req.proc == ProcCreate {
			f, cerr := client.Create(path, mode)
			if cerr != nil {
				return errReply(buf, req.xid, cerr)
			}
			f.Close()
			// Creating over an existing name truncates: cached opens of
			// the old content must not serve stale sizes.
			s.epoch.Add(1)
		} else {
			if merr := client.Mkdir(path, mode); merr != nil {
				return errReply(buf, req.xid, merr)
			}
		}
		info, err := client.Stat(path)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		nh := s.tab.mint(path, info)
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = AppendHandle(buf, nh)
		buf = AppendAttr(buf, AttrOf(info))
		return ok()

	case ProcRemove, ProcRmdir:
		h := d.Handle()
		name := d.Name()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		if err := CheckName(name); err != nil {
			return errReply(buf, req.xid, err)
		}
		dir, err := c.dirPath(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		path := joinPath(dir, string(name))
		// Identify the victim before the namespace changes, but forget
		// its table entry only on success — a failed remove must leave
		// live handles resolvable.
		victim, haveVictim := fsapi.Handle{}, false
		if info, serr := client.Stat(path); serr == nil {
			victim = fsapi.Handle{Ino: info.Ino}
			if !s.tab.native {
				victim.Gen = pathGen(path)
			}
			haveVictim = true
		}
		if req.proc == ProcRemove {
			err = client.Unlink(path)
		} else {
			err = client.Rmdir(path)
		}
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		if haveVictim {
			s.tab.forget(victim)
		}
		s.epoch.Add(1)
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()

	case ProcRename:
		fromH, toH := d.Handle(), d.Handle()
		fromName, toName := d.Name(), d.Name()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		if err := CheckName(fromName); err != nil {
			return errReply(buf, req.xid, err)
		}
		if err := CheckName(toName); err != nil {
			return errReply(buf, req.xid, err)
		}
		fromDir, err := c.dirPath(client, fromH)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		toDir, err := c.dirPath(client, toH)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		from, to := joinPath(fromDir, string(fromName)), joinPath(toDir, string(toName))
		// On success the moved inode's handle follows it to the new
		// path; a replaced destination inode's handle turns stale. A
		// failed rename changes no table state.
		handleAt := func(p string) (fsapi.Handle, bool) {
			info, serr := client.Stat(p)
			if serr != nil {
				return fsapi.Handle{}, false
			}
			v := fsapi.Handle{Ino: info.Ino}
			if !s.tab.native {
				v.Gen = pathGen(p)
			}
			return v, true
		}
		moved, haveMoved := handleAt(from)
		replaced, haveReplaced := handleAt(to)
		if err := client.Rename(from, to); err != nil {
			return errReply(buf, req.xid, err)
		}
		if haveReplaced {
			s.tab.forget(replaced)
		}
		if haveMoved {
			s.tab.remap(moved, from, to)
		}
		s.epoch.Add(1)
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()

	case ProcReaddir:
		h, cookie := d.Handle(), int(d.U32())
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		dir, err := c.dirPath(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		names, err := client.ReadDir(dir)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		// Page the listing: one reply carries at most maxDirPayload
		// bytes of entries plus a continuation cookie (the index of the
		// next unsent entry, 0 = listing complete). Without the cap a
		// big directory would emit a frame past MaxFrame, which the
		// peer rejects — tearing down the connection instead of
		// listing. Index cookies give the usual weak READDIR guarantee:
		// entries mutated between pages may be missed or repeated.
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		cntPos := len(buf)
		buf = appendU32(buf, 0)
		limit := len(buf) + maxDirPayload
		i := cookie
		if i > len(names) {
			i = len(names)
		}
		n := 0
		for ; i < len(names); i++ {
			if n > 0 && len(buf)+2+len(names[i]) > limit {
				break
			}
			buf = AppendString(buf, names[i])
			n++
		}
		binary.LittleEndian.PutUint32(buf[cntPos:], uint32(n))
		next := uint32(0)
		if i < len(names) {
			next = uint32(i)
		}
		buf = appendU32(buf, next)
		return ok()

	case ProcSetattr:
		h, size := d.Handle(), int64(d.U64())
		if d.Err() != nil || size < 0 {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(c, client, h, true)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		if err := f.Truncate(size); err != nil {
			fc.drop(h, true)
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()

	case ProcCommit:
		h := d.Handle()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(c, client, h, true)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		if err := f.Sync(); err != nil {
			fc.drop(h, true)
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()
	}

	buf = BeginFrame(buf, req.xid, uint8(StatusBadProc))
	return ok()
}

// ---------------------------------------------------------------------
// worker open-file cache
// ---------------------------------------------------------------------

// fileCache is one worker's bounded cache of resolved open files. It is
// a pure performance cache: correctness never depends on it because a
// namespace mutation anywhere bumps the server epoch and the next
// access flushes everything.
type fileCache struct {
	cap   int
	epoch uint64
	m     map[uint64]fsapi.File
	order []uint64
}

func newFileCache(capacity int) *fileCache {
	return &fileCache{cap: capacity, m: make(map[uint64]fsapi.File, capacity)}
}

func cacheKey(h fsapi.Handle, write bool) uint64 {
	k := h.Pack() << 1
	if write {
		k |= 1
	}
	return k
}

func (fc *fileCache) get(c *srvConn, client fsapi.Client, h fsapi.Handle, write bool) (fsapi.File, error) {
	if e := c.srv.epoch.Load(); e != fc.epoch {
		fc.closeAll()
		fc.epoch = e
	}
	key := cacheKey(h, write)
	if f, ok := fc.m[key]; ok {
		return f, nil
	}
	f, err := c.srv.tab.openFile(client, h, write)
	if err != nil {
		return nil, err
	}
	for len(fc.order) >= fc.cap {
		old := fc.order[0]
		fc.order = fc.order[1:]
		if of, ok := fc.m[old]; ok {
			of.Close()
			delete(fc.m, old)
		}
	}
	fc.m[key] = f
	fc.order = append(fc.order, key)
	return f, nil
}

// drop evicts one entry after an I/O error so the next access re-opens.
func (fc *fileCache) drop(h fsapi.Handle, write bool) {
	key := cacheKey(h, write)
	if f, ok := fc.m[key]; ok {
		f.Close()
		delete(fc.m, key)
		// Out of the eviction order too: a stale slot would be queued
		// again by the re-open and its eviction would close the live file.
		if i := slices.Index(fc.order, key); i >= 0 {
			fc.order = slices.Delete(fc.order, i, i+1)
		}
	}
}

func (fc *fileCache) closeAll() {
	for k, f := range fc.m {
		f.Close()
		delete(fc.m, k)
	}
	fc.order = fc.order[:0]
}
