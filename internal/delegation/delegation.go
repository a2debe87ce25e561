// Package delegation implements opportunistic delegation, the OdinFS
// datapath ArckFS adopts to squeeze full bandwidth out of NUMA NVM
// (paper §4.5): a fixed set of background "kernel" worker threads per
// NUMA node performs all bulk NVM data access. Application threads
// enqueue requests on a ring buffer and wait; each worker only ever
// touches its own node's NVM.
//
// This wins three ways on Optane-like hardware:
//   - a bounded worker count avoids the performance collapse caused by
//     excessive concurrent access to one DIMM,
//   - workers always access node-local NVM, avoiding the remote-access
//     penalty,
//   - striping a file's pages across nodes lets one bulk request use
//     the aggregate bandwidth of every node in parallel.
//
// Small accesses skip delegation because the hand-off costs more than
// it saves; the thresholds are calibrated to the hand-off cost (see
// the constants below).
package delegation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"trio/internal/fsapi"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// Opportunistic-delegation thresholds. The paper uses 32 KiB reads /
// 256 B writes (§4.5) because its hand-off — a per-application ring
// buffer polled by kernel threads — costs a few hundred nanoseconds.
// This simulator's hand-off is a Go channel send plus goroutine wakeup
// (tens of microseconds on a small host), so the break-even sits much
// higher; the *mechanism* and its crossover behaviour are what the
// reproduction preserves, with the crossover recalibrated to the
// simulated hand-off cost exactly the way the paper calibrated theirs.
const (
	// DelegateReadMin is the smallest read worth delegating.
	DelegateReadMin = 256 << 10
	// DelegateWriteMin is the smallest write worth delegating.
	DelegateWriteMin = 128 << 10
)

// seg is one node-local piece of a delegated access: a contiguous page
// span (possibly many pages) that a single worker serves with one range
// operation.
type seg struct {
	page nvm.PageID
	off  int
	buf  []byte // read destination or write source
}

// request is one node's share of a logical access: a list of segments
// executed by one worker. Requests describe ranges, not single pages —
// the hand-off cost amortizes over the whole node-local run, as with
// OdinFS's range-based delegation requests.
//
// A request is executed by exactly one party: the worker that dequeues
// it, or — when the node's workers have died — the waiting application
// thread itself (fail-over to direct access). Execution rights are
// handed out by the claimed CAS; done closes once the claimant finished.
type request struct {
	node    int
	view    *mmu.View
	segs    []seg
	write   bool
	persist bool
	err     *errSlot

	claimed atomic.Bool
	done    chan struct{}

	// poison marks a worker-kill order (test hook, simulating a crashed
	// delegation thread): the dequeuing worker exits without serving
	// anything behind it in the ring.
	poison bool
}

// claim acquires the exclusive right to execute the request.
func (r *request) claim() bool { return r.claimed.CompareAndSwap(false, true) }

// errSlot records the first error of a batch.
type errSlot struct {
	mu  sync.Mutex
	err error
}

func (e *errSlot) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// Pool is the shared set of delegation workers. One pool serves every
// LibFS on the machine (paper: "the delegation threads are shared by
// all LibFSes").
type Pool struct {
	dev    *nvm.Device
	queues []chan *request // one ring buffer per NUMA node
	alive  []atomic.Int32  // live workers per node
	// dead[node] closes when the node's last worker exits; waiters park
	// on it instead of polling worker liveness on a timer.
	dead    []chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup
	workers int
}

// NewPool starts workersPerNode delegation workers on each NUMA node of
// the device. The paper's setup uses twelve per node; the right number
// is the device's concurrency sweet spot.
func NewPool(dev *nvm.Device, workersPerNode int) *Pool {
	if workersPerNode <= 0 {
		workersPerNode = 4
	}
	p := &Pool{
		dev:     dev,
		queues:  make([]chan *request, dev.Nodes()),
		alive:   make([]atomic.Int32, dev.Nodes()),
		dead:    make([]chan struct{}, dev.Nodes()),
		workers: workersPerNode,
	}
	for node := 0; node < dev.Nodes(); node++ {
		// The ring buffer: bounded, so a flood of requests applies
		// backpressure instead of spawning unbounded concurrency.
		p.queues[node] = make(chan *request, 1024)
		p.dead[node] = make(chan struct{})
		for w := 0; w < workersPerNode; w++ {
			p.alive[node].Add(1)
			p.wg.Add(1)
			go p.worker(node)
		}
	}
	return p
}

// Close drains and stops all workers.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
}

// WorkersPerNode reports the per-node worker count.
func (p *Pool) WorkersPerNode() int { return p.workers }

// AliveWorkers reports how many workers still serve the node's ring.
func (p *Pool) AliveWorkers(node int) int { return int(p.alive[node].Load()) }

// KillWorkers simulates n delegation-worker crashes on a node (test
// hook): each poison request makes the worker that dequeues it exit
// immediately, abandoning everything queued behind it. Batches already
// queued or submitted later must fail over to direct access — the
// liveness property the chaos tests assert.
func (p *Pool) KillWorkers(node, n int) {
	for i := 0; i < n; i++ {
		select {
		case p.queues[node] <- &request{poison: true}:
		default:
			return // ring full of real work; no room to deliver the kill
		}
	}
}

func (p *Pool) worker(node int) {
	defer p.wg.Done()
	for req := range p.queues[node] {
		if req.poison {
			p.workerExit(node)
			return
		}
		if !req.claim() {
			continue // the waiter failed over and executed it directly
		}
		req.exec()
	}
	p.workerExit(node)
}

// workerExit retires one worker; the last one out closes the node's
// death channel, waking every parked waiter so it can fail over.
// Workers are only ever created in NewPool, so the count decreases
// monotonically and the close fires exactly once.
func (p *Pool) workerExit(node int) {
	if p.alive[node].Add(-1) == 0 {
		close(p.dead[node])
	}
}

// exec runs the request's segments through its view and signals
// completion. Workers never die mid-request: once claimed, a request
// always completes (possibly with an error), so done is a reliable
// signal.
//
// Each segment is a contiguous span served by one range operation —
// one permission check, one cost-model charge, one coalesced persist
// (the device retries a busy one itself) — instead of a per-4KiB-page
// loop.
func (r *request) exec() {
	defer close(r.done)
	for _, sg := range r.segs {
		if r.write {
			r.err.set(writeRange(r.view, sg.page, sg.off, sg.buf, r.persist))
		} else {
			r.err.set(r.view.ReadRange(sg.page, sg.off, sg.buf))
		}
	}
}

// writeRange stores data at (p, off) through v and, when persist is
// set, flushes it.
func writeRange(v *mmu.View, p nvm.PageID, off int, data []byte, persist bool) error {
	err := v.WriteRange(p, off, data)
	if err == nil && persist {
		err = v.PersistRange(p, off, len(data))
	}
	return err
}

// Batch accumulates the page-granular segments of one logical file
// access and executes them — delegated or direct — when Wait is called.
type Batch struct {
	pool     *Pool
	as       *mmu.AddressSpace
	inline   *mmu.View   // non-delegated accesses; the AS's home view by default
	views    []*mmu.View // per-node views, lazily created
	pending  [][]seg     // per-node segments accumulated until Wait
	write    bool
	delegate bool
	persist  bool
	released bool
	err      errSlot
}

// WithView pins the batch's non-delegated (inline) accesses to a view —
// the calling thread's NUMA node. Delegated segments always run on the
// owning node's workers regardless.
func (b *Batch) WithView(v *mmu.View) *Batch {
	b.inline = v
	return b
}

// batchPool recycles Batch objects (and their per-node seg arrays)
// across logical accesses: the datapath creates one batch per ReadAt /
// WriteAt, so without reuse every I/O allocates.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// maxRecycledSegs bounds the seg-array capacity a released batch may
// carry back into the pool, so one huge scatter access doesn't pin its
// footprint forever.
const maxRecycledSegs = 1024

// NewBatch prepares a batch for one logical access of total size n.
// When pool is nil, or the size is under the opportunistic threshold,
// every segment executes inline on the calling thread (direct access).
//
// The batch comes from a recycling pool; callers on the hot path should
// call Release after Wait to return it.
func (p *Pool) NewBatch(as *mmu.AddressSpace, n int, write, persist bool) *Batch {
	b := batchPool.Get().(*Batch)
	b.pool, b.as, b.write, b.persist = p, as, write, persist
	b.inline = as.View(as.Node())
	b.delegate = false
	b.released = false
	b.err.err = nil
	if p == nil {
		return b
	}
	if write {
		b.delegate = n >= DelegateWriteMin
	} else {
		b.delegate = n >= DelegateReadMin
	}
	if b.delegate {
		nodes := p.dev.Nodes()
		if cap(b.views) < nodes {
			b.views = make([]*mmu.View, nodes)
			b.pending = make([][]seg, nodes)
		}
		b.views = b.views[:nodes]
		b.pending = b.pending[:nodes]
		for i := 0; i < nodes; i++ {
			b.views[i] = nil
			b.pending[i] = b.pending[i][:0]
		}
	}
	return b
}

// Release returns the batch to the recycling pool. Call it only after
// Wait, and do not touch the batch afterwards. Releasing twice panics —
// it would hand the same batch to two concurrent accesses.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	if b.released {
		panic("delegation: Batch released twice")
	}
	b.released = true
	for i := range b.pending {
		if cap(b.pending[i]) > maxRecycledSegs {
			b.pending[i] = nil
			continue
		}
		clear(b.pending[i][:cap(b.pending[i])]) // drop buf references
		b.pending[i] = b.pending[i][:0]
	}
	for i := range b.views {
		b.views[i] = nil
	}
	b.inline = nil
	b.as = nil
	b.pool = nil
	b.err.err = nil
	batchPool.Put(b)
}

// Read queues a read of page p at off into buf.
func (b *Batch) Read(p nvm.PageID, off int, buf []byte) {
	if !b.delegate {
		b.err.set(b.inline.Read(p, off, buf))
		return
	}
	node := b.pool.dev.NodeOf(p)
	b.pending[node] = append(b.pending[node], seg{page: p, off: off, buf: buf})
}

// Write queues a write of data into page p at off (persisted when the
// batch was created with persist=true).
func (b *Batch) Write(p nvm.PageID, off int, data []byte) {
	if !b.delegate {
		err := b.inline.Write(p, off, data)
		if err == nil && b.persist {
			err = b.inline.Persist(p, off, len(data))
		}
		b.err.set(err)
		return
	}
	node := b.pool.dev.NodeOf(p)
	b.pending[node] = append(b.pending[node], seg{page: p, off: off, buf: data})
}

// ReadRange queues a read of a contiguous page span starting at page p,
// byte offset off, into buf (which may span many pages). Inline batches
// execute it immediately as one range operation; delegated batches split
// the span at NUMA-node boundaries so each worker only touches its own
// node, exactly as OdinFS's range requests do.
func (b *Batch) ReadRange(p nvm.PageID, off int, buf []byte) {
	switch {
	case len(buf) == 0:
	case !b.delegate:
		b.err.set(b.inline.ReadRange(p, off, buf))
	default:
		b.queueSpan(p, off, buf)
	}
}

// WriteRange queues a write of a contiguous page span (persisted with
// one coalesced flush when the batch was created with persist=true).
func (b *Batch) WriteRange(p nvm.PageID, off int, data []byte) {
	switch {
	case len(data) == 0:
	case !b.delegate:
		b.err.set(writeRange(b.inline, p, off, data, b.persist))
	default:
		b.queueSpan(p, off, data)
	}
}

// queueSpan splits a contiguous page span at NUMA-node boundaries and
// appends one seg per node-local run.
func (b *Batch) queueSpan(p nvm.PageID, off int, buf []byte) {
	dev := b.pool.dev
	per := dev.PagesPerNode()
	for len(buf) > 0 {
		node := dev.NodeOf(p)
		nodeEnd := nvm.PageID((node + 1) * per)
		max := int(nodeEnd-p)*nvm.PageSize - off
		n := len(buf)
		if n > max {
			n = max
		}
		b.pending[node] = append(b.pending[node], seg{page: p, off: off, buf: buf[:n]})
		buf = buf[n:]
		p += nvm.PageID((off + n) / nvm.PageSize)
		off = (off + n) % nvm.PageSize
	}
}

func (b *Batch) view(node int) *mmu.View {
	if b.views[node] == nil {
		b.views[node] = b.as.View(node)
	}
	return b.views[node]
}

// Wait dispatches one range request per touched node, blocks until each
// completes, and returns the first error. Inline batches return
// instantly.
//
// Wait is bounded even when delegation workers have died (degraded
// mode, §4.5 robustness): a request whose node has no live workers is
// claimed back by the waiter and executed directly — the batch degrades
// to direct access instead of hanging. Raw injected media errors are
// wrapped as fsapi.ErrIO so the LibFS error-surface policy holds on the
// delegated path too.
func (b *Batch) Wait() error {
	if b.delegate {
		if telemetry.On() {
			mDelegated.Inc()
		}
		outstanding := make([]*request, 0, len(b.pending))
		for node, segs := range b.pending {
			if len(segs) == 0 {
				continue
			}
			req := &request{
				node: node, view: b.view(node), segs: segs,
				write: b.write, persist: b.persist,
				err: &b.err, done: make(chan struct{}),
			}
			// Keep the backing array for reuse via Release; truncating
			// (not nil-ing) also makes a second Wait a no-op.
			b.pending[node] = segs[:0]
			if b.pool.closed.Load() || b.pool.AliveWorkers(node) == 0 {
				// Degraded: no one will ever serve the ring. Run direct.
				mDirect.IncOn(node)
				req.claimed.Store(true)
				req.exec()
				continue
			}
			select {
			case b.pool.queues[node] <- req:
				mDispatch.IncOn(node)
				outstanding = append(outstanding, req)
			default:
				// Ring full (backpressure with dying workers): run direct.
				mDirect.IncOn(node)
				req.claimed.Store(true)
				req.exec()
			}
		}
		for _, req := range outstanding {
			b.await(req)
		}
	} else if telemetry.On() {
		mInline.Inc()
	}
	b.err.mu.Lock()
	defer b.err.mu.Unlock()
	err := b.err.err
	if err != nil && nvm.IsInjected(err) {
		// Error-surface policy: device/media faults escaping the datapath
		// surface as I/O errors, not raw injection internals.
		err = fmt.Errorf("%w: %v", fsapi.ErrIO, err)
	}
	return err
}

// await parks until req completes, failing over to direct execution
// when the node's workers died with the request still queued. There is
// no polling: the waiter sleeps on exactly two channels — the request's
// completion and the node's death — so on the healthy path it wakes
// exactly once, when the worker closes done.
func (b *Batch) await(req *request) {
	select {
	case <-req.done:
		if telemetry.On() {
			mWakeups.Inc()
		}
		return
	case <-b.pool.dead[req.node]:
	}
	if telemetry.On() {
		mWakeups.Inc()
	}
	if req.claim() {
		// The workers died before dequeuing it; the claim makes any
		// late dequeue skip it, so direct execution is safe.
		mFailovers.IncOn(req.node)
		req.exec()
		return
	}
	// A worker claimed it before dying. Once claimed, a request always
	// completes and closes done (workers never die mid-request), so
	// this second park is bounded.
	<-req.done
}

// Delegated reports whether this batch went through the workers.
func (b *Batch) Delegated() bool { return b.delegate }
