package controller

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"trio/internal/core"
	"trio/internal/ring"
	"trio/internal/telemetry"
)

// This file is the controller side of ISSUE 8 — asynchronous
// submission/completion rings across the trust boundary (io_uring for
// Trio). With Options.RingDepth > 0, every shard owns a shared-memory
// submission ring (MPSC: the shard's sessions produce, one trusted
// drainer goroutine consumes) and every session owns a completion ring
// (the drainers produce, the session's callers consume). Map/unmap
// requests ride the rings as fixed-size slot records; the drainer
// charges ONE trap per drained batch (CostModel.TrapN) and ONE IPC per
// batch of verifier round trips (IPCN), instead of one per operation —
// that amortization is the whole experiment (see `trio-bench
// -experiment smallops`).
//
// The drainer must never sleep holding a whole shard's request stream
// hostage, so ring execution runs the existing fast paths plus a
// noWait lockAll pass: any request that would have to wait (lease
// conflict, escalated corruption handling) completes with retrySync
// and the submitter reruns it on the classic synchronous path.
//
// Death safety: a session killed mid-enqueue leaves either an
// invisible slot or a Claimed one; the reaper (reapLocked →
// ringKillLocked) CASes the dead session's claims to Aborted and the
// drainer recycles them. Completions for dead sessions are dropped and
// counted (ring.dead_completions) — never leaked into a reused ticket.

// errRetrySync is the drainer's "complete on the synchronous path"
// sentinel, reported to the submitter via ringCmpl.retrySync. Like
// errEscalate it never escapes to an API caller.
var errRetrySync = errors.New("controller: ring request must retry synchronously")

type ringOp uint8

const (
	opMap ringOp = iota
	opUnmap
)

// ringReq is one fixed-size submission-ring slot record.
type ringReq struct {
	sess   *Session
	op     ringOp
	write  bool
	ticket uint32
	ino    core.Ino
	loc    core.FileLoc
}

// ringCmpl is one completion-ring slot record.
type ringCmpl struct {
	ticket    uint32
	info      MapInfo
	err       error
	retrySync bool
}

// ringClient is a session's completion side: a CQ ring plus a ticket
// table. Tickets bound a session's in-flight ring requests to the CQ
// capacity, so a completion post can never find the CQ full.
type ringClient struct {
	owner   uint32
	cq      *ring.Ring[ringCmpl]
	tickets chan uint32
	// waiters[t] hands ticket t's completion to the goroutine waiting
	// on it; capacity 1, so the CQ drain never blocks on delivery.
	waiters []chan ringCmpl
	// cqMu (an acquire-or-skip semaphore, not a mutex: waiters must
	// not block on it while a completion may already sit in their
	// hand-off channel) elects the one goroutine draining the CQ.
	cqSem chan struct{}
	dbuf  []ring.Entry[ringCmpl]
	stop  chan struct{}
	dead  atomic.Bool
}

func newRingClient(id LibFSID, depth int) *ringClient {
	rc := &ringClient{
		owner:   uint32(id),
		cq:      ring.New[ringCmpl](ring.CQ, depth),
		waiters: make([]chan ringCmpl, 0, depth),
		cqSem:   make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	// The CQ may be rounded up past depth; tickets stay at ring
	// capacity so every in-flight completion has a guaranteed slot.
	n := rc.cq.Cap()
	rc.tickets = make(chan uint32, n)
	rc.dbuf = make([]ring.Entry[ringCmpl], n)
	for i := 0; i < n; i++ {
		rc.waiters = append(rc.waiters, make(chan ringCmpl, 1))
		rc.tickets <- uint32(i)
	}
	return rc
}

// deliver drains the CQ and hands each completion to its ticket's
// waiter. Any caller may run it; the semaphore keeps the CQ single-
// consumer without ever blocking a waiter whose completion was already
// delivered by someone else's pass.
func (rc *ringClient) deliver() {
	select {
	case rc.cqSem <- struct{}{}:
	default:
		return // someone else is draining; our completion will arrive
	}
	n, _ := rc.cq.Drain(rc.dbuf)
	for i := 0; i < n; i++ {
		cm := rc.dbuf[i].Val
		if int(cm.ticket) < len(rc.waiters) {
			select {
			case rc.waiters[cm.ticket] <- cm:
			default: // defensive: a ticket can have at most one in flight
			}
		}
	}
	<-rc.cqSem
}

// Pending is an in-flight ring request. Zero value (ringed=false)
// means the submission did not ride the ring; Wait then executes the
// classic synchronous call.
type Pending struct {
	s      *Session
	op     ringOp
	ino    core.Ino
	loc    core.FileLoc
	write  bool
	ticket uint32
	ringed bool
}

// MapFileAsync enqueues a MapFile onto the submission ring and returns
// immediately; Wait blocks for the completion. Without rings (or when
// the ring is full) the returned Pending simply runs the synchronous
// call inside Wait — callers need no second code path.
func (s *Session) MapFileAsync(ino core.Ino, loc core.FileLoc, write bool) Pending {
	if p, ok := s.ringSubmit(opMap, ino, loc, write); ok {
		return p
	}
	return Pending{s: s, op: opMap, ino: ino, loc: loc, write: write}
}

// UnmapFileAsync is MapFileAsync's unmap counterpart.
func (s *Session) UnmapFileAsync(ino core.Ino) Pending {
	if p, ok := s.ringSubmit(opUnmap, ino, core.FileLoc{}, false); ok {
		return p
	}
	return Pending{s: s, op: opUnmap, ino: ino}
}

// Wait blocks until the request completes and returns its result (the
// MapInfo is zero for unmaps; it is returned by value so a wait costs
// no allocation). Parks on the session's completion ring; requests the
// drainer could not finish without sleeping rerun on the synchronous
// path.
func (p Pending) Wait() (MapInfo, error) {
	if !p.ringed {
		return p.runSync()
	}
	s := p.s
	rc := s.ls.rc
	w := rc.waiters[p.ticket]
	var cm ringCmpl
	got := false
	// Fast path: in the windowed-submission pattern one Wait's delivery
	// pass hands out a whole batch of completions, so the next Waits
	// usually find theirs already in hand (or sitting undrained in the
	// CQ) and never need to park.
	select {
	case cm = <-w:
		got = true
	default:
		rc.deliver()
		select {
		case cm = <-w:
			got = true
		default:
		}
	}
	for !got {
		select {
		case cm = <-w:
			got = true
		case <-rc.cq.Bell():
			rc.deliver()
		case <-rc.stop:
			// The session died (reap / close). One final delivery pass,
			// then give up the wait; the ticket is retired with the
			// client, so a late completion cannot alias a new request.
			rc.deliver()
			select {
			case cm = <-w:
				got = true
			default:
				s.c.ringInflight.Add(-1)
				return MapInfo{}, ErrSessionDead
			}
		}
	}
	rc.tickets <- p.ticket
	s.c.ringInflight.Add(-1)
	if cm.retrySync {
		mRingRetrySync.Inc()
		return p.runSync()
	}
	if cm.err != nil {
		return MapInfo{}, cm.err
	}
	if p.op == opMap {
		return cm.info, nil
	}
	return MapInfo{}, nil
}

func (p Pending) runSync() (MapInfo, error) {
	if p.op == opMap {
		return p.s.mapFileSync(p.ino, p.loc, p.write)
	}
	return MapInfo{}, p.s.unmapFileSync(p.ino)
}

// ringSubmit enqueues the request onto the ino's shard ring. ok=false
// means "use the synchronous path": rings off, client dead, or ring
// full (backpressure degrades to classic syscalls, never blocks).
func (s *Session) ringSubmit(op ringOp, ino core.Ino, loc core.FileLoc, write bool) (Pending, bool) {
	c := s.c
	rc := s.ls.rc
	if rc == nil || rc.dead.Load() {
		return Pending{}, false
	}
	// The in-flight count is the Close handshake: Close flips ringOff
	// and waits for it to drain, so a drainer is always there to
	// complete anything submitted here.
	c.ringInflight.Add(1)
	if c.ringOff.Load() {
		c.ringInflight.Add(-1)
		return Pending{}, false
	}
	var ticket uint32
	select {
	case ticket = <-rc.tickets:
	case <-rc.stop:
		c.ringInflight.Add(-1)
		return Pending{}, false
	}
	req := ringReq{sess: s, op: op, write: write, ticket: ticket, ino: ino, loc: loc}
	if err := c.sqs[c.shardIdxIno(ino)].Submit(rc.owner, req); err != nil {
		rc.tickets <- ticket // buffered to capacity; never blocks
		c.ringInflight.Add(-1)
		return Pending{}, false
	}
	return Pending{s: s, op: op, ino: ino, loc: loc, write: write, ticket: ticket, ringed: true}, true
}

// ringStart builds the per-shard submission rings and starts one
// drainer per shard. Called from New when Options.RingDepth > 0.
func (c *Controller) ringStart(depth int) {
	c.sqs = make([]*ring.Ring[ringReq], len(c.shards))
	for i := range c.sqs {
		c.sqs[i] = ring.New[ringReq](ring.SQ, depth)
	}
	c.ringStop = make(chan struct{})
	c.ringWG.Add(len(c.sqs))
	for i := range c.sqs {
		go c.ringDrainer(i)
	}
}

// ringShutdown quiesces the rings: no new submissions, wait out the
// in-flight ones, then stop the drainers. Called from Close.
func (c *Controller) ringShutdown() {
	if c.sqs == nil {
		return
	}
	c.ringOff.Store(true)
	for c.ringInflight.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
	close(c.ringStop)
	c.ringWG.Wait()
}

// ringKillLocked retires a session's ring client: aborts its claims in
// every submission ring and releases its waiters. Runs under lockAll
// from the reaper and from session teardown; idempotent.
func (c *Controller) ringKillLocked(ls *libfsState) {
	rc := ls.rc
	if rc == nil || !rc.dead.CompareAndSwap(false, true) {
		return
	}
	close(rc.stop)
	for _, sq := range c.sqs {
		sq.AbortOwner(rc.owner)
	}
}

// ringDrainer is shard i's trusted consumer: park on the doorbell,
// drain a batch, execute it under the existing lock discipline, post
// completions.
func (c *Controller) ringDrainer(shard int) {
	defer c.ringWG.Done()
	sq := c.sqs[shard]
	buf := make([]ring.Entry[ringReq], sq.Cap())
	for {
		n, _ := sq.Drain(buf)
		if n == 0 {
			select {
			case <-c.ringStop:
				// Late check: the Close handshake guarantees nothing new
				// is in flight once ringStop closes, so an empty drain
				// here means the ring is truly dry.
				if n2, _ := sq.Drain(buf); n2 == 0 {
					return
				}
				n = 0
				continue
			case <-sq.Bell():
				// Yield once before draining: the doorbell fires on the
				// FIRST submit of a wave, and draining immediately would
				// shrink every batch to one entry (and one trap). One
				// scheduler pass lets the rest of the wave — completions
				// just delivered wake whole cohorts of submitters —
				// enqueue first, so the drain and its single trap cover
				// the wave.
				runtime.Gosched()
				continue
			}
		}
		c.ringExecBatch(buf[:n])
	}
}

// ringExecBatch charges one trap for the whole batch, executes each
// request, accumulates verifier round trips, and charges them as one
// batched IPC after the locks are dropped.
func (c *Controller) ringExecBatch(entries []ring.Entry[ringReq]) {
	if c.cost != nil {
		c.cost.TrapN(len(entries))
	}
	verifies := 0
	var maps, unmaps int64
	// One clock pair covers the whole batch: per-op timestamps are pure
	// drainer overhead, and the per-shard op counters already carry the
	// fine-grained accounting. Latency telemetry gets the batch average.
	start := time.Now()
	// Phase 1: fast paths under narrow locks. Map requests that need the
	// lockAll path (adoption, upgrades) are deferred so phase 2 can pay
	// for lockAll ONCE per batch instead of once per request — on an
	// adoption-heavy stream (create/unlink churn) that is every request.
	// Entries in one batch may therefore complete out of submission
	// order; like io_uring, the ring never promised inter-entry ordering
	// — Pending.Wait is the ordering primitive.
	var escal []int
	for i := range entries {
		req := entries[i].Val
		s := req.sess
		var cm ringCmpl
		switch req.op {
		case opMap:
			c.stats.shard(c.shardIdxIno(req.ino)).Maps.Add(1)
			maps++
			var defer2 bool
			cm, defer2 = c.ringMapFast(s, req)
			if defer2 {
				escal = append(escal, i)
				continue
			}
		case opUnmap:
			c.stats.shard(c.shardIdxIno(req.ino)).Unmaps.Add(1)
			unmaps++
			cm = c.ringUnmapExec(s, req, &verifies)
		}
		c.ringComplete(s, cm)
	}
	// Phase 2: one lockAll pass over the escalated maps.
	if len(escal) > 0 {
		c.lockAll()
		for _, i := range escal {
			req := entries[i].Val
			c.ringComplete(req.sess, c.ringMapSlowLocked(req.sess, req, &verifies))
		}
		c.unlockAll()
	}
	if total := maps + unmaps; total > 0 {
		el := time.Since(start)
		if maps > 0 {
			c.stats.addMapN(maps, el*time.Duration(maps)/time.Duration(total))
		}
		if unmaps > 0 {
			c.stats.addUnmapN(unmaps, el*time.Duration(unmaps)/time.Duration(total))
		}
	}
	if verifies > 0 && c.cost != nil {
		c.cost.IPCN(verifies)
	}
}

// ringMapFast runs one ringed MapFile's narrow fast path. escalate=true
// means the request needs the batch's shared lockAll pass
// (ringMapSlowLocked); anything that would sleep → retrySync.
func (c *Controller) ringMapFast(s *Session, req ringReq) (cm ringCmpl, escalate bool) {
	cm = ringCmpl{ticket: req.ticket}
	sp := telemetry.StartSpan(c.shardIdxIno(req.ino), "controller.map", "controller")
	defer sp.End()
	set, fs := c.lockForFile(c.shardIdxSession(s.ls.id), req.ino, req.write)
	info, wait, err := s.mapFileOnceLocked(fs, req.write)
	c.unlockShards(&set)
	if wait > 0 {
		cm.retrySync = true
		return cm, false
	}
	if err == errEscalate {
		return cm, true
	}
	cm.info = info
	cm.err = err
	return cm, false
}

// ringMapSlowLocked finishes an escalated ringed MapFile under the
// already-held lockAll (taken once per batch by ringExecBatch).
func (c *Controller) ringMapSlowLocked(s *Session, req ringReq, acc *int) ringCmpl {
	cm := ringCmpl{ticket: req.ticket}
	sp := telemetry.StartSpan(c.shardIdxIno(req.ino), "controller.map", "controller")
	defer sp.End()
	info, err := s.mapSlowLocked(req.ino, req.loc, req.write, nil, true, acc)
	if err == errRetrySync {
		cm.retrySync = true
		return cm
	}
	cm.info = info
	cm.err = err
	return cm
}

// ringUnmapExec runs one ringed UnmapFile via the fast path only; the
// escalated cases (corruption handling, directory adoption) retrySync.
func (c *Controller) ringUnmapExec(s *Session, req ringReq, acc *int) ringCmpl {
	cm := ringCmpl{ticket: req.ticket}
	sp := telemetry.StartSpan(c.shardIdxIno(req.ino), "controller.unmap", "controller")
	defer sp.End()
	err := s.unmapFast(req.ino, acc, sp)
	if err == errEscalate {
		cm.retrySync = true
		return cm
	}
	cm.err = err
	return cm
}

// ringComplete posts one completion to the session's CQ. Completions
// for dead sessions are dropped and counted — the reaper already
// released their waiters, and the retired tickets guarantee no alias.
func (c *Controller) ringComplete(s *Session, cm ringCmpl) {
	rc := s.ls.rc
	if rc == nil || rc.dead.Load() {
		mRingDeadCompl.Inc()
		return
	}
	if err := rc.cq.Submit(rc.owner, cm); err != nil {
		// Tickets bound in-flight completions to CQ capacity, so this
		// is only reachable through a reap race; drop and count.
		mRingDeadCompl.Inc()
	}
}

var (
	mRingDeadCompl = telemetry.Default().NewCounter("ring.dead_completions")
	// mRingRetrySync counts ring requests that fell back to the
	// synchronous path (lease conflicts, escalated corruption work).
	mRingRetrySync = telemetry.Default().NewCounter("ring.retry_sync")
)
