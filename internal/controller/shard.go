// Controller lock sharding (ISSUE 6). The single big controller mutex
// became the scalability ceiling the moment the data path got fast —
// the KucoFS failure mode: a centralized trusted metadata path
// serializes every tenant. This file splits that lock N ways.
//
// # Locking model
//
// Every inode and every session hashes to one of N shards. State is
// partitioned by *lock*, not by map: the registries (c.files,
// c.libfses) stay global, but an entry's mutable fields are guarded by
// its home shard's mutex, and the registries themselves are only
// inserted into or deleted from under lockAll (all shard mutexes held,
// in index order). That asymmetry gives a cheap invariant:
//
//   - holding ALL shard locks ⇒ exclusive access to everything; the
//     pre-shard controller code runs unchanged in such sections;
//   - holding ANY shard lock ⇒ safe to *read* both registries (no
//     insert/delete can be concurrent) and to touch the fields of
//     entries homed on the held shards.
//
// Fast paths (a map or unmap entry's narrow attempt — MapFile and
// UnmapFile are one-entry batches — and the allocators) lock only the
// shards they need: the session's home shard, the file's, and for
// writes the parent directory's (dirent-page checksum records are
// serialized by the parent's shard). Shard mutexes are always
// acquired in ascending index order; cross-shard operations that turn
// out to need more context (adoption, upgrades, conflicts, rename-
// style dirent moves, corruption handling) bail out with errEscalate
// before mutating anything and rerun under lockAll.
//
// A handful of truly global tables — pageOwner, shadow, allocBy,
// reaped, and the write-mapped refcounts — are guarded by tabMu, a
// leaf mutex ordered after every shard mutex. Fast paths go through
// the tabMu accessors; lockAll sections may keep touching the maps
// directly (they exclude every fast path by construction, and the
// shard mutexes carry the happens-before edges).
package controller

import (
	"errors"
	"sort"
	"sync"
	"time"

	"trio/internal/core"
	"trio/internal/nvm"
	"trio/internal/telemetry"
	"trio/internal/verifier"
)

// errEscalate is the fast paths' internal "retry under lockAll"
// sentinel. It must never escape to a caller.
var errEscalate = errors.New("controller: escalate to all shards")

// maxShards bounds Options.Shards; lockAll is O(N) so the count stays
// small.
const maxShards = 64

// ctlShard is one slice of the controller's lock space, with its own
// background-sweeper bookkeeping so one tenant's churn stays on its
// shard.
type ctlShard struct {
	mu sync.Mutex

	// admit is the per-shard admission gate (fair-share policy): a
	// session's calls are admitted through its home shard's gate, so a
	// tenant storm saturates its own shard's slots, not the controller.
	admit admitGate

	// files and sessions are this shard's slices of the global
	// registries — the same pointers, keyed by home shard, maintained
	// at every registry insert/delete (all under lockAll). The shard's
	// sweeper scans only these, so the per-tick sweep cost is the
	// shard's own population, not N scans of the whole controller.
	files    map[core.Ino]*fileState
	sessions map[LibFSID]*libfsState

	// scrubber is this shard's private page auditor (verifier.Scrubber
	// carries a scratch buffer, so concurrent shards need their own).
	scrubber *verifier.Scrubber
	// scrubIno is the per-shard scrub cursor: the last ino of this
	// shard's slice whose pages were audited.
	scrubIno core.Ino

	_ [32]byte // keep neighbouring shards' hot words apart
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed hash
// for shard routing of sequentially allocated ids.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardIdxIno routes an inode to its home shard.
func (c *Controller) shardIdxIno(ino core.Ino) int {
	return int(mix64(uint64(ino)) % uint64(len(c.shards)))
}

// shardIdxSession routes a session to its home shard.
func (c *Controller) shardIdxSession(id LibFSID) int {
	return int(mix64(uint64(id)|1<<32) % uint64(len(c.shards)))
}

// lockAll acquires every shard mutex in index order. Sections under
// lockAll have exclusive access to all controller state and may use
// the pre-shard direct map accesses.
func (c *Controller) lockAll() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
}

func (c *Controller) unlockAll() {
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// lockSet holds up to three distinct shard indexes, sorted ascending.
type lockSet struct {
	idx [3]int
	n   int
}

func (s *lockSet) has(i int) bool {
	for k := 0; k < s.n; k++ {
		if s.idx[k] == i {
			return true
		}
	}
	return false
}

func (s *lockSet) add(i int) {
	if s.has(i) {
		return
	}
	k := s.n
	for k > 0 && s.idx[k-1] > i {
		s.idx[k] = s.idx[k-1]
		k--
	}
	s.idx[k] = i
	s.n++
}

// lockShards acquires the set's shard mutexes in ascending order.
func (c *Controller) lockShards(s *lockSet) {
	for k := 0; k < s.n; k++ {
		c.shards[s.idx[k]].mu.Lock()
	}
}

func (c *Controller) unlockShards(s *lockSet) {
	for k := s.n - 1; k >= 0; k-- {
		c.shards[s.idx[k]].mu.Unlock()
	}
}

// downgradeToShard releases every shard of the held set except keep
// (which must be in the set) and shrinks the set to just keep, so a
// subsequent unlockShards releases only it. Used by the unmap fast
// path to run the streaming seal under a single shard's lock. Only
// releases locks, never acquires, so it cannot deadlock against the
// ascending-order acquirers.
func (c *Controller) downgradeToShard(s *lockSet, keep int) {
	for k := s.n - 1; k >= 0; k-- {
		if s.idx[k] != keep {
			c.shards[s.idx[k]].mu.Unlock()
		}
	}
	s.idx[0] = keep
	s.n = 1
}

// Registry insert/delete (lockAll held): the global map and the home
// shard's membership map move together.

func (c *Controller) registerFileLocked(fs *fileState) {
	c.files.set(fs.ino, fs)
	c.shards[c.shardIdxIno(fs.ino)].files[fs.ino] = fs
}

func (c *Controller) unregisterFileLocked(ino core.Ino) {
	c.files.del(ino)
	delete(c.shards[c.shardIdxIno(ino)].files, ino)
}

func (c *Controller) registerSessionLocked(ls *libfsState) {
	c.libfses[ls.id] = ls
	c.shards[c.shardIdxSession(ls.id)].sessions[ls.id] = ls
}

func (c *Controller) unregisterSessionLocked(id LibFSID) {
	delete(c.libfses, id)
	delete(c.shards[c.shardIdxSession(id)].sessions, id)
}

// lockForFile acquires the caller's home shard, the file's shard and —
// when withParent is set — the file's parent's shard, restarting with
// the widened set when the parent is discovered only after locking.
// Returns the fileState (nil when unknown — the caller escalates to
// the adoption path) with the final set held. The caller must
// unlockShards(set) when done.
func (c *Controller) lockForFile(sIdx int, ino core.Ino, withParent bool) (set lockSet, fs *fileState) {
	set.add(sIdx)
	set.add(c.shardIdxIno(ino))
	c.lockShards(&set)
	fs, _ = c.files.get(ino) // registry reads are safe under any shard lock
	if fs == nil || !withParent {
		return set, fs
	}
	for {
		pIdx := c.shardIdxIno(fs.parent)
		if set.has(pIdx) {
			return set, fs
		}
		// Restart with the union: unlock, widen, relock in order, and
		// re-validate that the file and its parent did not move while
		// nothing was held.
		c.unlockShards(&set)
		set.add(pIdx)
		c.lockShards(&set)
		fs2, _ := c.files.get(ino)
		if fs2 == nil {
			return set, nil
		}
		if fs2 == fs && set.has(c.shardIdxIno(fs2.parent)) {
			return set, fs2
		}
		fs = fs2
	}
}

// ---------------------------------------------------------------------
// tabMu accessors — the global tables fast paths may touch.
// ---------------------------------------------------------------------

// pageOwnerAt reads pageOwner (0 = unowned) with bounds checking, for
// call sites whose page comes from an untrusted location hint. The
// caller supplies the locking (tabMu or an exclusive lock set).
func (c *Controller) pageOwnerAt(p nvm.PageID) core.Ino {
	if int(p) >= len(c.pageOwner) {
		return 0
	}
	return c.pageOwner[p]
}

// ownerOf reads the verified owner of page p. Bounds-checked: p may
// come from an untrusted location hint.
func (c *Controller) ownerOf(p nvm.PageID) (core.Ino, bool) {
	if int(p) >= len(c.pageOwner) {
		return 0, false
	}
	c.tabMu.Lock()
	ino := c.pageOwner[p]
	c.tabMu.Unlock()
	return ino, ino != 0
}

// setPageOwner binds page p to ino (fast-path commitReport; lockAll
// sections may keep writing the map directly).
func (c *Controller) setPageOwner(p nvm.PageID, ino core.Ino) {
	c.tabMu.Lock()
	c.pageOwner[p] = ino
	c.tabMu.Unlock()
}

// clearPageOwner unbinds page p; the facts of the file it leaves go
// with it, and so does its granule's open bit, if the file's grants
// opened the granule by it: an open granule stays whole in its file
// (splitGranule). The caller holds the lock the file's records
// serialize under.
func (c *Controller) clearPageOwner(p nvm.PageID) {
	c.tabMu.Lock()
	c.pageOwner[p] = 0
	c.facts[p] = false
	c.tabMu.Unlock()
	c.splitGranule(p >> nvm.GranuleShift)
}

// setShadow records ino's shadow entry.
func (c *Controller) setShadow(ino core.Ino, sh verifier.ShadowInfo) {
	c.tabMu.Lock()
	c.shadow.set(ino, sh)
	c.tabMu.Unlock()
}

// pagesOwnedWithin reports whether every given page is either unowned
// or owned by one of the two inos (a file and its parent). Fast paths
// use it as their escape hatch: a page with a surprising owner means
// cross-file state is involved, so the operation reruns under lockAll.
func (c *Controller) pagesOwnedWithin(pages []nvm.PageID, a, b core.Ino) bool {
	c.tabMu.Lock()
	defer c.tabMu.Unlock()
	for _, p := range pages {
		// pageOwnerAt, not a direct index: the pages were collected by
		// walking untrusted core state, which may name impossible ids.
		if own := c.pageOwnerAt(p); own != 0 && own != a && own != b {
			return false
		}
	}
	return true
}

// runsOwnedWithin is pagesOwnedWithin for the runs of a mapping of fs,
// whose pages grantRuns already bounded to the device. The pages of
// fs.pages are the file's own, so only the rest — the dirent page, pages
// a grant-time walk found ahead of their verification — are looked up.
func (c *Controller) runsOwnedWithin(runs []pageRun, fs *fileState) bool {
	var buf [4]pageRun
	c.tabMu.Lock()
	defer c.tabMu.Unlock()
	for _, r := range runsDiff(buf[:0], runs, fs.pages) {
		for _, own := range c.pageOwner[r.start:r.end()] {
			if own != 0 && own != fs.ino && own != fs.parent {
				return false
			}
		}
	}
	return true
}

// shadowOf reads the shadow entry for ino.
func (c *Controller) shadowOf(ino core.Ino) (verifier.ShadowInfo, bool) {
	c.tabMu.Lock()
	sh, ok := c.shadow.get(ino)
	c.tabMu.Unlock()
	return sh, ok
}

// allocHolderOf reads which session the ino was issued to.
func (c *Controller) allocHolderOf(ino core.Ino) (LibFSID, bool) {
	c.tabMu.Lock()
	id, ok := c.allocBy.get(ino)
	c.tabMu.Unlock()
	return id, ok
}

// scrubBusy is scrubBusyLocked (granule.go) taking tabMu.
func (c *Controller) scrubBusy(p nvm.PageID) bool {
	c.tabMu.Lock()
	defer c.tabMu.Unlock()
	return c.scrubBusyLocked(p)
}

// scrubBusyTry is scrubBusy for the background scrubber, which asks per
// page with a shard's lock held: parking on the controller-wide tabMu
// there — behind whatever tenant is churning grants, then behind it
// again for a CPU — makes every tenant of that shard wait too. A busy
// table reads as busy: the page keeps its place in the cycle and is
// audited on a later pass.
func (c *Controller) scrubBusyTry(p nvm.PageID) bool {
	if !c.tabMu.TryLock() {
		return true
	}
	defer c.tabMu.Unlock()
	return c.scrubBusyLocked(p)
}

// markStored records that page p's content may have changed since its
// checksum record was opened and since its last clean walk: the
// controller is about to store to the page itself.
func (c *Controller) markStored(p nvm.PageID) {
	c.tabMu.Lock()
	c.storedLocked(p)
	c.tabMu.Unlock()
}

// storedLocked (tabMu held) is the one place a store to page p — a
// harvested dirty bit, a teardown without harvest, the controller's own
// — invalidates what was known of its content: the record's carried CRC,
// the facts, and, under an open bit, the record itself, which the
// granule's close then reseals.
func (c *Controller) storedLocked(p nvm.PageID) {
	c.cleanOpen[p] = false
	c.facts[p] = false
	if st := &c.gran[p>>nvm.GranuleShift]; st.ino != 0 {
		st.stored |= granuleMask(p)
	}
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

// admitGate bounds how many of a shard's sessions' calls run inside
// the controller at once, with a simple fair-share policy: a session
// with nothing in flight queues ahead of one that already holds slots,
// and no session may hold more than (limit+1)/2 slots. One tenant
// churning opens therefore cannot occupy every slot and starve another
// tenant's lease recall on the same shard.
type admitGate struct {
	mu        sync.Mutex
	limit     int
	inflight  int
	bySession map[LibFSID]int
	prio      []admitWaiter // sessions with zero slots in flight
	norm      []admitWaiter
	waits     int64              // contended entries
	waitCtr   *telemetry.Counter // mirrors waits (shardN.admit_waits)
}

type admitWaiter struct {
	id LibFSID
	ch chan struct{}
}

// admitBudget is the controller-wide number of calls admitted at once.
// The NVM's concurrency sweetspot does not grow with shard count, so
// neither does total admitted concurrency: each shard gets an even
// share (at least 2) that no other shard's tenants can consume.
const admitBudget = 32

func admitPerShard(shards int) int {
	if n := admitBudget / shards; n > 2 {
		return n
	}
	return 2
}

func (g *admitGate) init(limit int) {
	g.limit = limit
	g.bySession = make(map[LibFSID]int)
}

// sessionCap is the most slots one session may hold: half the shard's,
// and at least one since the limit is never below 2.
func (g *admitGate) sessionCap() int { return (g.limit + 1) / 2 }

// enter blocks until a slot is available.
func (g *admitGate) enter(id LibFSID) {
	g.mu.Lock()
	if g.inflight < g.limit && len(g.prio) == 0 && len(g.norm) == 0 &&
		g.bySession[id] < g.sessionCap() {
		g.inflight++
		g.bySession[id]++
		g.mu.Unlock()
		return
	}
	g.waits++
	if g.waitCtr != nil {
		g.waitCtr.Add(1)
	}
	w := admitWaiter{id: id, ch: make(chan struct{})}
	if g.bySession[id] == 0 {
		g.prio = append(g.prio, w)
	} else {
		g.norm = append(g.norm, w)
	}
	g.mu.Unlock()
	<-w.ch // the releasing exit hands the slot over
}

// exit releases one slot, handing it to the first waiter: under-share
// sessions first, FIFO within each class.
func (g *admitGate) exit(id LibFSID) {
	g.mu.Lock()
	g.inflight--
	if n := g.bySession[id] - 1; n <= 0 {
		delete(g.bySession, id)
	} else {
		g.bySession[id] = n
	}
	g.wakeLocked()
	g.mu.Unlock()
}

// wakeLocked admits queued waiters while slots are free.
func (g *admitGate) wakeLocked() {
	for g.inflight < g.limit {
		var w admitWaiter
		switch {
		case len(g.prio) > 0:
			w = g.prio[0]
			g.prio = g.prio[1:]
		case len(g.norm) > 0:
			// Respect the per-session cap for over-share sessions; the
			// queue head blocks only until its session releases a slot.
			if g.bySession[g.norm[0].id] >= g.sessionCap() {
				return
			}
			w = g.norm[0]
			g.norm = g.norm[1:]
		default:
			return
		}
		g.inflight++
		g.bySession[w.id]++
		close(w.ch)
	}
}

// admit runs the session's home-shard gate; the caller exits the
// returned gate when its call is done.
func (c *Controller) admit(id LibFSID) *admitGate {
	i := c.shardIdxSession(id)
	g := &c.shards[i].admit
	g.enter(id)
	c.stats.shard(i).Admitted.Add(1)
	return g
}

// ---------------------------------------------------------------------
// Per-shard background sweepers
// ---------------------------------------------------------------------

// sweeper is one shard's background enforcement loop: reap abandoned
// sessions homed here, escalate contended leases of files homed here,
// and run this shard's scrub slice on its own budget.
func (c *Controller) shardSweeper(i int) {
	defer c.sweepWG.Done()
	t := time.NewTicker(c.opts.LeaseSweep)
	defer t.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-t.C:
			c.sweepShard(i)
			c.scrubShard(i)
		}
	}
}

// sweepShard reaps this shard's dead sessions and escalates its
// contended files. Candidate discovery runs under the shard lock only;
// the actions re-check under lockAll.
func (c *Controller) sweepShard(i int) {
	sh := &c.shards[i]
	var dead []LibFSID
	var contended []core.Ino
	sh.mu.Lock()
	for id, ls := range sh.sessions {
		if ls.dead {
			dead = append(dead, id)
		}
	}
	for ino, fs := range sh.files {
		if fs.waiters > 0 && fs.writeHolder() != nil {
			contended = append(contended, ino)
		}
	}
	sh.mu.Unlock()

	for _, id := range dead {
		c.Reap(id) // lockAll inside; no-op when someone else won the race
	}
	for _, ino := range contended {
		// Cooperative escalation (clock, recall) runs under this
		// shard's own lock — the contended ino is homed here. Only the
		// forcible transitions (holder reap, revocation) pay for
		// lockAll, so a shard full of politely-contended files never
		// convoys the others.
		sh.mu.Lock()
		force := false
		if fs, _ := c.files.get(ino); fs != nil && fs.waiters > 0 && fs.writeHolder() != nil {
			_, err := c.escalateLeaseFastLocked(fs)
			force = err != nil
		}
		sh.mu.Unlock()
		if !force {
			continue
		}
		c.lockAll()
		if fs, _ := c.files.get(ino); fs != nil && fs.waiters > 0 && fs.writeHolder() != nil {
			c.escalateLeaseLocked(fs)
		}
		c.unlockAll()
	}
}

// scrubShard runs one budgeted slice of the audit (auditLocked) over the
// files homed on shard i, using the shard's private scrubber. Clean
// audits and seals happen under the shard lock alone; a mismatch
// escalates to lockAll for the repair/quarantine machinery.
func (c *Controller) scrubShard(i int) {
	budget := c.scrubBudget()
	if budget <= 0 {
		return
	}
	start := time.Now()
	sh := &c.shards[i]
	sh.mu.Lock()
	// Resume after the cursor ino; collect this slice's files first so
	// the audit can stop on budget without losing its place.
	var slice []*fileState
	for ino, fs := range sh.files {
		if ino > sh.scrubIno {
			slice = append(slice, fs)
		}
	}
	sort.Slice(slice, func(a, b int) bool { return slice[a].ino < slice[b].ino })
	if len(slice) == 0 {
		sh.scrubIno = 0 // wrap; next tick restarts the slice
	}
	a := scrubAudit{sc: sh.scrubber, busy: c.scrubBusyTry, budget: budget/len(c.shards) + 1}
	// The fixed metadata pages — the superblock and the root inode page
	// — belong to no registered file. The root's home shard owns their
	// audit: the root inode page's record RMWs already serialize under
	// this shard (root write grants), and the superblock is quiescent
	// after format.
	if last := c.auditLocked(&a, i == c.shardIdxIno(core.RootIno), slice); last != 0 {
		sh.scrubIno = last
	}
	if a.rep.Checked > 0 {
		c.stats.ScrubPasses.Add(1)
	}
	c.clearPendingGranules()
	sh.mu.Unlock()

	for _, p := range a.mismatches {
		c.lockAll()
		c.fixMismatchLocked(p, &a.rep)
		c.unlockAll()
	}
	c.stats.ScrubNS.Add(int64(time.Since(start)))
}
