package controller

import (
	"math"
	"sync"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/nvm"
)

// newShardedCtl builds a controller with an explicit shard count for
// white-box routing and lock-ordering tests.
func newShardedCtl(t *testing.T, shards int) *Controller {
	t.Helper()
	dev := nvm.MustNewDevice(smallCfg())
	c, err := New(dev, Options{Shards: shards, LeaseTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestShardRoutingUniform bounds the chi-squared statistic of the
// shard-routing hashes over sequentially allocated ids — the exact id
// pattern the controller produces (inos and session ids both count up
// from small integers). A modulo-only router would send every id to
// shard (id mod N) in lockstep bursts; splitmix64 must spread them so
// that no shard's sweeper or admission gate inherits a systematic
// overload.
func TestShardRoutingUniform(t *testing.T) {
	const samples = 1 << 14
	for _, shards := range []int{2, 4, 8, 16, 64} {
		c := newShardedCtl(t, shards)
		if got := len(c.shards); got != shards {
			t.Fatalf("shards=%d: controller built %d shards", shards, got)
		}
		inoCounts := make([]int, shards)
		sessCounts := make([]int, shards)
		for i := 1; i <= samples; i++ {
			inoCounts[c.shardIdxIno(core.Ino(i))]++
			sessCounts[c.shardIdxSession(LibFSID(i))]++
		}
		// Chi-squared upper bound: for a uniform router the statistic
		// concentrates around df = N-1; 2*df + 10 sits far beyond the
		// p=0.001 critical value for every df in the table, and the
		// hash is deterministic, so this never flakes.
		bound := 2*float64(shards-1) + 10
		for name, counts := range map[string][]int{"ino": inoCounts, "session": sessCounts} {
			expected := float64(samples) / float64(shards)
			chi2 := 0.0
			for s, n := range counts {
				if n == 0 {
					t.Errorf("shards=%d %s routing: shard %d received no ids", shards, name, s)
				}
				d := float64(n) - expected
				chi2 += d * d / expected
			}
			if chi2 > bound {
				t.Errorf("shards=%d %s routing: chi2=%.1f exceeds %.1f (counts %v)",
					shards, name, chi2, bound, counts)
			}
			if math.IsNaN(chi2) {
				t.Fatalf("shards=%d %s routing: chi2 is NaN", shards, name)
			}
		}
	}
}

// TestShardRoutingSessionSalt checks that the session router is not
// the ino router under another name: a session and a file with the
// same numeric id must not be forced onto the same shard, or every
// session's home shard would always collide with its same-numbered
// file's.
func TestShardRoutingSessionSalt(t *testing.T) {
	c := newShardedCtl(t, 8)
	same := 0
	const n = 1024
	for i := 1; i <= n; i++ {
		if c.shardIdxIno(core.Ino(i)) == c.shardIdxSession(LibFSID(i)) {
			same++
		}
	}
	// Independent routers collide 1/8 of the time; identical ones 100%.
	if same > n/2 {
		t.Fatalf("session and ino routing collide on %d/%d ids — salt missing", same, n)
	}
}

// TestLockSetAdd is the table-driven contract of the fast paths' lock
// set: insertion in ANY order yields the same ascending, deduplicated
// sequence, which is what makes cross-shard acquisition deadlock-free.
func TestLockSetAdd(t *testing.T) {
	cases := []struct {
		name string
		ins  []int
		want []int
	}{
		{"single", []int{3}, []int{3}},
		{"ascending-pair", []int{1, 5}, []int{1, 5}},
		{"descending-pair", []int{5, 1}, []int{1, 5}},
		{"duplicate", []int{4, 4}, []int{4}},
		{"triple-sorted", []int{0, 3, 7}, []int{0, 3, 7}},
		{"triple-reversed", []int{7, 3, 0}, []int{0, 3, 7}},
		{"triple-middle-first", []int{3, 7, 0}, []int{0, 3, 7}},
		{"triple-with-dup", []int{6, 2, 6}, []int{2, 6}},
		{"all-equal", []int{1, 1, 1}, []int{1}},
		{"zero-included", []int{2, 0}, []int{0, 2}},
	}
	for _, tc := range cases {
		var s lockSet
		for _, i := range tc.ins {
			s.add(i)
		}
		if s.n != len(tc.want) {
			t.Errorf("%s: n=%d want %d", tc.name, s.n, len(tc.want))
			continue
		}
		for k := 0; k < s.n; k++ {
			if s.idx[k] != tc.want[k] {
				t.Errorf("%s: idx=%v want %v", tc.name, s.idx[:s.n], tc.want)
				break
			}
			if !s.has(tc.want[k]) {
				t.Errorf("%s: has(%d) is false after add", tc.name, tc.want[k])
			}
		}
	}
}

// TestLockForFileSet checks that lockForFile assembles exactly the
// session/file/parent shard set, sorted, with the registry entry
// returned under the held locks.
func TestLockForFileSet(t *testing.T) {
	c := newShardedCtl(t, 8)

	// Install synthetic registry entries the white-box way — under
	// lockAll, exactly as adoption does. Pick inos that land on three
	// distinct shards so the set really is cross-shard.
	var inos []core.Ino
	seen := map[int]bool{}
	for i := core.Ino(100); len(inos) < 3; i++ {
		idx := c.shardIdxIno(i)
		if !seen[idx] {
			seen[idx] = true
			inos = append(inos, i)
		}
	}
	child, parent := inos[0], inos[1]
	c.lockAll()
	c.registerFileLocked(&fileState{ino: parent, ftype: core.TypeDir})
	c.registerFileLocked(&fileState{ino: child, parent: parent, ftype: core.TypeReg})
	c.unlockAll()
	defer func() {
		c.lockAll()
		c.unregisterFileLocked(child)
		c.unregisterFileLocked(parent)
		c.unlockAll()
	}()

	sIdx := c.shardIdxSession(LibFSID(42))

	// Without parent: exactly {session shard, file shard}.
	set, fs := c.lockForFile(sIdx, child, false)
	if fs == nil || fs.ino != child {
		t.Fatalf("lockForFile returned fs=%v", fs)
	}
	if !set.has(sIdx) || !set.has(c.shardIdxIno(child)) {
		t.Fatalf("set %v missing session or file shard", set.idx[:set.n])
	}
	c.unlockShards(&set)

	// With parent: the parent's shard joins the set, and the set stays
	// ascending (the ordering invariant the fast paths rely on).
	set, fs = c.lockForFile(sIdx, child, true)
	if fs == nil {
		t.Fatal("lockForFile lost the file on the widening restart")
	}
	for _, want := range []int{sIdx, c.shardIdxIno(child), c.shardIdxIno(parent)} {
		if !set.has(want) {
			t.Fatalf("set %v missing shard %d", set.idx[:set.n], want)
		}
	}
	for k := 1; k < set.n; k++ {
		if set.idx[k-1] >= set.idx[k] {
			t.Fatalf("lock set not ascending: %v", set.idx[:set.n])
		}
	}
	c.unlockShards(&set)

	// Unknown ino: locks are held, fs is nil (caller escalates).
	set, fs = c.lockForFile(sIdx, core.Ino(1<<40), true)
	if fs != nil {
		t.Fatalf("unknown ino returned %+v", fs)
	}
	c.unlockShards(&set)
}

// TestCloseUnregistersFromHomeShard pins the membership invariant the
// fairness test flushed out: Session.Close must remove the session from
// its home shard's map. A tombstone left there is a dead session the
// shard's sweeper re-Reaps — a no-op through lockAll — on every tick,
// permanently convoying all shards.
func TestCloseUnregistersFromHomeShard(t *testing.T) {
	c := newShardedCtl(t, 8)
	s := c.Register(1000, 1000, 0, 0)
	id := s.ID()
	home := c.shardIdxSession(id)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	c.lockAll()
	_, inShard := c.shards[home].sessions[id]
	c.unlockAll()
	if inShard {
		t.Fatal("closed session left a tombstone in its home shard's map")
	}
	// And the sweeper finds nothing to reap: a closed session is gone,
	// not a corpse.
	c.sweepShard(home)
	if got := c.Stats().Reaps.Load(); got != 0 {
		t.Fatalf("sweeper reaped a cleanly closed session: Reaps=%d", got)
	}
}

// TestCrossShardLockOrdering is the table-driven deadlock test: every
// combination of cross-shard acquirers the fast paths use — pairwise
// sets built in opposite orders, triples, lockAll, downgradeToShard,
// and registry reads under partial sets — runs concurrently under the
// race detector. The ascending-order discipline is the only thing
// standing between these and a lock cycle; if it is broken the test
// deadlocks (and fails on the watchdog) rather than passing quietly.
func TestCrossShardLockOrdering(t *testing.T) {
	cases := []struct {
		name string
		a, b int // the contended shard pair, built in both orders
		c2   int // third shard for the triple/downgrade workers
	}{
		{"adjacent", 0, 1, 2},
		{"ends", 0, 7, 3},
		{"middle", 3, 5, 4},
		{"same-shard", 6, 6, 6},
		{"wraparound-order", 7, 0, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newShardedCtl(t, 8)
			probe := core.Ino(0)
			for probe = 100; c.shardIdxIno(probe) != tc.a; probe++ {
			}
			c.lockAll()
			c.registerFileLocked(&fileState{ino: probe, ftype: core.TypeReg})
			c.unlockAll()

			const iters = 3000
			var wg sync.WaitGroup
			worker := func(fn func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						fn()
					}
				}()
			}
			// Pair, built a-then-b.
			worker(func() {
				var s lockSet
				s.add(tc.a)
				s.add(tc.b)
				c.lockShards(&s)
				c.unlockShards(&s)
			})
			// Same pair, built b-then-a: without lockSet's sorting these
			// two workers would deadlock almost immediately.
			worker(func() {
				var s lockSet
				s.add(tc.b)
				s.add(tc.a)
				c.lockShards(&s)
				c.unlockShards(&s)
			})
			// Triple with a downgrade in the middle, the unmap-seal shape.
			worker(func() {
				var s lockSet
				s.add(tc.c2)
				s.add(tc.a)
				s.add(tc.b)
				c.lockShards(&s)
				c.downgradeToShard(&s, tc.a)
				c.unlockShards(&s)
			})
			// Global sections interleave with every fast path.
			worker(func() {
				c.lockAll()
				c.unlockAll()
			})
			// Registry read under a partial set — the "any shard lock
			// makes the registries readable" invariant, exercised while
			// lockAll holders churn, so the race detector sees the real
			// shared accesses and not just mutex traffic.
			worker(func() {
				set, fs := c.lockForFile(tc.b, probe, false)
				if fs != nil && fs.ino != probe {
					panic("registry read returned wrong entry")
				}
				c.unlockShards(&set)
			})
			// Registry insert/delete under lockAll against the readers.
			worker(func() {
				ino := probe + 1
				c.lockAll()
				c.registerFileLocked(&fileState{ino: ino, ftype: core.TypeReg})
				c.unlockAll()
				c.lockAll()
				c.unregisterFileLocked(ino)
				c.unlockAll()
			})

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("cross-shard lock workers deadlocked (ordering violation)")
			}
			c.lockAll()
			c.unregisterFileLocked(probe)
			c.unlockAll()
		})
	}
}
