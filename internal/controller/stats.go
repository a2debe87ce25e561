package controller

import (
	"fmt"
	"time"

	"trio/internal/telemetry"
	"trio/internal/verifier"
)

// Stats aggregates the sharing-cost instrumentation behind Fig. 8 of
// the paper: how much time goes into mapping, unmapping and verifying
// when a file ping-pongs between trust domains, plus corruption-handling
// counters for §6.5.
//
// The counters are telemetry instruments on a per-controller registry
// that is always enabled — they are trusted-side bookkeeping that tests
// assert absolute values of, and a sharded counter add costs the same as
// the plain atomics they replaced. Snapshot reads go through the
// registry, so a concurrent reporter sees a stable point-in-time view
// instead of a field-by-field racy copy.
type Stats struct {
	reg *telemetry.Registry

	MapCount  *telemetry.Counter
	MapNS     *telemetry.Counter
	UnmapCnt  *telemetry.Counter
	UnmapNS   *telemetry.Counter
	VerifyCnt *telemetry.Counter
	VerifyNS  *telemetry.Counter
	// RebuildNS is reported by LibFSes (auxiliary-state rebuild time).
	RebuildCnt *telemetry.Counter
	RebuildNS  *telemetry.Counter

	Checkpoints *telemetry.Counter
	Corruptions *telemetry.Counter
	Fixed       *telemetry.Counter
	Rollbacks   *telemetry.Counter

	// Process-failure enforcement (ungraceful teardown and leases).
	Reaps           *telemetry.Counter // sessions forcibly torn down
	ReapVerifies    *telemetry.Counter // write mappings verified during forcible revocation
	ReapQuarantines *telemetry.Counter // files quarantined because rollback could not restore them
	LeaseRecalls    *telemetry.Counter // cooperative recall requests sent to lease holders
	LeaseExpiries   *telemetry.Counter // per-file forcible revocations after lease+recall deadlines

	// Online integrity scrubbing (ISSUE 5).
	ScrubPasses      *telemetry.Counter // background scrub slices run
	ScrubPages       *telemetry.Counter // pages audited (CRC computed)
	ScrubSealed      *telemetry.Counter // records sealed (coverage growth)
	ScrubDetected    *telemetry.Counter // sealed-CRC mismatches found
	ScrubRepaired    *telemetry.Counter // mismatches healed from redundancy
	ScrubQuarantined *telemetry.Counter // mismatches that poisoned a file
	ScrubNS          *telemetry.Counter // time spent in background slices

	// Unmap-time seal (ISSUE 15): records closed with the CRC they carried
	// into the grant (MMU dirty bit clear) vs. records whose content was
	// streamed and re-CRC'd.
	SealClean    *telemetry.Counter
	SealStreamed *telemetry.Counter

	// Verification scoped by dirty metadata (ISSUE 23). Every VerifyCnt is
	// one or the other: VerifyScoped carried the index facts of the file's
	// last clean walk over, VerifyFull walked. A release that had to walk
	// also counts its reason (fullWhy, "controller.verify_full.<reason>");
	// the full walks without one are not releases. IndexReads counts index
	// pages read by verification walks, grant walks and checkpoint
	// snapshots together: zero per handover while the facts hold.
	VerifyScoped *telemetry.Counter
	VerifyFull   *telemetry.Counter
	fullWhy      [len(scopeReasons)]*telemetry.Counter
	IndexReads   *telemetry.Counter
	// KeptPages is a level, not a count: index-page images held in
	// controller DRAM between write grants ("controller.kept_index_pages";
	// fileState.kept) — at most the index pages of the regular files
	// handed over since mount and still registered.
	KeptPages *telemetry.Counter

	// RecallLat is the lease-recall latency distribution (ISSUE 6): the
	// time from a cooperative recall request to the file becoming free —
	// the holder complying, being forcibly revoked, or vanishing.
	RecallLat *telemetry.Histogram

	// perShard are the ISSUE 6 lock-shard counters: which shard's lock
	// the work ran under. Snapshot merges them race-cleanly alongside
	// the global counters.
	perShard []ShardCounters
}

// ShardCounters are the per-lock-shard activity counters. They are
// plain telemetry counters (atomic adds), so concurrent shards never
// contend on them.
type ShardCounters struct {
	Maps       *telemetry.Counter // MapFile calls routed to files of this shard
	Unmaps     *telemetry.Counter // UnmapFile calls likewise
	Allocs     *telemetry.Counter // page/ino allocation calls by sessions homed here
	Reaps      *telemetry.Counter // sessions homed here forcibly torn down
	Recalls    *telemetry.Counter // lease recalls for files homed here
	ScrubPages *telemetry.Counter // pages audited by this shard's scrub slice
	Admitted   *telemetry.Counter // calls admitted through this shard's gate
	AdmitWaits *telemetry.Counter // admissions that had to queue
}

// shard returns shard i's counters (modulo, so synthetic contexts with
// an out-of-range hint stay safe).
func (s *Stats) shard(i int) *ShardCounters {
	return &s.perShard[i%len(s.perShard)]
}

// ShardCount reports how many lock shards the stats were built for.
func (s *Stats) ShardCount() int { return len(s.perShard) }

func newStats(shards int) *Stats {
	if shards <= 0 {
		shards = 1
	}
	reg := telemetry.NewRegistry()
	reg.Enable()
	s := &Stats{
		reg:       reg,
		MapCount:  reg.NewCounter("controller.map_count"),
		MapNS:     reg.NewCounter("controller.map_ns"),
		UnmapCnt:  reg.NewCounter("controller.unmap_count"),
		UnmapNS:   reg.NewCounter("controller.unmap_ns"),
		VerifyCnt: reg.NewCounter("controller.verify_count"),
		VerifyNS:  reg.NewCounter("controller.verify_ns"),

		RebuildCnt: reg.NewCounter("controller.rebuild_count"),
		RebuildNS:  reg.NewCounter("controller.rebuild_ns"),

		Checkpoints: reg.NewCounter("controller.checkpoints"),
		Corruptions: reg.NewCounter("controller.corruptions"),
		Fixed:       reg.NewCounter("controller.fixed"),
		Rollbacks:   reg.NewCounter("controller.rollbacks"),

		Reaps:           reg.NewCounter("controller.reaps"),
		ReapVerifies:    reg.NewCounter("controller.reap_verifies"),
		ReapQuarantines: reg.NewCounter("controller.reap_quarantines"),
		LeaseRecalls:    reg.NewCounter("controller.lease_recalls"),
		LeaseExpiries:   reg.NewCounter("controller.lease_expiries"),

		ScrubPasses:      reg.NewCounter("controller.scrub_passes"),
		ScrubPages:       reg.NewCounter("controller.scrub_pages"),
		ScrubSealed:      reg.NewCounter("controller.scrub_sealed"),
		ScrubDetected:    reg.NewCounter("controller.scrub_detected"),
		ScrubRepaired:    reg.NewCounter("controller.scrub_repaired"),
		ScrubQuarantined: reg.NewCounter("controller.scrub_quarantined"),
		ScrubNS:          reg.NewCounter("controller.scrub_ns"),

		SealClean:    reg.NewCounter("controller.seal_clean_pages"),
		SealStreamed: reg.NewCounter("controller.seal_streamed_pages"),

		VerifyScoped: reg.NewCounter("controller.verify_scoped"),
		VerifyFull:   reg.NewCounter("controller.verify_full"),
		IndexReads:   reg.NewCounter("controller.index_pages_read"),
		KeptPages:    reg.NewCounter("controller.kept_index_pages"),

		RecallLat: reg.NewHistogram("controller.recall_ns"),
	}
	for scope, why := range scopeReasons {
		if why != "" {
			s.fullWhy[scope] = reg.NewCounter("controller.verify_full." + why)
		}
	}
	s.perShard = make([]ShardCounters, shards)
	for i := range s.perShard {
		pfx := fmt.Sprintf("controller.shard%d.", i)
		s.perShard[i] = ShardCounters{
			Maps:       reg.NewCounter(pfx + "maps"),
			Unmaps:     reg.NewCounter(pfx + "unmaps"),
			Allocs:     reg.NewCounter(pfx + "allocs"),
			Reaps:      reg.NewCounter(pfx + "reaps"),
			Recalls:    reg.NewCounter(pfx + "recalls"),
			ScrubPages: reg.NewCounter(pfx + "scrub_pages"),
			Admitted:   reg.NewCounter(pfx + "admitted"),
			AdmitWaits: reg.NewCounter(pfx + "admit_waits"),
		}
	}
	return s
}

// observeRecall records one resolved lease recall (requested at t).
func (s *Stats) observeRecall(requestedAt time.Time) {
	if requestedAt.IsZero() {
		return
	}
	s.RecallLat.ObserveSince(requestedAt)
}

// RecallP99 reports the p99 lease-recall latency (power-of-two bucket
// resolution; 0 when no recall resolved yet).
func (s *Stats) RecallP99() time.Duration {
	return time.Duration(s.reg.Snapshot().Hist("controller.recall_ns").Quantile(0.99))
}

// Registry exposes the controller's telemetry registry (arckfsck -json
// and trio-top read it alongside the process-wide default registry).
func (s *Stats) Registry() *telemetry.Registry { return s.reg }

// addMapN / addUnmapN record n maps (unmaps) that together took d: one
// call, or a whole batch folded in with two stores.
func (s *Stats) addMapN(n int64, d time.Duration) {
	s.MapCount.Add(n)
	s.MapNS.Add(int64(d))
}

func (s *Stats) addUnmapN(n int64, d time.Duration) {
	s.UnmapCnt.Add(n)
	s.UnmapNS.Add(int64(d))
}

func (s *Stats) addVerify(d time.Duration) {
	s.VerifyCnt.Add(1)
	s.VerifyNS.Add(int64(d))
}

// observeVerify books one verification as scoped or full, a full
// release under the reason it could not be scoped.
func (s *Stats) observeVerify(rep *verifier.Report, scope verifyScope) {
	if rep.Scoped {
		s.VerifyScoped.Add(1)
		return
	}
	s.VerifyFull.Add(1)
	s.IndexReads.Add(int64(len(rep.Index)))
	s.fullWhy[scope].Add(1) // nil-safe: no counter for the scopes that are no reason
}

// AddRebuild records one auxiliary-state rebuild performed by a LibFS.
func (s *Stats) AddRebuild(d time.Duration) {
	s.RebuildCnt.Add(1)
	s.RebuildNS.Add(int64(d))
}

// Stats exposes the controller's counters.
func (c *Controller) Stats() *Stats { return c.stats }

// Stats exposes the shared counters through a session (LibFSes report
// their auxiliary-state rebuild times here).
func (s *Session) Stats() *Stats { return s.c.stats }

// Snapshot is a plain-value copy of Stats for reporting.
type Snapshot struct {
	MapCount, UnmapCount, VerifyCount, RebuildCount int64
	MapTime, UnmapTime, VerifyTime, RebuildTime     time.Duration
	Checkpoints, Corruptions, Fixed, Rollbacks      int64
	Reaps, ReapVerifies, ReapQuarantines            int64
	LeaseRecalls, LeaseExpiries                     int64
	ScrubPasses, ScrubPages, ScrubSealed            int64
	ScrubDetected, ScrubRepaired, ScrubQuarantined  int64
	ScrubTime                                       time.Duration
	SealCleanPages, SealStreamedPages               int64
	VerifyScoped, VerifyFull, IndexPagesRead        int64
	KeptIndexPages                                  int64 // a level: Sub gives its change

	// PerShard mirrors the lock-shard counters (ISSUE 6), one entry per
	// shard, taken in the same registry pass as the global counters.
	PerShard []ShardSnapshot
}

// ShardSnapshot is the plain-value form of one shard's counters.
type ShardSnapshot struct {
	Maps, Unmaps, Allocs, Reaps, Recalls int64
	ScrubPages, Admitted, AdmitWaits     int64
}

// Sub returns the delta s - prev.
func (s ShardSnapshot) Sub(prev ShardSnapshot) ShardSnapshot {
	return ShardSnapshot{
		Maps:       s.Maps - prev.Maps,
		Unmaps:     s.Unmaps - prev.Unmaps,
		Allocs:     s.Allocs - prev.Allocs,
		Reaps:      s.Reaps - prev.Reaps,
		Recalls:    s.Recalls - prev.Recalls,
		ScrubPages: s.ScrubPages - prev.ScrubPages,
		Admitted:   s.Admitted - prev.Admitted,
		AdmitWaits: s.AdmitWaits - prev.AdmitWaits,
	}
}

// Snapshot copies the counters through one registry snapshot: every
// value is an atomic read taken in a single pass, never a torn copy.
func (s *Stats) Snapshot() Snapshot {
	snap := s.reg.Snapshot()
	shards := make([]ShardSnapshot, len(s.perShard))
	for i := range shards {
		pfx := fmt.Sprintf("controller.shard%d.", i)
		shards[i] = ShardSnapshot{
			Maps:       snap.Get(pfx + "maps"),
			Unmaps:     snap.Get(pfx + "unmaps"),
			Allocs:     snap.Get(pfx + "allocs"),
			Reaps:      snap.Get(pfx + "reaps"),
			Recalls:    snap.Get(pfx + "recalls"),
			ScrubPages: snap.Get(pfx + "scrub_pages"),
			Admitted:   snap.Get(pfx + "admitted"),
			AdmitWaits: snap.Get(pfx + "admit_waits"),
		}
	}
	return Snapshot{
		PerShard:     shards,
		MapCount:     snap.Get("controller.map_count"),
		UnmapCount:   snap.Get("controller.unmap_count"),
		VerifyCount:  snap.Get("controller.verify_count"),
		RebuildCount: snap.Get("controller.rebuild_count"),
		MapTime:      time.Duration(snap.Get("controller.map_ns")),
		UnmapTime:    time.Duration(snap.Get("controller.unmap_ns")),
		VerifyTime:   time.Duration(snap.Get("controller.verify_ns")),
		RebuildTime:  time.Duration(snap.Get("controller.rebuild_ns")),
		Checkpoints:  snap.Get("controller.checkpoints"),
		Corruptions:  snap.Get("controller.corruptions"),
		Fixed:        snap.Get("controller.fixed"),
		Rollbacks:    snap.Get("controller.rollbacks"),

		Reaps:           snap.Get("controller.reaps"),
		ReapVerifies:    snap.Get("controller.reap_verifies"),
		ReapQuarantines: snap.Get("controller.reap_quarantines"),
		LeaseRecalls:    snap.Get("controller.lease_recalls"),
		LeaseExpiries:   snap.Get("controller.lease_expiries"),

		ScrubPasses:      snap.Get("controller.scrub_passes"),
		ScrubPages:       snap.Get("controller.scrub_pages"),
		ScrubSealed:      snap.Get("controller.scrub_sealed"),
		ScrubDetected:    snap.Get("controller.scrub_detected"),
		ScrubRepaired:    snap.Get("controller.scrub_repaired"),
		ScrubQuarantined: snap.Get("controller.scrub_quarantined"),
		ScrubTime:        time.Duration(snap.Get("controller.scrub_ns")),

		SealCleanPages:    snap.Get("controller.seal_clean_pages"),
		SealStreamedPages: snap.Get("controller.seal_streamed_pages"),

		VerifyScoped:   snap.Get("controller.verify_scoped"),
		VerifyFull:     snap.Get("controller.verify_full"),
		IndexPagesRead: snap.Get("controller.index_pages_read"),
		KeptIndexPages: snap.Get("controller.kept_index_pages"),
	}
}

// Sub returns the delta s - prev, for measuring one experiment window.
// Per-shard counters subtract when both snapshots carry the same shard
// count (they always do for snapshots of one controller).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var shards []ShardSnapshot
	if len(s.PerShard) == len(prev.PerShard) {
		shards = make([]ShardSnapshot, len(s.PerShard))
		for i := range shards {
			shards[i] = s.PerShard[i].Sub(prev.PerShard[i])
		}
	} else {
		shards = append(shards, s.PerShard...)
	}
	return Snapshot{
		PerShard:     shards,
		MapCount:     s.MapCount - prev.MapCount,
		UnmapCount:   s.UnmapCount - prev.UnmapCount,
		VerifyCount:  s.VerifyCount - prev.VerifyCount,
		RebuildCount: s.RebuildCount - prev.RebuildCount,
		MapTime:      s.MapTime - prev.MapTime,
		UnmapTime:    s.UnmapTime - prev.UnmapTime,
		VerifyTime:   s.VerifyTime - prev.VerifyTime,
		RebuildTime:  s.RebuildTime - prev.RebuildTime,
		Checkpoints:  s.Checkpoints - prev.Checkpoints,
		Corruptions:  s.Corruptions - prev.Corruptions,
		Fixed:        s.Fixed - prev.Fixed,
		Rollbacks:    s.Rollbacks - prev.Rollbacks,

		Reaps:           s.Reaps - prev.Reaps,
		ReapVerifies:    s.ReapVerifies - prev.ReapVerifies,
		ReapQuarantines: s.ReapQuarantines - prev.ReapQuarantines,
		LeaseRecalls:    s.LeaseRecalls - prev.LeaseRecalls,
		LeaseExpiries:   s.LeaseExpiries - prev.LeaseExpiries,

		ScrubPasses:      s.ScrubPasses - prev.ScrubPasses,
		ScrubPages:       s.ScrubPages - prev.ScrubPages,
		ScrubSealed:      s.ScrubSealed - prev.ScrubSealed,
		ScrubDetected:    s.ScrubDetected - prev.ScrubDetected,
		ScrubRepaired:    s.ScrubRepaired - prev.ScrubRepaired,
		ScrubQuarantined: s.ScrubQuarantined - prev.ScrubQuarantined,
		ScrubTime:        s.ScrubTime - prev.ScrubTime,

		SealCleanPages:    s.SealCleanPages - prev.SealCleanPages,
		SealStreamedPages: s.SealStreamedPages - prev.SealStreamedPages,

		VerifyScoped:   s.VerifyScoped - prev.VerifyScoped,
		VerifyFull:     s.VerifyFull - prev.VerifyFull,
		IndexPagesRead: s.IndexPagesRead - prev.IndexPagesRead,
		KeptIndexPages: s.KeptIndexPages - prev.KeptIndexPages,
	}
}
