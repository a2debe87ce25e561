package controller

import (
	"sync"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/telemetry"
)

// TestStatsSnapshotConcurrent hammers the stats counters from many
// goroutines while snapshotting concurrently: under -race this asserts
// the registry-backed Snapshot path is a clean atomic read, replacing
// the old field-by-field copy of plain atomics.
func TestStatsSnapshotConcurrent(t *testing.T) {
	s := newStats(4)
	const goroutines = 8
	const per = 5000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.addMapN(1, time.Nanosecond)
				s.addUnmapN(1, time.Nanosecond)
				s.addVerify(time.Nanosecond)
				s.Corruptions.Add(1)
				s.Reaps.Add(1)
				if i%128 == 0 {
					snap := s.Snapshot()
					// A snapshot is internally consistent per counter:
					// counts never exceed what has been added in total.
					if snap.MapCount > goroutines*per {
						t.Errorf("MapCount %d exceeds possible total", snap.MapCount)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	snap := s.Snapshot()
	if snap.MapCount != goroutines*per {
		t.Fatalf("MapCount = %d, want %d", snap.MapCount, goroutines*per)
	}
	if snap.MapTime != time.Duration(goroutines*per) {
		t.Fatalf("MapTime = %d, want %d", snap.MapTime, goroutines*per)
	}
	if snap.Corruptions != goroutines*per || snap.Reaps != goroutines*per {
		t.Fatalf("Corruptions/Reaps = %d/%d, want %d", snap.Corruptions, snap.Reaps, goroutines*per)
	}
	d := snap.Sub(snap)
	if d.MapCount != 0 || d.VerifyTime != 0 {
		t.Fatalf("self-delta not zero: %+v", d)
	}
}

// TestStatsPerShardAggregation hammers the per-shard counters from
// concurrent goroutines — each shard's counters bumped from several
// goroutines, plus one goroutine snapshotting throughout — and then
// asserts Snapshot merged them exactly: every shard's entry matches
// what was added to it, and the per-shard entries sum to the total.
// Under -race this is the proof that Stats.Snapshot merges shard
// counters without tearing.
func TestStatsPerShardAggregation(t *testing.T) {
	const shards = 8
	const goroutines = 2 // per shard
	const per = 2000
	s := newStats(shards)

	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		weight := int64(sh + 1) // distinct per-shard totals, so a routing mixup fails loudly
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(sh int, weight int64) {
				defer wg.Done()
				sc := s.shard(sh)
				for i := 0; i < per; i++ {
					sc.Maps.Add(weight)
					sc.Unmaps.Add(1)
					sc.Admitted.Add(1)
					if i%64 == 0 {
						sc.AdmitWaits.Add(1)
					}
				}
			}(sh, weight)
		}
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			snap := s.Snapshot()
			if len(snap.PerShard) != shards {
				t.Errorf("PerShard has %d entries, want %d", len(snap.PerShard), shards)
				return
			}
			var sum int64
			for _, ss := range snap.PerShard {
				sum += ss.Unmaps
			}
			if sum > shards*goroutines*per {
				t.Errorf("mid-run per-shard Unmaps sum %d exceeds possible total", sum)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()

	snap := s.Snapshot()
	var mapSum, unmapSum int64
	for sh, ss := range snap.PerShard {
		wantMaps := int64(sh+1) * goroutines * per
		if ss.Maps != wantMaps {
			t.Errorf("shard %d Maps = %d, want %d", sh, ss.Maps, wantMaps)
		}
		if ss.Unmaps != goroutines*per {
			t.Errorf("shard %d Unmaps = %d, want %d", sh, ss.Unmaps, goroutines*per)
		}
		if ss.Admitted != goroutines*per {
			t.Errorf("shard %d Admitted = %d, want %d", sh, ss.Admitted, goroutines*per)
		}
		wantWaits := int64(goroutines * ((per + 63) / 64))
		if ss.AdmitWaits != wantWaits {
			t.Errorf("shard %d AdmitWaits = %d, want %d", sh, ss.AdmitWaits, wantWaits)
		}
		mapSum += ss.Maps
		unmapSum += ss.Unmaps
	}
	wantMapSum := int64(shards*(shards+1)/2) * goroutines * per
	if mapSum != wantMapSum {
		t.Fatalf("per-shard Maps sum = %d, want %d", mapSum, wantMapSum)
	}
	if unmapSum != shards*goroutines*per {
		t.Fatalf("per-shard Unmaps sum = %d, want %d", unmapSum, shards*goroutines*per)
	}

	// Per-shard deltas subtract entry-wise.
	d := snap.Sub(snap)
	for sh, ss := range d.PerShard {
		if ss != (ShardSnapshot{}) {
			t.Fatalf("self-delta shard %d not zero: %+v", sh, ss)
		}
	}
}

// TestStatsPerShardTelemetryNames pins the field compatibility between
// Snapshot's per-shard entries and the telemetry registry (PR 4):
// every shard counter is a named registry instrument
// ("controller.shard<N>.<field>") whose registry-snapshot value equals
// the merged Snapshot entry, so trio-top and arckfsck -json read the
// same numbers without a second bookkeeping path.
func TestStatsPerShardTelemetryNames(t *testing.T) {
	s := newStats(4)
	s.shard(0).Maps.Add(3)
	s.shard(2).Recalls.Add(5)
	s.shard(3).ScrubPages.Add(7)
	// shard() wraps out-of-range hints instead of panicking: index 6 on
	// a 4-shard stats lands on shard 2.
	s.shard(6).Reaps.Add(11)

	snap := s.Snapshot()
	reg := s.Registry().Snapshot()
	checks := []struct {
		name   string
		reg    int64
		merged int64
	}{
		{"controller.shard0.maps", reg.Get("controller.shard0.maps"), snap.PerShard[0].Maps},
		{"controller.shard2.recalls", reg.Get("controller.shard2.recalls"), snap.PerShard[2].Recalls},
		{"controller.shard3.scrub_pages", reg.Get("controller.shard3.scrub_pages"), snap.PerShard[3].ScrubPages},
		{"controller.shard2.reaps", reg.Get("controller.shard2.reaps"), snap.PerShard[2].Reaps},
	}
	for _, c := range checks {
		if c.reg != c.merged {
			t.Errorf("%s: registry=%d merged=%d", c.name, c.reg, c.merged)
		}
	}
	if snap.PerShard[0].Maps != 3 || snap.PerShard[2].Recalls != 5 ||
		snap.PerShard[3].ScrubPages != 7 || snap.PerShard[2].Reaps != 11 {
		t.Fatalf("per-shard values wrong: %+v", snap.PerShard)
	}

	// Snapshot.Sub across different shard widths cannot subtract
	// entry-wise; it keeps the newer snapshot's entries as-is.
	other := newStats(2).Snapshot()
	d := snap.Sub(other)
	if len(d.PerShard) != 4 || d.PerShard[0].Maps != 3 {
		t.Fatalf("width-mismatch Sub mangled per-shard entries: %+v", d.PerShard)
	}
}

// TestPageTracingFoldsIntoTelemetry: arming telemetry tracing is the
// one switch — page accounting transitions become filterable "page"
// trace events and failed verifications "verify.failure" events,
// instead of a bespoke in-controller log and a callback hook.
func TestPageTracingFoldsIntoTelemetry(t *testing.T) {
	c := &Controller{stats: newStats(4)}
	// Without tracing armed, tracePage is a no-op.
	c.tracePage(7, "grant ls=%d", 1)
	if got := pageTraceOf(7); len(got) != 0 {
		t.Fatalf("trace recorded while disarmed: %v", got)
	}

	telemetry.EnableTracing(4096)
	defer telemetry.ResetTracing()
	c.tracePage(7, "grant ls=%d", 1)
	if got := pageTraceOf(7); len(got) != 1 || got[0] != "grant ls=1" {
		t.Fatalf("page trace = %v, want one %q event", got, "grant ls=1")
	}

	// A verification that fails (index chain pointed at a reserved page,
	// caught at unmap) lands in the same ring, keyed by ino.
	ctl, _ := newCtl(t, smallCfg())
	a := ctl.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "victim", []byte("data"))
	a.UnmapFile(core.RootIno)
	info, err := a.MapFile(ino, loc, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SetIndexEntry(a.AddressSpace(), info.Inode.Head, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.UnmapFile(ino); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	found := false
	for _, rec := range telemetry.TraceSnapshot() {
		if rec.Name == "verify.failure" && rec.Layer == "controller" && rec.Arg == int64(ino) {
			found = true
		}
	}
	if !found {
		t.Fatal("failed verification emitted no verify.failure trace event")
	}
}
