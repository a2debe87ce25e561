package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trio/internal/controller"
	"trio/internal/delegation"
	"trio/internal/fsapi"
	"trio/internal/libfs"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// TestChaosTenantDeathMultiShard adds three things to
// TestChaosTenantDeath, which runs on the same default 8 lock shards:
// pure-controller ballast sessions — a wave of them abandoned while
// holding raw pool pages, beside the tenants that die mid-syscall — the
// scrub drain, and the page-leak check. Convergence is asserted
// per-shard, not just globally:
//
//   - every dead session is reaped (the per-shard sweepers each find
//     their own corpses; reaps land on several distinct shards);
//   - no stuck leases — a fresh trust domain write-maps every file;
//   - the scrub backlog drains in the background: once the system
//     quiesces, the per-shard scrub slices seal everything on their
//     own, so a foreground full pass finds nothing left to seal;
//   - no leaked pages — after unlinking every surviving file the free
//     count returns to the post-setup level (minus retained directory
//     metadata), so neither dead pools nor dead files pin pages.
func TestChaosTenantDeathMultiShard(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is not short")
	}
	baseline := runtime.NumGoroutine()

	const shards = 8
	// The cost model must be on: the per-shard background scrub slices
	// size their budget from the modeled read bandwidth, and a device
	// without a cost model gets no background scrubbing at all — the
	// drain assertion below would be vacuous.
	dev := nvm.MustNewDevice(nvm.Config{
		Nodes: 2, PagesPerNode: 8192, Cost: nvm.DefaultCostModel()})
	ctl, err := controller.New(dev, controller.Options{
		Shards:        shards,
		LeaseTime:     2 * time.Millisecond,
		RecallTimeout: 50 * time.Millisecond,
		LeaseSweep:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := delegation.NewPool(dev, 2)

	const nTenant = 12
	const nKill = 6
	const nBallast = 8

	setup, err := libfs.New(ctl.Register(0, 0, 0, 0), libfs.Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rc := setup.NewClient(0)
	for i := 0; i < nTenant; i++ {
		if err := rc.Mkdir(fmt.Sprintf("/t%d", i), 0o777); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Close(); err != nil {
		t.Fatal(err)
	}
	freeSetup := ctl.FreePagesCount()

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		errMu   sync.Mutex
		tErrs   []error
		tenants [nTenant]*libfs.FS
		killed  [nTenant]atomic.Bool
	)
	fail := func(err error) {
		errMu.Lock()
		tErrs = append(tErrs, err)
		errMu.Unlock()
		stop.Store(true)
	}
	transient := func(err error) bool {
		return errors.Is(err, mmu.ErrFault) ||
			errors.Is(err, controller.ErrRevoked) ||
			errors.Is(err, fsapi.ErrNotExist)
	}

	for i := 0; i < nTenant; i++ {
		fs, err := libfs.New(
			ctl.Register(uint32(1000+i), uint32(1000+i), i%2, 0),
			libfs.Config{CPUs: 2, Pool: pool, Stripe: true})
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = fs
		wg.Add(1)
		go func(i int, fs *libfs.FS) {
			defer wg.Done()
			cl := fs.NewClient(i % 2)
			rng := rand.New(rand.NewSource(int64(i)*7919 + 13))
			for j := 0; !stop.Load(); j++ {
				path := fmt.Sprintf("/t%d/f%d", i, j%3)
				payload := []byte(fmt.Sprintf("tenant %d iter %d", i, j))
				err := func() error {
					f, err := cl.Create(path, 0o644)
					if err != nil {
						return err
					}
					defer f.Close()
					if _, err := f.WriteAt(payload, 0); err != nil {
						return err
					}
					back := make([]byte, len(payload))
					if _, err := f.ReadAt(back, 0); err != nil {
						return err
					}
					if !bytes.Equal(back, payload) {
						return fmt.Errorf("tenant %d: read-back mismatch on %s", i, path)
					}
					return nil
				}()
				if err == nil && rng.Intn(4) == 0 {
					err = cl.Unlink(path)
				}
				if err != nil {
					if killed[i].Load() || stop.Load() || transient(err) {
						if killed[i].Load() {
							return
						}
						continue
					}
					fail(fmt.Errorf("tenant %d: %w", i, err))
					return
				}
			}
		}(i, fs)
	}

	// The killer: abandon half the tenants at random syscall points
	// (alternating explicit Reap with leaving the corpse to that
	// shard's sweeper), then a wave of ballast sessions — plain
	// controller sessions holding only raw pool pages — registered and
	// abandoned in one burst, so the per-shard sweepers all have
	// corpses of both kinds to find.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		for k := 0; k < nKill; k++ {
			killed[k].Store(true)
			tenants[k].Session().Abandon()
			if k%2 == 0 {
				if err := ctl.Reap(tenants[k].Session().ID()); err != nil {
					fail(fmt.Errorf("reap tenant %d: %w", k, err))
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
		for b := 0; b < nBallast; b++ {
			s := ctl.Register(uint32(5000+b), uint32(5000+b), b%2, 0)
			if _, err := s.AllocPages(b%2, 16); err != nil {
				fail(fmt.Errorf("ballast %d alloc: %w", b, err))
			}
			s.Abandon() // the home shard's sweeper must release the pool
		}
		time.Sleep(100 * time.Millisecond)
		stop.Store(true)
	}()

	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(60 * time.Second):
		t.Fatal("liveness violation: chaos goroutines did not join")
	}
	errMu.Lock()
	for _, e := range tErrs {
		t.Error(e)
	}
	errMu.Unlock()

	// Every dead session — killed tenants and abandoned ballast — gets
	// reaped, and nothing else does.
	const wantReaps = nKill + nBallast
	deadline := time.Now().Add(10 * time.Second)
	for ctl.Stats().Reaps.Load() < wantReaps && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := ctl.Stats().Snapshot()
	if st.Reaps != wantReaps {
		t.Fatalf("Reaps = %d, want exactly %d", st.Reaps, wantReaps)
	}
	if st.ReapQuarantines != 0 {
		t.Fatalf("ReapQuarantines = %d: reaper could not repair some file", st.ReapQuarantines)
	}
	// The per-shard counters agree with the global one, and the dead
	// sessions were spread across shards — this was a multi-shard
	// death, not one unlucky shard's. (Session ids are assigned
	// deterministically, so the shard spread is stable run to run.)
	var reapSum int64
	reapShards := 0
	for _, ss := range st.PerShard {
		reapSum += ss.Reaps
		if ss.Reaps > 0 {
			reapShards++
		}
	}
	if reapSum != st.Reaps {
		t.Fatalf("per-shard Reaps sum %d != global %d", reapSum, st.Reaps)
	}
	if reapShards < 4 {
		t.Fatalf("reaps landed on only %d/%d shards: %+v", reapShards, shards, st.PerShard)
	}

	// Survivors tear down cooperatively.
	for i := nKill; i < nTenant; i++ {
		if err := tenants[i].Close(); err != nil {
			t.Errorf("surviving tenant %d close: %v", i, err)
		}
	}

	// Scrub backlog drains: with the system quiesced, the per-shard
	// background slices must seal every remaining page by themselves.
	// Wait for the background sealing to go quiet, then prove it went
	// quiet because it FINISHED: a foreground full pass must find
	// nothing left to seal, no mismatches, and full coverage.
	sealDeadline := time.Now().Add(15 * time.Second)
	stable := 0
	last := int64(-1)
	for stable < 10 {
		if time.Now().After(sealDeadline) {
			t.Fatal("background scrub never reached steady state")
		}
		cur := ctl.Stats().ScrubSealed.Load()
		if cur == last {
			stable++
		} else {
			stable = 0
			last = cur
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep := ctl.ScrubAll()
	if rep.Sealed != 0 {
		t.Fatalf("scrub backlog did not drain: foreground pass still sealed %d records (%+v)", rep.Sealed, rep)
	}
	if rep.Mismatches != 0 || rep.Quarantined != 0 {
		t.Fatalf("scrub found corruption after chaos: %+v", rep)
	}
	if rep.Covered != rep.Candidates {
		t.Fatalf("scrub coverage incomplete after drain: %d/%d (%+v)", rep.Covered, rep.Candidates, rep)
	}

	// No stuck leases: every surviving file verifies clean and is
	// write-mappable by a brand-new trust domain.
	if checked, bad, first := ctl.VerifyAll(); bad != 0 {
		t.Fatalf("VerifyAll: %d/%d bad, first: %s", bad, checked, first)
	}
	sweep := ctl.Register(0, 0, 0, 0)
	for _, fi := range ctl.Files() {
		if _, err := sweep.MapFile(fi.Ino, fi.Loc, true); err != nil {
			t.Fatalf("post-chaos write map of ino %d: %v", fi.Ino, err)
		}
		if err := sweep.UnmapFile(fi.Ino); err != nil {
			t.Fatalf("post-chaos unmap of ino %d: %v", fi.Ino, err)
		}
	}
	if err := sweep.Close(); err != nil {
		t.Fatal(err)
	}

	// No leaked pages: unlink every remaining file; the free count must
	// return to the post-setup level less only the directory metadata
	// (dirent/index pages) the tenant dirs grew during the run. A
	// reaped session whose pool or file pages were never released shows
	// up here as a shortfall beyond that slack.
	janitor, err := libfs.New(ctl.Register(0, 0, 0, 0), libfs.Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	jc := janitor.NewClient(0)
	for i := 0; i < nTenant; i++ {
		ents, err := jc.ReadDir(fmt.Sprintf("/t%d", i))
		if err != nil {
			t.Fatalf("janitor readdir /t%d: %v", i, err)
		}
		for _, name := range ents {
			path := fmt.Sprintf("/t%d/%s", i, name)
			if err := jc.Unlink(path); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
				t.Fatalf("janitor unlink %s: %v", path, err)
			}
		}
	}
	if err := janitor.Close(); err != nil {
		t.Fatal(err)
	}
	slack := 4*nTenant + 32
	if got := ctl.FreePagesCount(); got < freeSetup-slack {
		t.Fatalf("leaked pages: free %d after full unlink, post-setup baseline %d (slack %d)",
			got, freeSetup, slack)
	}

	ctl.Close()
	pool.Close()

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+3 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
