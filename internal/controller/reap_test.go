package controller

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/delegation"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// TestAbandonedSessionReap is the ungraceful-teardown core case: a LibFS
// dies mid-write with mappings installed, pool pages allocated and the
// file's core state corrupted. Reap must revoke the MMU, roll the file
// back, release the dead session's resources and leave the file
// immediately mappable by another trust domain.
func TestAbandonedSessionReap(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	content := []byte("survives the crash")
	ino, loc := mkFile(t, a, "victim", content)
	info, err := a.MapFile(ino, loc, true)
	if err != nil {
		t.Fatal(err)
	}
	// Half-written state: an extent aimed at a reserved page.
	if err := core.SetIndexEntry(a.AddressSpace(), info.Inode.Head, 1, 1); err != nil {
		t.Fatal(err)
	}
	free0 := c.FreePagesCount()
	if _, err := a.AllocPages(0, 16); err != nil {
		t.Fatal(err)
	}

	st0 := c.Stats().Snapshot()
	a.Abandon()

	// Every syscall on the dead session is rejected.
	if _, err := a.MapFile(ino, loc, false); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("MapFile on dead session: %v", err)
	}
	if _, err := a.AllocPages(0, 1); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("AllocPages on dead session: %v", err)
	}
	if err := a.Close(); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("Close on dead session: %v", err)
	}

	if err := c.Reap(a.ID()); err != nil {
		t.Fatal(err)
	}
	st := c.Stats().Snapshot().Sub(st0)
	if st.Reaps != 1 {
		t.Fatalf("Reaps = %d", st.Reaps)
	}
	if st.ReapVerifies != 2 { // root (from mkFile) + the corrupted file
		t.Fatalf("ReapVerifies = %d", st.ReapVerifies)
	}
	if st.Corruptions == 0 || st.Rollbacks == 0 {
		t.Fatalf("corruption not repaired: %+v", st)
	}
	if st.ReapQuarantines != 0 {
		t.Fatalf("unexpected quarantine: %+v", st)
	}

	// The whole address space is revoked, not merely unmapped.
	var buf [8]byte
	if err := a.AddressSpace().Read(loc.Page, 0, buf[:]); !errors.Is(err, mmu.ErrRevoked) {
		t.Fatalf("dead session read: %v", err)
	}

	// Pool pages (the 16 above) went back; file pages stayed bound.
	if got := c.FreePagesCount(); got != free0 {
		t.Fatalf("free pages after reap %d, want %d", got, free0)
	}

	// Another domain maps the file and reads the rolled-back content.
	b := c.Register(2000, 2000, 0, 0)
	info2, err := b.MapFile(ino, loc, false)
	if err != nil {
		t.Fatalf("map after reap: %v", err)
	}
	dp, err := core.IndexEntry(b.AddressSpace(), info2.Inode.Head, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if err := b.AddressSpace().Read(dp, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(content) {
		t.Fatalf("content after reap %q, want %q", got, content)
	}

	// Reaping again is a no-op.
	if err := c.Reap(a.ID()); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().Snapshot().Sub(st0).Reaps; n != 1 {
		t.Fatalf("second reap counted: %d", n)
	}
}

// TestReapQuarantinesUnrestorableFile: when the rollback itself cannot
// land (media write faults on the checkpointed page), the file must be
// quarantined rather than re-shared in a corrupt state.
func TestReapQuarantinesUnrestorableFile(t *testing.T) {
	c, dev := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "doomed", []byte("data"))
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	info, err := a.MapFile(ino, loc, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SetIndexEntry(a.AddressSpace(), info.Inode.Head, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Every store to the index page fails from here on: the checkpoint
	// restore cannot undo the corruption.
	fp := nvm.NewFaultPlan()
	fp.InjectWriteFault(info.Inode.Head, 0, -1)
	dev.SetFaultPlan(fp)
	t.Cleanup(func() { dev.SetFaultPlan(nil) })

	st0 := c.Stats().Snapshot()
	a.Abandon()
	if err := c.Reap(a.ID()); err != nil {
		t.Fatal(err)
	}
	dev.SetFaultPlan(nil)

	st := c.Stats().Snapshot().Sub(st0)
	if st.ReapQuarantines != 1 {
		t.Fatalf("ReapQuarantines = %d (stats %+v)", st.ReapQuarantines, st)
	}
	b := c.Register(2000, 2000, 0, 0)
	if _, err := b.MapFile(ino, loc, false); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("mapping quarantined file: %v", err)
	}
}

// TestRecoverQuarantinesFailedRollback: a crash leaves a write-mapped
// file corrupt and the rollback's restore of its index page fails, so
// the restored state does not verify. Recovery must quarantine the file
// rather than leave it mappable by another trust domain.
func TestRecoverQuarantinesFailedRollback(t *testing.T) {
	c, dev := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "torn", []byte("data"))
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	info, err := a.MapFile(ino, loc, true)
	if err != nil {
		t.Fatal(err)
	}
	head := info.Inode.Head
	if err := core.SetIndexEntry(a.AddressSpace(), head, 5, 1); err != nil {
		t.Fatal(err)
	}
	// The next store to the index page — the restore's — fails.
	fp := nvm.NewFaultPlan()
	fp.InjectWriteFault(head, 0, 1)
	dev.SetFaultPlan(fp)
	t.Cleanup(func() { dev.SetFaultPlan(nil) })

	_, rolledBack, err := c.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rolledBack != 1 {
		t.Fatalf("Recover rolled back %d files, want 1", rolledBack)
	}
	b := c.Register(2000, 2000, 0, 0)
	if _, err := b.MapFile(ino, loc, false); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("map after a failed rollback: %v", err)
	}
}

// TestRecoverKeepsCommittedUnlink: clearing a dirent is an unlink's
// commit point. A writer that cleared one and crashed before its batched
// RemoveFiles left a deleted file, not a corrupt one, and Recover retires
// it as a reap would: it neither brings the dead inode back to life nor
// writes it over a fresh file that took the slot since.
func TestRecoverKeepsCommittedUnlink(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		t.Run(map[bool]string{false: "cleared", true: "reused"}[reuse], func(t *testing.T) {
			c, _ := newCtl(t, smallCfg())
			a := c.Register(1000, 1000, 0, 0)
			ino, loc := mkFile(t, a, "gone", []byte("unlinked before the crash"))
			unmapRoot(t, a) // adopts the file
			if _, err := a.MapFile(core.RootIno, core.RootLoc(), true); err != nil {
				t.Fatal(err)
			}
			if _, err := a.MapFile(ino, loc, true); err != nil {
				t.Fatal(err)
			}
			if err := core.CommitDirentIno(a.AddressSpace(), loc.Page, loc.Slot, 0); err != nil {
				t.Fatal(err)
			}
			want := core.Ino(0)
			if reuse {
				var at core.FileLoc
				if want, at = mkFile(t, a, "fresh", []byte("took the slot")); at != loc {
					t.Fatalf("the fresh file went to %v, not the unlinked slot %v", at, loc)
				}
			}
			checked, rolledBack, err := c.Recover(nil)
			if err != nil {
				t.Fatal(err)
			}
			if rolledBack != 0 {
				t.Errorf("checked %d, rolled back %d: a committed unlink is not corruption", checked, rolledBack)
			}
			if got, err := core.DirentIno(c.mem, loc.Page, loc.Slot); err != nil || got != want {
				t.Errorf("the slot names ino %d (%v), want %d", got, err, want)
			}
			if checked, bad, first := c.VerifyAll(); bad != 0 {
				t.Fatalf("VerifyAll: %d of %d bad: %s", bad, checked, first)
			}
		})
	}
}

// TestRollbackDurableThroughBusyWindow: the controller's own persists
// ride the device's busy retry like everyone else's. A write-mapped
// file's index page holds a scribbled entry; Recover rolls it back while
// the page's next two persists meet a busy window. The restore must
// still be durable: after a power failure and a cold mount the tree
// verifies clean.
func TestRollbackDurableThroughBusyWindow(t *testing.T) {
	cfg := smallCfg()
	cfg.TrackPersistence = true
	c, dev := newCtl(t, cfg)
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "busy", []byte("data"))
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	info, err := a.MapFile(ino, loc, true)
	if err != nil {
		t.Fatal(err)
	}
	head := info.Inode.Head
	if err := core.SetIndexEntry(a.AddressSpace(), head, 5, 1); err != nil {
		t.Fatal(err)
	}
	fp := nvm.NewFaultPlan()
	fp.DelayPersists(head, 2)
	dev.SetFaultPlan(fp)
	_, rolledBack, err := c.Recover(nil)
	dev.SetFaultPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rolledBack != 1 {
		t.Fatalf("Recover rolled back %d files, want 1", rolledBack)
	}
	if fp.Faults() == 0 {
		t.Fatal("the rollback never met the busy window")
	}

	dev.Tracker().Crash()
	c2, err := New(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, bad, first := c2.VerifyAll(); bad != 0 {
		t.Fatalf("after a crash the rollback did not hold: %d bad (%s)", bad, first)
	}
}

// TestLeaseExpiryRevocation (the deterministic lease story): A holds a
// write mapping past its lease with no recall handler; B's write map
// must succeed within a bounded wait; A's next access on the file fails
// with a revocation error, and A's raw stores fault.
func TestLeaseExpiryRevocation(t *testing.T) {
	c, _ := newCtl(t, smallCfg()) // LeaseTime 5ms, RecallTimeout 10ms
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "held", []byte("leased"))
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	if err := a.Chmod(ino, 0o666); err != nil {
		t.Fatal(err)
	}

	st0 := c.Stats().Snapshot()
	b := c.Register(2000, 2000, 0, 0)
	start := time.Now()
	info, err := b.MapFile(ino, loc, true)
	if err != nil {
		t.Fatalf("B write map: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("B waited %v; lease escalation not bounded", elapsed)
	}
	st := c.Stats().Snapshot().Sub(st0)
	if st.LeaseExpiries == 0 {
		t.Fatalf("no lease expiry recorded: %+v", st)
	}
	if st.LeaseRecalls != 0 { // A registered no recall handler
		t.Fatalf("recall sent without a handler: %+v", st)
	}
	if st.Reaps != 0 { // only the file was revoked, not the session
		t.Fatalf("live session reaped: %+v", st)
	}
	if st.ReapVerifies == 0 {
		t.Fatalf("forcible revocation skipped verification: %+v", st)
	}

	// A's session is alive, but the file is gone from it.
	if err := a.UnmapFile(ino); !errors.Is(err, ErrRevoked) {
		t.Fatalf("A unmap after revocation: %v", err)
	}
	if err := a.Commit(ino); !errors.Is(err, ErrRevoked) {
		t.Fatalf("A commit after revocation: %v", err)
	}
	dp, err := core.IndexEntry(b.AddressSpace(), info.Inode.Head, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddressSpace().Write(dp, 0, []byte("x")); !errors.Is(err, mmu.ErrFault) {
		t.Fatalf("A still writes the revoked file: %v", err)
	}
	if _, err := a.AllocPages(0, 1); err != nil {
		t.Fatalf("A's session should still be alive: %v", err)
	}
	// A successful re-map clears the revocation marker.
	if err := b.UnmapFile(ino); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatalf("A re-map after revocation: %v", err)
	}
}

// TestLeaseRecallCooperative: a holder with a recall handler gives the
// file back voluntarily — no forcible revocation, no reap.
func TestLeaseRecallCooperative(t *testing.T) {
	dev := nvm.MustNewDevice(smallCfg())
	c, err := New(dev, Options{LeaseTime: 2 * time.Millisecond, RecallTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "shared", []byte("x"))
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	if err := a.Chmod(ino, 0o666); err != nil {
		t.Fatal(err)
	}
	recalled := make(chan core.Ino, 1)
	a.SetRecallHandler(func(in core.Ino) {
		recalled <- in
		_ = a.UnmapFile(in)
	})

	st0 := c.Stats().Snapshot()
	b := c.Register(2000, 2000, 0, 0)
	start := time.Now()
	if _, err := b.MapFile(ino, loc, true); err != nil {
		t.Fatalf("B write map: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("B waited %v", elapsed)
	}
	select {
	case got := <-recalled:
		if got != ino {
			t.Fatalf("recall for ino %d, want %d", got, ino)
		}
	default:
		t.Fatal("recall handler never invoked")
	}
	st := c.Stats().Snapshot().Sub(st0)
	if st.LeaseRecalls == 0 {
		t.Fatalf("no recall recorded: %+v", st)
	}
	if st.LeaseExpiries != 0 || st.Reaps != 0 {
		t.Fatalf("cooperative release escalated anyway: %+v", st)
	}
}

// TestSweeperReapsAbandoned: with LeaseSweep set, an abandoned session
// is reclaimed in the background with no Map call driving enforcement.
func TestSweeperReapsAbandoned(t *testing.T) {
	dev := nvm.MustNewDevice(smallCfg())
	c, err := New(dev, Options{LeaseTime: 2 * time.Millisecond, LeaseSweep: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	free0 := c.FreePagesCount()
	a := c.Register(1000, 1000, 0, 0)
	if _, err := a.AllocPages(0, 8); err != nil {
		t.Fatal(err)
	}
	a.Abandon()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Reaps.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never reaped the abandoned session")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.FreePagesCount(); got != free0 {
		t.Fatalf("abandoned pool not released: %d vs %d", got, free0)
	}
	c.Close() // idempotent
	// Close returns once every shard's sweeper has passed its Done; give
	// the last frames a moment to unwind, then none may be left.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("shardSweeper")); {
		if time.Now().After(deadline) {
			t.Fatal("a shard sweeper goroutine survived Close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReapAbandonedOnDemand is the sweeperless form.
func TestReapAbandonedOnDemand(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	b := c.Register(1001, 1001, 0, 0)
	a.Abandon()
	b.Abandon()
	if n := c.ReapAbandoned(); n != 2 {
		t.Fatalf("ReapAbandoned = %d, want 2", n)
	}
	if n := c.Stats().Reaps.Load(); n != 2 {
		t.Fatalf("Reaps = %d", n)
	}
	if n := c.ReapAbandoned(); n != 0 {
		t.Fatalf("second ReapAbandoned = %d", n)
	}
}

// TestWaiterReapsDeadHolder: a waiter contending with an *abandoned*
// writer triggers the holder's full reap from inside the Map path — the
// lease machinery and ungraceful teardown compose.
func TestWaiterReapsDeadHolder(t *testing.T) {
	c, _ := newCtl(t, smallCfg())
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "f", []byte("x"))
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MapFile(ino, loc, true); err != nil {
		t.Fatal(err)
	}
	if err := a.Chmod(ino, 0o666); err != nil {
		t.Fatal(err)
	}
	a.Abandon()
	b := c.Register(2000, 2000, 0, 0)
	if _, err := b.MapFile(ino, loc, true); err != nil {
		t.Fatalf("B map against dead holder: %v", err)
	}
	if n := c.Stats().Reaps.Load(); n != 1 {
		t.Fatalf("dead holder not reaped: Reaps = %d", n)
	}
}

// TestSessionCloseVsInflightDelegationBatch (the teardown race): a
// delegation batch still running over a session's address space while
// the session closes must fail deterministically (an MMU fault from the
// revoked space) or complete — never panic, never hang Batch.Wait.
func TestSessionCloseVsInflightDelegationBatch(t *testing.T) {
	cfg := nvm.Config{Nodes: 1, PagesPerNode: 4096}
	c, dev := newCtl(t, cfg)
	pool := delegation.NewPool(dev, 2)
	defer pool.Close()

	content := make([]byte, delegation.DelegateWriteMin)
	a := c.Register(1000, 1000, 0, 0)
	ino, loc := mkFile(t, a, "big", content)
	if err := a.UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}

	nPages := len(content) / nvm.PageSize
	chunk := make([]byte, nvm.PageSize)
	for round := 0; round < 6; round++ {
		s := c.Register(1000, 1000, 0, 0)
		info, err := s.MapFile(ino, loc, true)
		if err != nil {
			t.Fatal(err)
		}
		pages := make([]nvm.PageID, nPages)
		for i := range pages {
			if pages[i], err = core.IndexEntry(c.mem, info.Inode.Head, i); err != nil {
				t.Fatal(err)
			}
		}
		errCh := make(chan error, 1)
		go func() {
			b := pool.NewBatch(s.AddressSpace(), len(content), true, true)
			for _, p := range pages {
				b.Write(p, 0, chunk)
			}
			errCh <- b.Wait()
		}()
		time.Sleep(time.Duration(round*50) * time.Microsecond)
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		select {
		case err := <-errCh:
			if err != nil && !errors.Is(err, mmu.ErrFault) {
				t.Fatalf("round %d: batch error %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Batch.Wait hung across Session.Close", round)
		}
	}
}
