package libfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/nvm"
)

// faultRig is the standard single-LibFS test stack with persistence
// tracking on, so fault plans and crashes behave like the real device.
type faultRig struct {
	dev  *nvm.Device
	ctl  *controller.Controller
	sess *controller.Session
	fs   *FS
	c    *Client
}

func newFaultRig(t *testing.T, pages int) *faultRig {
	t.Helper()
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: pages, TrackPersistence: true})
	// The rig's tests assert outcomes (fixed vs rolled back), not time:
	// a fix handler must not lose to the 10ms default on a loaded host.
	ctl, err := controller.New(dev, controller.Options{FixTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sess := ctl.Register(1000, 1000, 0, 0)
	fs, err := New(sess, Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &faultRig{dev: dev, ctl: ctl, sess: sess, fs: fs, c: fs.NewClient(0).(*Client)}
}

// TestMediaReadFaultSurfacesErrIO: an uncorrectable media error on a
// load must come back from the FS API as fsapi.ErrIO — not a panic, and
// not a bare device error.
func TestMediaReadFaultSurfacesErrIO(t *testing.T) {
	r := newFaultRig(t, 2048)
	data := bytes.Repeat([]byte("stable "), 64)
	f, err := r.c.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	fp := nvm.NewFaultPlan()
	fp.InjectReadFault(nvm.AllPages, 0, -1)
	r.dev.SetFaultPlan(fp)

	buf := make([]byte, len(data))
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("read under media fault: err = %v, want fsapi.ErrIO", err)
	}

	// Clearing the plan heals the device; the data was never harmed.
	r.dev.SetFaultPlan(nil)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after clearing plan: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data corrupted by read-fault window")
	}
}

// TestMediaWriteFaultSurfacesErrIO: store-side media errors fail the
// mutating operation with fsapi.ErrIO and leave the FS usable.
func TestMediaWriteFaultSurfacesErrIO(t *testing.T) {
	r := newFaultRig(t, 2048)

	fp := nvm.NewFaultPlan()
	fp.InjectWriteFault(nvm.AllPages, 0, -1)
	r.dev.SetFaultPlan(fp)

	if _, err := r.c.Create("/g", 0o644); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("create under write fault: err = %v, want fsapi.ErrIO", err)
	}
	if err := r.c.Mkdir("/gd", 0o755); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("mkdir under write fault: err = %v, want fsapi.ErrIO", err)
	}

	r.dev.SetFaultPlan(nil)
	f, err := r.c.Create("/g", 0o644)
	if err != nil {
		t.Fatalf("create after clearing plan: %v", err)
	}
	if _, err := f.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// TestTransientPersistRetry: a short delayed-persistence window is
// absorbed by the bounded retry policy; an unbounded one surfaces as
// fsapi.ErrIO instead of hanging.
func TestTransientPersistRetry(t *testing.T) {
	r := newFaultRig(t, 2048)

	fp := nvm.NewFaultPlan()
	fp.DelayPersists(nvm.AllPages, 4)
	r.dev.SetFaultPlan(fp)
	if _, err := r.c.Create("/t1", 0o644); err != nil {
		t.Fatalf("create under short busy window: %v (want absorbed by retry)", err)
	}
	if fp.Faults() < 4 {
		t.Fatalf("busy window injected %d faults, want >= 4", fp.Faults())
	}

	long := nvm.NewFaultPlan()
	long.DelayPersists(nvm.AllPages, 1<<30)
	r.dev.SetFaultPlan(long)
	if _, err := r.c.Create("/t2", 0o644); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("create under unbounded busy window: err = %v, want fsapi.ErrIO", err)
	}

	r.dev.SetFaultPlan(nil)
	if _, err := r.c.Create("/t3", 0o644); err != nil {
		t.Fatalf("create after window: %v", err)
	}
}

// TestWriteFaultSweepNoPanic moves a single injected write failure
// through every store of a metadata-heavy op mix. At every position the
// op mix must complete without panicking, any surfaced device fault
// must be wrapped as fsapi.ErrIO, and a crash + recovery afterwards
// must leave a verifier-clean tree. This is the sweep that flushed out
// panic-on-error paths while the fault layer was being threaded through
// the LibFS.
func TestWriteFaultSweepNoPanic(t *testing.T) {
	mix := func(c *Client) []error {
		var errs []error
		do := func(err error) {
			if err != nil {
				errs = append(errs, err)
			}
		}
		do(c.Mkdir("/m", 0o755))
		payload := bytes.Repeat([]byte("w"), 200)
		for _, name := range []string{"/m/a", "/m/b"} {
			f, err := c.Create(name, 0o644)
			do(err)
			if err == nil {
				_, werr := f.WriteAt(payload, 0)
				do(werr)
				do(f.Close())
			}
		}
		do(c.Rename("/m/a", "/m/a2"))
		do(c.Unlink("/m/b"))
		if _, err := c.Stat("/m/a2"); err != nil {
			do(err)
		}
		return errs
	}

	for k := int64(0); k < 400; k++ {
		r := newFaultRig(t, 2048)
		fp := nvm.NewFaultPlan()
		fp.InjectWriteFault(nvm.AllPages, k, 1)
		r.dev.SetFaultPlan(fp)

		errs := mix(r.c)
		for _, err := range errs {
			if nvm.IsInjected(err) && !errors.Is(err, fsapi.ErrIO) {
				t.Fatalf("k=%d: raw device fault leaked through the FS API: %v", k, err)
			}
		}

		// Whatever half-state the failed store left behind, a crash and
		// the standard recovery sequence must produce a clean tree.
		r.dev.SetFaultPlan(nil)
		r.dev.Tracker().Crash()
		if err := r.fs.Recover(); err != nil {
			t.Fatalf("k=%d: libfs recover: %v", k, err)
		}
		r.ctl.Recover(map[controller.LibFSID]func() error{r.sess.ID(): r.fs.Recover})
		if _, bad, first := r.ctl.VerifyAll(); bad != 0 {
			t.Fatalf("k=%d: %d files failed verification after recovery: %s", k, bad, first)
		}

		if fp.Faults() == 0 {
			// The op mix finished without reaching store k: every store
			// position has been swept.
			t.Logf("sweep complete after k=%d", k)
			return
		}
	}
	t.Fatal("sweep did not terminate: op mix issues more than 400 stores?")
}

// tornVictim drives the torn-cacheline scenario to the point where the
// crash has happened and the LibFS has run its recovery program: the
// dirent NAME line of a freshly created file was torn at its persist
// (keep=0), so after the crash the slot holds a committed inode number
// next to an all-zero name — exactly the half-applied core-state update
// the verifier's I1 invariant exists to catch.
//
// The victims live in the root directory because root is the one
// directory this LibFS did not create itself: it was controller-mapped
// for writing at the first create (cutting a checkpoint), so the
// post-crash UnmapFile below is a real Fig. 2 verification point.
// Directories the LibFS creates are initialized directly from its pool
// pages and only meet the verifier when another LibFS maps them.
// Returns the directory's ino (root) and the victim's location
// (captured before the crash, for the fix handler).
func tornVictim(t *testing.T, r *faultRig) (dirIno core.Ino, victim Entry) {
	t.Helper()
	f, err := r.c.Create("/seed", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	h := r.fs.Hooks()
	d, err := h.ResolveDir("/")
	if err != nil {
		t.Fatal(err)
	}
	seed, ok, err := h.Lookup(d, "seed")
	if err != nil || !ok {
		t.Fatalf("lookup seed: ok=%v err=%v", ok, err)
	}

	// Arm a keep=0 tear on the name line of every other slot of the
	// dirent page: only the slot the next create claims ever dirties its
	// name line, so exactly that registration fires. The inode line (and
	// the 8-byte ino commit word in it) is untouched — its persists
	// complete, modeling a power failure that caught one of the two
	// cachelines of the create protocol in flight.
	fp := nvm.NewFaultPlan()
	for slot := 0; slot < core.SlotsPerDirPage; slot++ {
		if slot == seed.Loc.Slot {
			continue
		}
		fp.TearLine(seed.Loc.Page, core.SlotOffset(slot)+core.InodeSize, 0)
	}
	r.dev.SetFaultPlan(fp)

	vf, err := r.c.Create("/victim", 0o644)
	if err != nil {
		t.Fatalf("create victim: %v", err)
	}
	vf.Close()
	victim, ok, err = h.Lookup(d, "victim")
	if err != nil || !ok {
		t.Fatalf("lookup victim: ok=%v err=%v", ok, err)
	}
	if victim.Loc.Page != seed.Loc.Page {
		t.Fatalf("victim landed on page %d, tears armed on page %d", victim.Loc.Page, seed.Loc.Page)
	}
	if fp.Faults() == 0 {
		t.Fatal("no tear fired: victim's name line was never persisted?")
	}

	r.dev.Tracker().Crash()
	r.dev.SetFaultPlan(nil)
	if err := r.fs.Recover(); err != nil {
		t.Fatalf("libfs recover: %v", err)
	}
	return core.RootIno, victim
}

// TestTornDirentNameDetectedAndRolledBack: with no fix handler
// registered, the controller must detect the torn core state when the
// LibFS unmaps the directory (the paper's Fig. 2 verification point),
// count the corruption, and roll the directory back to its checkpoint.
func TestTornDirentNameDetectedAndRolledBack(t *testing.T) {
	r := newFaultRig(t, 2048)
	dirIno, _ := tornVictim(t, r)

	st0 := r.sess.Stats().Snapshot()

	if err := r.sess.UnmapFile(dirIno); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	d := r.sess.Stats().Snapshot().Sub(st0)
	if d.Corruptions != 1 {
		t.Fatalf("Corruptions delta = %d, want 1", d.Corruptions)
	}
	if d.Rollbacks != 1 {
		t.Fatalf("Rollbacks delta = %d, want 1", d.Rollbacks)
	}
	if d.Fixed != 0 {
		t.Fatalf("Fixed delta = %d, want 0 (no fix handler registered)", d.Fixed)
	}
	if _, bad, first := r.ctl.VerifyAll(); bad != 0 {
		t.Fatalf("%d files still bad after rollback: %s", bad, first)
	}
	// The checkpoint was cut when root was first mapped for writing —
	// before either create — so the rollback empties it.
	names, err := r.c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("post-rollback listing %v, want empty", names)
	}
}

// TestTornDirentNameFixedByHandler: the same torn line, but the guilty
// LibFS registers a fix handler (§4.3: the controller gives it a
// bounded chance to repair the state before rolling back). The handler
// rewrites the zeroed name in place — NVM stores only, since it runs
// while the controller holds its lock — after which re-verification
// passes and both files survive.
func TestTornDirentNameFixedByHandler(t *testing.T) {
	r := newFaultRig(t, 2048)
	dirIno, victim := tornVictim(t, r)

	as := r.fs.Hooks().AddressSpace()
	r.sess.SetFixHandler(func(ino core.Ino) error {
		if ino != dirIno {
			return fmt.Errorf("unexpected fix request for ino %d", ino)
		}
		return core.WriteDirentName(as, victim.Loc.Page, victim.Loc.Slot, "victim")
	})

	st0 := r.sess.Stats().Snapshot()

	if err := r.sess.UnmapFile(dirIno); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	d := r.sess.Stats().Snapshot().Sub(st0)
	if d.Corruptions != 1 {
		t.Fatalf("Corruptions delta = %d, want 1", d.Corruptions)
	}
	if d.Fixed != 1 {
		t.Fatalf("Fixed delta = %d, want 1", d.Fixed)
	}
	if d.Rollbacks != 0 {
		t.Fatalf("Rollbacks delta = %d, want 0 (fix succeeded, no rollback)", d.Rollbacks)
	}
	if _, bad, first := r.ctl.VerifyAll(); bad != 0 {
		t.Fatalf("%d files bad after fix: %s", bad, first)
	}

	names, err := r.c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"seed": true, "victim": true}
	if len(names) != len(want) {
		t.Fatalf("post-fix listing %v, want seed+victim", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected entry %q", n)
		}
	}
	if _, err := r.c.Stat("/victim"); err != nil {
		t.Fatalf("stat repaired file: %v", err)
	}
}
