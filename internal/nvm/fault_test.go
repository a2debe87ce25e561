package nvm

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"trio/internal/telemetry"
)

func faultDevice(t *testing.T, track bool) *Device {
	t.Helper()
	return MustNewDevice(Config{Nodes: 1, PagesPerNode: 64, TrackPersistence: track})
}

func TestMediaReadFault(t *testing.T) {
	d := faultDevice(t, false)
	fp := NewFaultPlan()
	fp.InjectReadFault(3, 1, 2) // one read passes, the next two fail
	d.SetFaultPlan(fp)

	buf := make([]byte, 8)
	if err := d.ReadAt(0, 3, 0, buf); err != nil {
		t.Fatalf("read within skip window: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := d.ReadAt(0, 3, 0, buf); !errors.Is(err, ErrMediaRead) {
			t.Fatalf("read %d: got %v, want ErrMediaRead", i, err)
		}
	}
	if err := d.ReadAt(0, 3, 0, buf); err != nil {
		t.Fatalf("read after count exhausted: %v", err)
	}
	if err := d.ReadAt(0, 4, 0, buf); err != nil {
		t.Fatalf("read of unrelated page: %v", err)
	}
	if got := fp.Faults(); got != 2 {
		t.Fatalf("Faults() = %d, want 2", got)
	}
}

func TestMediaWriteFaultWildcard(t *testing.T) {
	d := faultDevice(t, false)
	fp := NewFaultPlan()
	fp.InjectWriteFault(AllPages, 2, -1) // two stores pass, then all fail
	d.SetFaultPlan(fp)

	data := []byte("x")
	for i := 0; i < 2; i++ {
		if err := d.WriteAt(0, PageID(5+i), 0, data); err != nil {
			t.Fatalf("write %d within skip window: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := d.WriteAt(0, 9, 0, data); !errors.Is(err, ErrMediaWrite) {
			t.Fatalf("write %d: got %v, want ErrMediaWrite", i, err)
		}
	}
	if !IsInjected(d.WriteAt(0, 9, 0, data)) {
		t.Fatal("IsInjected should recognize ErrMediaWrite")
	}
	d.SetFaultPlan(nil)
	if err := d.WriteAt(0, 9, 0, data); err != nil {
		t.Fatalf("write after plan removed: %v", err)
	}
}

// TestDelayedPersistWindow: a busy window shorter than the device's
// retry budget is absorbed inside Persist — it returns nil, the line is
// durable, and the persist is one persist point however many busy
// attempts it took.
func TestDelayedPersistWindow(t *testing.T) {
	d := faultDevice(t, true)
	fp := NewFaultPlan()
	fp.DelayPersists(7, 2)
	d.SetFaultPlan(fp)
	noSleep(t)

	if err := d.WriteAt(0, 7, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(7, 0, 5); err != nil {
		t.Fatalf("a 2-attempt busy window was not absorbed: %v", err)
	}
	if got := fp.Faults(); got != 2 {
		t.Fatalf("Faults() = %d, want the 2 busy attempts", got)
	}
	// Busy attempts are not persist points: the CLWB never completed.
	if got := fp.PersistPoints(); got != 1 {
		t.Fatalf("PersistPoints() = %d, want 1", got)
	}
	if got := d.Tracker().DirtyLines(); got != 0 {
		t.Fatalf("line still dirty after an absorbed window: %d", got)
	}
}

// noSleep makes the device's busy retries skip their backoff sleeps for
// the rest of the test.
func noSleep(t *testing.T) {
	old := retrySleep
	retrySleep = func(time.Duration) {}
	t.Cleanup(func() { retrySleep = old })
}

// TestRetryTransientAbsorbsBoundedBusy: the in-device retry absorbs a
// window up to one attempt short of its budget; a window as long as the
// budget fails the persist with ErrDeviceBusy after exactly
// retryAttempts attempts, persists nothing and counts no point.
func TestRetryTransientAbsorbsBoundedBusy(t *testing.T) {
	d := faultDevice(t, true)
	fp := NewFaultPlan()
	d.SetFaultPlan(fp)
	noSleep(t)
	if err := d.WriteAt(0, 2, 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	fp.DelayPersists(AllPages, retryAttempts)
	if err := d.Persist(2, 0, 1); !errors.Is(err, ErrDeviceBusy) {
		t.Fatalf("a window as long as the budget: got %v, want ErrDeviceBusy", err)
	}
	if got := fp.Faults(); got != retryAttempts {
		t.Fatalf("%d busy attempts, want %d (bounded)", got, retryAttempts)
	}
	if got := fp.PersistPoints(); got != 0 {
		t.Fatalf("a failed persist counted %d points, want 0", got)
	}
	if got := d.Tracker().DirtyLines(); got != 1 {
		t.Fatalf("a failed persist left %d dirty lines, want 1", got)
	}

	fp.DelayPersists(AllPages, retryAttempts-1)
	if err := d.Persist(2, 0, 1); err != nil {
		t.Fatalf("a window one short of the budget was not absorbed: %v", err)
	}
	if got := fp.PersistPoints(); got != 1 {
		t.Fatalf("PersistPoints() = %d, want 1", got)
	}
	if got := d.Tracker().DirtyLines(); got != 0 {
		t.Fatalf("line still dirty after an absorbed window: %d", got)
	}
}

func TestTornLinePersist(t *testing.T) {
	d := faultDevice(t, true)
	old0 := bytes.Repeat([]byte{0xAA}, CacheLineSize)
	old1 := bytes.Repeat([]byte{0xBB}, CacheLineSize)
	if err := d.WriteAt(0, 6, 0, old0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(0, 6, CacheLineSize, old1); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(6, 0, 2*CacheLineSize); err != nil {
		t.Fatal(err)
	}
	d.Fence()

	fp := NewFaultPlan()
	fp.TearLine(6, CacheLineSize, 16) // second line: only 16 bytes land
	d.SetFaultPlan(fp)

	new0 := bytes.Repeat([]byte{0x11}, CacheLineSize)
	new1 := bytes.Repeat([]byte{0x22}, CacheLineSize)
	if err := d.WriteAt(0, 6, 0, new0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(0, 6, CacheLineSize, new1); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(6, 0, 2*CacheLineSize); err != nil {
		t.Fatal(err)
	}
	d.Fence()

	d.Tracker().Crash()

	got := make([]byte, 2*CacheLineSize)
	if err := d.ReadAt(0, 6, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:CacheLineSize], new0) {
		t.Fatal("untorn line must persist fully")
	}
	want1 := append(bytes.Repeat([]byte{0x22}, 16), bytes.Repeat([]byte{0xBB}, CacheLineSize-16)...)
	if !bytes.Equal(got[CacheLineSize:], want1) {
		t.Fatalf("torn line: got %x, want %x", got[CacheLineSize:], want1)
	}

	// The tear is one-shot: a re-write and re-persist lands fully.
	if err := d.WriteAt(0, 6, CacheLineSize, new1); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(6, CacheLineSize, CacheLineSize); err != nil {
		t.Fatal(err)
	}
	d.Tracker().Crash()
	if err := d.ReadAt(0, 6, CacheLineSize, got[:CacheLineSize]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:CacheLineSize], new1) {
		t.Fatal("line torn again after one-shot tear was consumed")
	}
}

// workload issues a fixed, deterministic sequence of stores, persists
// and fences; it returns the first error. Used to exercise the
// crash-point sweep below.
func crashWorkload(d *Device) error {
	for i := 0; i < 5; i++ {
		p := PageID(10 + i)
		if err := d.WriteAt(0, p, 0, []byte{byte(i + 1)}); err != nil {
			return err
		}
		if err := d.Persist(p, 0, 1); err != nil {
			return err
		}
		d.Fence()
	}
	return nil
}

func TestCrashPointScheduler(t *testing.T) {
	// Dry run: count the persist points of the workload.
	d := faultDevice(t, true)
	fp := NewFaultPlan()
	d.SetFaultPlan(fp)
	if err := crashWorkload(d); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	n := fp.PersistPoints()
	if n != 10 { // 5 persists + 5 fences
		t.Fatalf("dry run counted %d points, want 10", n)
	}

	for k := int64(1); k <= n; k++ {
		d := faultDevice(t, true)
		fp := NewFaultPlan()
		fp.ArmCrashPoint(k)
		d.SetFaultPlan(fp)
		err := crashWorkload(d)
		if !fp.Fired() {
			t.Fatalf("k=%d: crash point did not fire", k)
		}
		// A crash at a Persist surfaces immediately; one at a Fence
		// surfaces at the next store. Either way the workload cannot
		// complete without an ErrCrashPoint (except when the very last
		// fence is the crash point — then every durable op finished).
		if err == nil && k != n {
			t.Fatalf("k=%d: workload completed despite crash", k)
		}
		if err != nil && !errors.Is(err, ErrCrashPoint) {
			t.Fatalf("k=%d: got %v, want ErrCrashPoint", k, err)
		}
		// Frozen device: stores and persists fail, loads still work.
		if err := d.WriteAt(0, 20, 0, []byte("z")); !errors.Is(err, ErrCrashPoint) {
			t.Fatalf("k=%d: store on frozen device: %v", k, err)
		}
		if err := d.Persist(20, 0, 1); !errors.Is(err, ErrCrashPoint) {
			t.Fatalf("k=%d: persist on frozen device: %v", k, err)
		}
		if err := d.ReadAt(0, 10, 0, make([]byte, 1)); err != nil {
			t.Fatalf("k=%d: load on frozen device: %v", k, err)
		}

		// Exactly the ops whose persist+fence both predate k are durable.
		d.Tracker().Crash()
		d.SetFaultPlan(nil)
		for i := 0; i < 5; i++ {
			var b [1]byte
			if err := d.ReadAt(0, PageID(10+i), 0, b[:]); err != nil {
				t.Fatal(err)
			}
			// Op i's persist is point 2i+1 (1-based); it is durable iff
			// that persist completed, i.e. 2i+1 < k.
			wantDurable := int64(2*i+1) < k
			if durable := b[0] == byte(i+1); durable != wantDurable {
				t.Fatalf("k=%d op %d: durable=%v want %v", k, i, durable, wantDurable)
			}
		}
	}

	// Arming past the end: the workload completes, nothing fires.
	d2 := faultDevice(t, true)
	fp2 := NewFaultPlan()
	fp2.ArmCrashPoint(n + 1)
	d2.SetFaultPlan(fp2)
	if err := crashWorkload(d2); err != nil {
		t.Fatalf("k=N+1 run: %v", err)
	}
	if fp2.Fired() {
		t.Fatal("crash fired past the last point")
	}
}

func TestFlipBitsSilentCorruption(t *testing.T) {
	d := faultDevice(t, false)
	fp := NewFaultPlan()

	// Not installed yet: the plan has no arena to corrupt.
	if err := fp.FlipBits(5, 100, 0x01); err == nil {
		t.Fatal("FlipBits before SetFaultPlan must fail")
	}
	d.SetFaultPlan(fp)

	if err := d.WriteAt(0, 5, 0, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	wrotesBefore := mWrites.Load()
	if err := fp.FlipBits(5, 1, 0xFF); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if err := d.ReadAt(0, 5, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAA || buf[1] != ^byte(0xBB) {
		t.Fatalf("flip result % x, want aa %02x", buf, ^byte(0xBB))
	}
	// Silent: the corruption never shows up as a device write.
	if mWrites.Load() != wrotesBefore {
		t.Fatal("FlipBits was counted as a device write — not silent")
	}
	if fp.Faults() == 0 {
		t.Fatal("FlipBits must count as an injected fault")
	}
	// A second flip with the same mask restores the byte (XOR involution).
	if err := fp.FlipBits(5, 1, 0xFF); err != nil {
		t.Fatal(err)
	}
	d.ReadAt(0, 5, 0, buf)
	if buf[1] != 0xBB {
		t.Fatalf("double flip did not restore: %02x", buf[1])
	}

	if err := fp.FlipBits(5, 0, 0); err == nil {
		t.Fatal("zero mask accepted")
	}
	if err := fp.FlipBits(1<<40, 0, 1); err == nil {
		t.Fatal("out-of-range page accepted")
	}
}

// TestRetryBackoffDeterministicJitter: the backoff a busy persist
// sleeps through is a function of the jitter seed alone, and every step
// lies in [c/2, c] of its capped exponential term c.
func TestRetryBackoffDeterministicJitter(t *testing.T) {
	d := faultDevice(t, false)
	fp := NewFaultPlan()
	d.SetFaultPlan(fp)
	collect := func(seed uint64) []time.Duration {
		SetRetrySeed(seed)
		var delays []time.Duration
		old := retrySleep
		retrySleep = func(d time.Duration) { delays = append(delays, d) }
		defer func() { retrySleep = old }()
		fp.DelayPersists(AllPages, 1<<30)
		if err := d.Persist(3, 0, 8); !errors.Is(err, ErrDeviceBusy) {
			t.Fatalf("exhausted retry returned %v", err)
		}
		return delays
	}

	a := collect(42)
	b := collect(42)
	// The final attempt returns without sleeping, so an exhausted retry
	// records retryAttempts-1 backoffs.
	if len(a) != retryAttempts-1 {
		t.Fatalf("%d delays, want %d", len(a), retryAttempts-1)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if slices.Equal(a, collect(7)) {
		t.Fatal("different seeds produced an identical jitter schedule")
	}
	// Every delay respects the cap and stays positive; the exponential
	// floor (half the capped term) keeps later attempts from collapsing.
	for _, seed := range []uint64{0, 1, 42, 99} {
		for i, d := range collect(seed) {
			exp := min(retryBase<<i, retryCap)
			if d < exp/2 || d > exp {
				t.Fatalf("seed %d attempt %d: delay %v outside [%v, %v]", seed, i, d, exp/2, exp)
			}
		}
	}
}

// TestRetryGiveupCounter: a busy window the retry absorbs ticks
// nvm.retries and not nvm.retry_giveup; one that outlasts the budget
// ticks giveup once per failed persist.
func TestRetryGiveupCounter(t *testing.T) {
	telemetry.Default().Enable()
	defer telemetry.Default().Disable()
	d := faultDevice(t, false)
	fp := NewFaultPlan()
	d.SetFaultPlan(fp)
	noSleep(t)

	before := telemetry.Default().Snapshot()
	fp.DelayPersists(AllPages, 2)
	if err := d.Persist(4, 0, 8); err != nil {
		t.Fatal(err)
	}
	mid := telemetry.Default().Snapshot().Sub(before)
	if mid.Get("nvm.retries") != 2 || mid.Get("nvm.retry_giveup") != 0 {
		t.Fatalf("absorbed window: retries = %d, giveup = %d; want 2, 0",
			mid.Get("nvm.retries"), mid.Get("nvm.retry_giveup"))
	}
	fp.DelayPersists(AllPages, 1<<30)
	if err := d.Persist(4, 0, 8); !errors.Is(err, ErrDeviceBusy) {
		t.Fatalf("got %v, want ErrDeviceBusy", err)
	}
	delta := telemetry.Default().Snapshot().Sub(before)
	if delta.Get("nvm.retries") != 2+retryAttempts-1 {
		t.Fatalf("nvm.retries = %d, want %d", delta.Get("nvm.retries"), 2+retryAttempts-1)
	}
	if delta.Get("nvm.retry_giveup") != 1 {
		t.Fatalf("nvm.retry_giveup = %d, want 1", delta.Get("nvm.retry_giveup"))
	}
}

func TestDelayOpInjectsLatency(t *testing.T) {
	d := faultDevice(t, false)
	fp := NewFaultPlan()
	d.SetFaultPlan(fp)

	const slow = 3 * time.Millisecond
	fp.DelayOp(7, slow, 2)
	buf := make([]byte, 64)

	// The two armed accesses limp; the op still succeeds and the data
	// still lands.
	start := time.Now()
	if err := d.WriteAt(0, 7, 0, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(0, 7, 0, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 2*slow {
		t.Fatalf("two delayed ops took %v, want >= %v", el, 2*slow)
	}
	if buf[0] != 0xAB {
		t.Fatal("delayed write lost its data")
	}

	// The window is spent: the next access is fast again.
	start = time.Now()
	if err := d.ReadAt(0, 7, 0, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > slow {
		t.Fatalf("post-window access still slow: %v", el)
	}
	// Other pages were never slowed.
	start = time.Now()
	if err := d.ReadAt(0, 8, 0, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > slow {
		t.Fatalf("unrelated page slowed: %v", el)
	}
	if fp.Faults() < 2 {
		t.Fatalf("injected delays not counted as faults: %d", fp.Faults())
	}

	// The wildcard delays coalesced range ops too (consulted once per run).
	fp.DelayOp(AllPages, slow, 1)
	start = time.Now()
	if err := d.WriteRange(0, 9, 0, make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < slow {
		t.Fatalf("range op ignored the slow-I/O window: %v", el)
	}
}
