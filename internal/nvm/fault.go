package nvm

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Fault-injection errors. ErrDeviceBusy is the only transient one, and
// the device retries it itself (Device.PersistRange), so a caller sees
// it only once the bounded retry budget is spent. Whichever of them
// reaches a caller is a hard fault that must surface as an I/O error.
var (
	// ErrMediaRead models an uncorrectable media error on a load.
	ErrMediaRead = errors.New("nvm: injected media read error")
	// ErrMediaWrite models a media error on a store.
	ErrMediaWrite = errors.New("nvm: injected media write error")
	// ErrDeviceBusy models a delayed-persistence window: the CLWB did
	// not complete and the line is still volatile. Transient: a persist
	// returns it only after its in-device retries ran out.
	ErrDeviceBusy = errors.New("nvm: persist delayed (device busy, transient)")
	// ErrCrashPoint is returned once an armed crash point has fired:
	// the device is frozen and no further stores or persists land.
	ErrCrashPoint = errors.New("nvm: crash point reached (device frozen)")
)

// AllPages is the wildcard page for fault rules that should apply to
// every page of the device.
const AllPages PageID = ^PageID(0)

// IsInjected reports whether err originates from fault injection.
// Consumers use it to translate device faults into their own I/O error
// space.
func IsInjected(err error) bool {
	return errors.Is(err, ErrMediaRead) ||
		errors.Is(err, ErrMediaWrite) ||
		errors.Is(err, ErrDeviceBusy) ||
		errors.Is(err, ErrCrashPoint)
}

// The device's retry of a busy persist (see persistRetry): at most
// retryAttempts tries per page, the k-th backoff (0-based) drawn from
// [c/2, c] for c = min(retryBase<<k, retryCap). The schedule is a
// function of the jitter stream alone, so a seeded run (SetRetrySeed)
// retries — and gives up — at the same attempts every time.
const (
	retryAttempts = 8
	retryBase     = time.Microsecond
	retryCap      = 64 * time.Microsecond
)

// retryRNG is the deterministic jitter source shared by every busy
// retry on every device: a splitmix64 stream whose state advances one
// step per jittered sleep. Full jitter keeps concurrent retriers from
// thundering in lockstep while the seedable stream keeps tests
// reproducible.
var retryRNG atomic.Uint64

// SetRetrySeed reseeds the backoff jitter stream. Tests seed it so
// fail-over timing is reproducible; production code never needs to call
// it (the zero seed is as good as any).
func SetRetrySeed(seed uint64) { retryRNG.Store(seed) }

// retryDelay draws the sleep before retry `attempt` (0-based): half the
// capped exponential term plus jitter over the other half.
func retryDelay(attempt int) time.Duration {
	half := min(retryBase<<attempt, retryCap) / 2
	z := retryRNG.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return half + time.Duration((z^(z>>31))%uint64(half+1))
}

// retrySleep is swapped out by tests that assert on the delay schedule.
var retrySleep = time.Sleep

// faultRule is one read- or write-error injection: the next `skip`
// matching accesses pass, the following `count` fail (count < 0: every
// one after the skip window fails).
type faultRule struct {
	skip  int64
	count int64
}

// take decides whether the current access fails under the rule.
func (r *faultRule) take() bool {
	if r.skip > 0 {
		r.skip--
		return false
	}
	if r.count == 0 {
		return false
	}
	if r.count > 0 {
		r.count--
	}
	return true
}

// FaultPlan is the fault-injection hook point of a Device (installed
// with Device.SetFaultPlan). A plan can inject media read/write errors
// on chosen pages, delay persistence (transient busy windows, which the
// device retries itself — nobody above it does), tear a cacheline at its
// next persist, and — the piece the crash-enumeration tests are built on
// — fire a deterministic crash at the k-th persist point of a workload.
//
// A persist point is one page of a persist that is not busy, or one
// Fence call on the device. A
// single-threaded workload issues an identical point sequence on every
// run, so a test can dry-run once to count N points and then replay the
// workload N times, arming the crash at k = 1..N to enumerate every
// crash state the hardware model allows.
//
// When the armed point is reached the device freezes: that persist (if
// the point was a Persist) is lost, and every later store or persist
// fails with ErrCrashPoint. Loads still work — the workload may limp
// along read-only until the driver calls Tracker.Crash and recovers.
type FaultPlan struct {
	mu         sync.Mutex
	readRules  map[PageID]*faultRule
	writeRules map[PageID]*faultRule
	delays     map[PageID]int64      // remaining busy persists per page
	opDelays   map[PageID]*delayRule // armed slow-I/O windows per page
	tears      map[uint64]int        // global cacheline index -> durable prefix bytes
	points     int64
	armAt      int64
	fired      bool
	faults     atomic.Int64

	// dev is the device the plan is installed on (set by SetFaultPlan);
	// FlipBits needs it to reach the arena behind the device's back.
	dev atomic.Pointer[Device]
}

// NewFaultPlan returns an empty plan (no faults armed).
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{
		readRules:  make(map[PageID]*faultRule),
		writeRules: make(map[PageID]*faultRule),
		delays:     make(map[PageID]int64),
		opDelays:   make(map[PageID]*delayRule),
		tears:      make(map[uint64]int),
	}
}

// delayRule is one armed slow-I/O window: the next count matching
// accesses each take an extra d of latency (count < 0: every access).
type delayRule struct {
	d     time.Duration
	count int64
}

// DelayOp arms latency injection on page p (or AllPages): the next
// count ReadAt/WriteAt accesses touching p (range ops consult their
// first page) complete successfully but take an extra d — slow I/O,
// not a hard error. It is how tests reproduce a device that limps:
// timeouts, breaker trips and retry storms in the layers above must be
// driven by latency, not only by injected failures. Persist-side
// slowness has its own knob (DelayPersists: transient busy windows).
func (fp *FaultPlan) DelayOp(p PageID, d time.Duration, count int64) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.opDelays[p] = &delayRule{d: d, count: count}
}

// sleepOpDelay applies an armed slow-I/O window to an access of page p,
// sleeping outside the plan lock. Each injected delay counts as one
// injected fault.
func (fp *FaultPlan) sleepOpDelay(p PageID) {
	fp.mu.Lock()
	var d time.Duration
	for _, key := range [2]PageID{p, AllPages} {
		if r, ok := fp.opDelays[key]; ok && r.count != 0 {
			if r.count > 0 {
				r.count--
			}
			d = r.d
			break
		}
	}
	fp.mu.Unlock()
	if d > 0 {
		fp.injected()
		time.Sleep(d)
	}
}

// InjectReadFault arms a media read error on page p (or AllPages): the
// next skip reads pass, the following count fail with ErrMediaRead
// (count < 0: forever).
func (fp *FaultPlan) InjectReadFault(p PageID, skip, count int64) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.readRules[p] = &faultRule{skip: skip, count: count}
}

// InjectWriteFault arms a media write error on page p (or AllPages),
// with the same skip/count semantics as InjectReadFault.
func (fp *FaultPlan) InjectWriteFault(p PageID, skip, count int64) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.writeRules[p] = &faultRule{skip: skip, count: count}
}

// DelayPersists opens a delayed-persistence window on page p (or
// AllPages): the next count persist attempts touching p are busy — they
// persist nothing and count no persist point, the CLWB never completed.
// The device retries a busy page in place with bounded backoff, so a
// window shorter than the budget (retryAttempts tries per page) costs
// the persist some microseconds and nothing else; a longer one fails it
// with ErrDeviceBusy. The retry sleeps wherever the persist was issued —
// inside an address space's shootdown barrier, under the controller's
// locks — for at most one budget (127 µs of planned backoff per page),
// and only while a window is armed.
func (fp *FaultPlan) DelayPersists(p PageID, count int64) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.delays[p] = count
}

// TearLine arms a one-shot torn persist of the cacheline holding byte
// `off` of page p: at that line's next persist while dirty, only its
// first keep bytes become durable — the rest of the line stays at its
// pre-image and rolls back at the next Crash. keep should respect the
// 8-byte store-atomicity of the modeled hardware (multiples of 8) so
// the tear never splits an atomic word; tearing is how multi-line core
// state updates end up half-applied after a power failure.
func (fp *FaultPlan) TearLine(p PageID, off, keep int) {
	if keep < 0 {
		keep = 0
	}
	if keep > CacheLineSize {
		keep = CacheLineSize
	}
	line := uint64(p)*(PageSize/CacheLineSize) + uint64(off)/CacheLineSize
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.tears[line] = keep
}

// FlipBits silently XORs mask into the byte at (p, off) — bit rot: the
// corruption bypasses WriteAt, so neither the persistence tracker, the
// cost model nor telemetry's write counters see it, exactly like a
// cosmic-ray flip or failing media cell. Only a checksum audit can
// find it. The plan must be installed on a device (SetFaultPlan)
// first. A mask of 0 is rejected — it would flip nothing and a
// "corruption" the scrubber can never detect makes convergence tests
// hang. Note the tracker interplay: if the flipped byte's cacheline is
// dirty (stored but unpersisted) when Tracker.Crash later runs, the
// rollback to the pre-image undoes the flip — rot injected into cold,
// durable pages (the scrubber's quarry) is unaffected.
func (fp *FaultPlan) FlipBits(p PageID, off int, mask byte) error {
	dev := fp.dev.Load()
	if dev == nil {
		return errors.New("nvm: FlipBits: plan not installed on a device")
	}
	if mask == 0 {
		return errors.New("nvm: FlipBits: zero mask flips nothing")
	}
	if _, err := dev.checkRange(p, off, 1, PageSize); err != nil {
		return err
	}
	dev.lockPage(p)
	dev.arena[int(p)*PageSize+off] ^= mask
	dev.unlockPage(p)
	fp.injected()
	return nil
}

// ArmCrashPoint arms the deterministic crash scheduler: the device
// freezes when the k-th persist point (counted from plan installation)
// is reached. k ≤ 0 disarms.
func (fp *FaultPlan) ArmCrashPoint(k int64) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.armAt = k
}

// PersistPoints reports how many persist points (Persist + Fence calls)
// the device has executed under this plan. A dry run of a workload with
// an unarmed plan yields the N to sweep.
func (fp *FaultPlan) PersistPoints() int64 {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.points
}

// Fired reports whether the armed crash point has been reached.
func (fp *FaultPlan) Fired() bool {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.fired
}

// Faults reports how many faults the plan has injected so far (media
// errors, busy persists, and the crash-point freeze itself).
func (fp *FaultPlan) Faults() int64 { return fp.faults.Load() }

// injected counts one injected fault, on the plan and in telemetry.
func (fp *FaultPlan) injected() {
	fp.faults.Add(1)
	mFaults.Inc()
}

// readFault consults the plan for a load of page p.
func (fp *FaultPlan) readFault(p PageID) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	for _, key := range [2]PageID{p, AllPages} {
		if r, ok := fp.readRules[key]; ok && r.take() {
			fp.injected()
			return ErrMediaRead
		}
	}
	return nil
}

// writeFault consults the plan for a store to page p.
func (fp *FaultPlan) writeFault(p PageID) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.fired {
		return ErrCrashPoint
	}
	for _, key := range [2]PageID{p, AllPages} {
		if r, ok := fp.writeRules[key]; ok && r.take() {
			fp.injected()
			return ErrMediaWrite
		}
	}
	return nil
}

// persistRetry is persistFault with the device's busy retry: a busy
// page is tried again after a jittered backoff, up to retryAttempts
// tries, each retry counted in nvm.retries; a page still busy after the
// last one fails with ErrDeviceBusy and counts in nvm.retry_giveup.
func (fp *FaultPlan) persistRetry(p PageID) error {
	for attempt := 0; ; attempt++ {
		err := fp.persistFault(p)
		if err != ErrDeviceBusy {
			return err
		}
		if attempt+1 == retryAttempts {
			mRetryGiveup.Inc()
			return err
		}
		mRetries.Inc()
		retrySleep(retryDelay(attempt))
	}
}

// persistFault consults the plan for one persist attempt of page p: busy
// windows reject the CLWB without counting a point; otherwise the point
// counter advances and may fire the armed crash, in which case this
// persist is lost (the device freezes before the tracker marks anything
// durable).
func (fp *FaultPlan) persistFault(p PageID) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.fired {
		return ErrCrashPoint
	}
	for _, key := range [2]PageID{p, AllPages} {
		if rem, ok := fp.delays[key]; ok && rem > 0 {
			fp.delays[key] = rem - 1
			fp.injected()
			return ErrDeviceBusy
		}
	}
	fp.points++
	if fp.armAt > 0 && fp.points >= fp.armAt {
		fp.fired = true
		fp.injected()
		return ErrCrashPoint
	}
	return nil
}

// fencePoint counts a Fence as a persist point. Fences cannot fail on
// the modeled hardware, so a crash firing here surfaces only through
// the subsequent stores and persists failing with ErrCrashPoint.
func (fp *FaultPlan) fencePoint() {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.fired {
		return
	}
	fp.points++
	if fp.armAt > 0 && fp.points >= fp.armAt {
		fp.fired = true
		fp.injected()
	}
}

// tearFor peeks the armed tear of a global cacheline.
func (fp *FaultPlan) tearFor(line uint64) (keep int, ok bool) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	keep, ok = fp.tears[line]
	return keep, ok
}

// dropTear consumes a one-shot tear registration.
func (fp *FaultPlan) dropTear(line uint64) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	delete(fp.tears, line)
	fp.injected()
}
