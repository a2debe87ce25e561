package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRWLockMutualExclusion(t *testing.T) {
	var l RWLock
	var counter int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Lock()
				counter++ // racy unless the lock works
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestRWLockReadersExcludeWriter(t *testing.T) {
	var l RWLock
	var inWrite atomic.Bool
	var violations atomic.Int64
	var wg sync.WaitGroup
	// Hints at and beyond the stripe count wrap: whatever GOMAXPROCS is,
	// several of these readers share a stripe.
	for _, cpu := range []int{0, 1, stripeMask + 1, stripeMask + 2, MaxCPUs + 3, 1 << 20} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.RLock(cpu)
				if inWrite.Load() {
					violations.Add(1)
				}
				l.RUnlock(cpu)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			l.Lock()
			inWrite.Store(true)
			time.Sleep(10 * time.Microsecond)
			inWrite.Store(false)
			l.Unlock()
		}
	}()
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d readers observed an active writer", v)
	}
}

// TestRWLockWriterDrainsSharedStripe: two readers whose hints wrap onto
// one stripe both count there; the writer gets in only after the last of
// them leaves. A lock that is only ever written never makes the stripes.
func TestRWLockWriterDrainsSharedStripe(t *testing.T) {
	var l RWLock
	l.Lock()
	l.Unlock()
	if l.hasReaders.Load() {
		t.Fatal("a write-only lock allocated reader stripes")
	}

	const a = 1
	b := a + stripeMask + 1 // same stripe as a
	l.RLock(a)
	l.RLock(b)
	if got := l.readers[a&stripeMask].n.Load(); got != 2 {
		t.Fatalf("shared stripe counts %d readers, want 2", got)
	}
	acquired := make(chan struct{})
	go func() {
		l.Lock()
		close(acquired)
		l.Unlock()
	}()
	for !l.writerBias.Load() {
		time.Sleep(time.Millisecond) // until the writer is draining
	}
	l.RUnlock(a)
	select {
	case <-acquired:
		t.Fatal("writer acquired with a reader still on the shared stripe")
	case <-time.After(20 * time.Millisecond):
	}
	l.RUnlock(b)
	<-acquired
}

func TestRWLockConcurrentReaders(t *testing.T) {
	var l RWLock
	var active, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cpu := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.RLock(cpu)
			n := active.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			active.Add(-1)
			l.RUnlock(cpu)
		}()
	}
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("peak concurrent readers = %d, want >= 2", peak.Load())
	}
}

func TestSpinLock(t *testing.T) {
	var l SpinLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()

	var counter int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestRangeLockDisjointWritersProceed(t *testing.T) {
	rl := NewRangeLock(1 << 20)
	r1 := rl.LockRange(0, 4096)
	done := make(chan struct{})
	go func() {
		// Disjoint segment: must not block.
		r2 := rl.LockRange(8<<20, 4096)
		rl.UnlockRange(r2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("disjoint writer blocked")
	}
	rl.UnlockRange(r1)
}

func TestRangeLockOverlappingWritersExclude(t *testing.T) {
	rl := NewRangeLock(1 << 20)
	r1 := rl.LockRange(100, 4096)
	acquired := make(chan struct{})
	go func() {
		r2 := rl.LockRange(0, 8192) // same segment
		close(acquired)
		rl.UnlockRange(r2)
	}()
	select {
	case <-acquired:
		t.Fatal("overlapping writer acquired while range held")
	case <-time.After(20 * time.Millisecond):
	}
	rl.UnlockRange(r1)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never acquired after release")
	}
}

func TestRangeLockReadersShare(t *testing.T) {
	rl := NewRangeLock(4096)
	r1 := rl.RLockRange(0, 4096)
	done := make(chan struct{})
	go func() {
		r2 := rl.RLockRange(0, 4096)
		rl.RUnlockRange(r2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second reader blocked")
	}
	rl.RUnlockRange(r1)
}

// TestRangeLockSpansMultipleSegments: a range from the inline segment 0
// into the mapped segments 1 and 2 holds all three; the lock is embedded
// by value, as libfs.node does it.
func TestRangeLockSpansMultipleSegments(t *testing.T) {
	var host struct{ rl RangeLock }
	rl := &host.rl
	rl.Init(4096)
	r := rl.LockRange(100, 8) // segment 0 only
	rl.UnlockRange(r)
	if rl.segs != nil {
		t.Fatal("locking inside segment 0 allocated the segment map")
	}
	r1 := rl.LockRange(0, 3*4096)
	for _, off := range []int64{0, 4096, 2 * 4096} { // inline, first mapped, last
		acquired := make(chan struct{})
		go func() {
			r2 := rl.LockRange(off, 1)
			close(acquired)
			rl.UnlockRange(r2)
		}()
		select {
		case <-acquired:
			t.Fatalf("writer at offset %d acquired inside a held range", off)
		case <-time.After(20 * time.Millisecond):
		}
		defer func() { <-acquired }()
	}
	// A reader from segment 0 into segment 1 waits for the writer too.
	readerIn := make(chan struct{})
	go func() {
		r3 := rl.RLockRange(4000, 200)
		close(readerIn)
		rl.RUnlockRange(r3)
	}()
	select {
	case <-readerIn:
		t.Fatal("reader across segments 0 and 1 acquired inside a held range")
	case <-time.After(20 * time.Millisecond):
	}
	rl.UnlockRange(r1)
	<-readerIn
}

func TestRangeLockZeroLength(t *testing.T) {
	rl := NewRangeLock(4096)
	r := rl.LockRange(10, 0) // treated as length 1
	rl.UnlockRange(r)
}

func TestNewRangeLockValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-power-of-two segment size")
		}
	}()
	NewRangeLock(3000)
}
