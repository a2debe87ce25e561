// Package locks provides the synchronization primitives ArckFS's
// auxiliary state is built from (paper §4.2, §4.5):
//
//   - RWLock — a reader-biased, per-CPU-striped readers-writer lock in
//     the spirit of BRAVO [Dice & Kogan, ATC'19]: readers touch only
//     their own cache line on the fast path, so read-mostly metadata
//     operations scale with core count.
//   - RangeLock — a segment-based file range lock allowing concurrent
//     writers on disjoint regions of one file plus concurrent readers.
//   - SpinLock — the trivial test-and-set lock KVFS substitutes for the
//     fine-grained locks when contention is unlikely (paper §5).
package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxCPUs bounds the reader-stripe count.
const MaxCPUs = 64

// stripeMask is the reader-stripe count minus one. The count is the
// next power of two at or above GOMAXPROCS when the package
// initialises, capped at MaxCPUs: more stripes than goroutines that can
// run at once buy no scalability, and every file that is read pays for
// the array. CPU hints wrap modulo the count, so a hint beyond it (or a
// later GOMAXPROCS change) only shares a stripe, never breaks the lock.
var stripeMask = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < MaxCPUs {
		n <<= 1
	}
	return n - 1
}()

type paddedInt32 struct {
	n atomic.Int32
	_ [60]byte
}

// RWLock is a scalable readers-writer lock. Readers pass a CPU hint so
// that their presence marker lands on a private cache line; writers set
// a global bias flag and wait for every stripe to drain.
//
// The stripe array (one cache line per stripe: 128 B on a 2-CPU host,
// 4 KiB at MaxCPUs) is allocated by the first read acquisition. ArckFS
// keeps one RWLock per file, so every file that is ever read pays it
// once; files that are only created, written and unlinked do not.
//
// The zero value is ready to use.
type RWLock struct {
	writerBias atomic.Bool
	wmu        sync.Mutex
	// readers is made once, under wmu, before hasReaders is set; everyone
	// else reads it only after seeing hasReaders.
	hasReaders atomic.Bool
	readers    []paddedInt32
}

func (l *RWLock) stripe(cpu int) *paddedInt32 {
	if !l.hasReaders.Load() {
		// A first reader that finds a writer inside waits here instead of
		// on the bias flag; the writer never waits for an unmarked reader.
		l.wmu.Lock()
		if l.readers == nil {
			l.readers = make([]paddedInt32, stripeMask+1)
			l.hasReaders.Store(true)
		}
		l.wmu.Unlock()
	}
	return &l.readers[cpu&stripeMask]
}

// RLock acquires the lock for reading. cpu is the caller's CPU hint.
func (l *RWLock) RLock(cpu int) {
	s := l.stripe(cpu)
	for {
		s.n.Add(1)
		if !l.writerBias.Load() {
			return
		}
		// A writer is active or waiting: back off and retry.
		s.n.Add(-1)
		for l.writerBias.Load() {
			runtime.Gosched()
		}
	}
}

// RUnlock releases a read acquisition made with the same CPU hint.
func (l *RWLock) RUnlock(cpu int) {
	l.stripe(cpu).n.Add(-1)
}

// Lock acquires the lock for writing.
func (l *RWLock) Lock() {
	l.wmu.Lock()
	l.writerBias.Store(true)
	if !l.hasReaders.Load() {
		// No reader has marked a stripe yet; one that arrives now marks
		// it after this store and sees the bias flag, which holds it off.
		return
	}
	for i := range l.readers {
		for l.readers[i].n.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// Unlock releases a write acquisition.
func (l *RWLock) Unlock() {
	l.writerBias.Store(false)
	l.wmu.Unlock()
}

// SpinLock is a test-and-set spinlock with yield backoff. The zero
// value is an unlocked lock.
type SpinLock struct {
	held atomic.Bool
}

// Lock spins until the lock is acquired.
func (l *SpinLock) Lock() {
	for !l.held.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}

// TryLock attempts a non-blocking acquisition.
func (l *SpinLock) TryLock() bool { return l.held.CompareAndSwap(false, true) }

// Unlock releases the lock.
func (l *SpinLock) Unlock() { l.held.Store(false) }

// RangeLock allows concurrent access to disjoint byte ranges of one
// file: multiple readers may overlap, writers exclude other writers and
// readers on overlapping segments only.
//
// A file is divided into fixed-size segments; locking a range acquires
// the RWMutex of every overlapped segment in ascending order (so two
// writers locking overlapping ranges cannot deadlock).
//
// Segment 0 lives in the struct, so a file no longer than one segment
// never allocates; later segments are made on first use. A RangeLock
// embedded by value must be given its segment size with Init before
// first use and not copied after.
type RangeLock struct {
	segBits uint // log2 of segment size
	seg0    sync.RWMutex
	mu      sync.Mutex
	segs    map[int64]*sync.RWMutex // every segment but 0
}

// NewRangeLock creates a range lock with the given segment size, which
// must be a power of two. ArckFS uses 2 MiB segments so a 4 KiB write
// touches exactly one segment.
func NewRangeLock(segSize int64) *RangeLock {
	rl := new(RangeLock)
	rl.Init(segSize)
	return rl
}

// Init sets the segment size (a power of two) of a zero RangeLock.
func (rl *RangeLock) Init(segSize int64) {
	if segSize <= 0 || segSize&(segSize-1) != 0 {
		panic("locks: segment size must be a positive power of two")
	}
	rl.segBits = 0
	for s := segSize; s > 1; s >>= 1 {
		rl.segBits++
	}
}

func (rl *RangeLock) seg(i int64) *sync.RWMutex {
	if i == 0 {
		return &rl.seg0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	m := rl.segs[i]
	if m == nil {
		if rl.segs == nil {
			rl.segs = make(map[int64]*sync.RWMutex)
		}
		m = &sync.RWMutex{}
		rl.segs[i] = m
	}
	return m
}

// Range identifies a locked byte range; it must be passed back to the
// matching unlock call.
type Range struct {
	lo, hi int64 // segment indexes, inclusive
}

func (rl *RangeLock) span(off, n int64) Range {
	if n <= 0 {
		n = 1
	}
	return Range{lo: off >> rl.segBits, hi: (off + n - 1) >> rl.segBits}
}

// LockRange write-locks [off, off+n).
func (rl *RangeLock) LockRange(off, n int64) Range {
	r := rl.span(off, n)
	for i := r.lo; i <= r.hi; i++ {
		rl.seg(i).Lock()
	}
	return r
}

// UnlockRange releases a write-locked range.
func (rl *RangeLock) UnlockRange(r Range) {
	for i := r.hi; i >= r.lo; i-- {
		rl.seg(i).Unlock()
	}
}

// RLockRange read-locks [off, off+n).
func (rl *RangeLock) RLockRange(off, n int64) Range {
	r := rl.span(off, n)
	for i := r.lo; i <= r.hi; i++ {
		rl.seg(i).RLock()
	}
	return r
}

// RUnlockRange releases a read-locked range.
func (rl *RangeLock) RUnlockRange(r Range) {
	for i := r.hi; i >= r.lo; i-- {
		rl.seg(i).RUnlock()
	}
}
