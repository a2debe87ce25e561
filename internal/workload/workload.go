// Package workload reimplements the paper's benchmark drivers: an
// fio-style data-path generator (§6.2, §6.3), the FxMark metadata
// microbenchmark suite (Table 2, §6.4), and the four Filebench
// personalities plus the two customized variants (Table 4, §6.6,
// Fig. 10). All drivers run over fsapi, so every file system in the
// repository takes the same operations.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"trio/internal/fsapi"
)

// Result is the outcome of one workload run. Of its fields only Ops is
// carried into BENCH_trio.json as it is (tenancy points embed it).
type Result struct {
	Workload string        `json:"-"`
	FS       string        `json:"-"`
	Threads  int           `json:"-"`
	Ops      int64         `json:"ops"`
	Bytes    int64         `json:"-"`
	Elapsed  time.Duration `json:"-"`
}

// Throughput reports bytes/second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds()
}

// GiBps reports GiB/second (the unit of Fig. 5a/b and Fig. 6).
func (r Result) GiBps() float64 { return r.Throughput() / (1 << 30) }

// OpsPerUsec reports operations/µs (the unit of Fig. 5c/d and Fig. 7).
func (r Result) OpsPerUsec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Elapsed.Microseconds())
}

// KOpsPerSec reports thousand operations/second (the Fig. 9 unit).
func (r Result) KOpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e3
}

func (r Result) String() string {
	return fmt.Sprintf("%-14s %-12s t=%-3d ops=%-9d %8.2f kops/s %8.3f GiB/s",
		r.Workload, r.FS, r.Threads, r.Ops, r.KOpsPerSec(), r.GiBps())
}

// runThreads fans body out over `threads` goroutines and measures the
// whole span. body receives the thread id.
func runThreads(threads int, body func(tid int) (ops, bytes int64, err error)) (int64, int64, time.Duration, error) {
	var wg sync.WaitGroup
	opsCh := make([]int64, threads)
	bytesCh := make([]int64, threads)
	errCh := make([]error, threads)
	start := time.Now()
	for t := 0; t < threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			opsCh[t], bytesCh[t], errCh[t] = body(t)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ops, bytes int64
	for t := 0; t < threads; t++ {
		if errCh[t] != nil {
			return 0, 0, 0, fmt.Errorf("thread %d: %w", t, errCh[t])
		}
		ops += opsCh[t]
		bytes += bytesCh[t]
	}
	return ops, bytes, elapsed, nil
}

// ---------------------------------------------------------------------
// fio
// ---------------------------------------------------------------------

// FioSpec configures the fio-style driver. Each thread accesses a
// private file (the paper's fio setup: "each thread accesses a 1GB
// private file", scaled by FileSize).
type FioSpec struct {
	// BS is the I/O block size (4 KiB and 2 MiB in the paper).
	BS int
	// FileSize is the per-thread file size.
	FileSize int64
	// Write selects writes (else reads).
	Write bool
	// Random selects random offsets (else sequential wrap-around).
	Random bool
	// Threads is the concurrency level.
	Threads int
	// OpsPerThread is the per-thread operation count.
	OpsPerThread int
}

// RunFio lays out the per-thread files and drives the accesses.
func RunFio(fs fsapi.FS, spec FioSpec) (Result, error) {
	if spec.Threads <= 0 {
		spec.Threads = 1
	}
	if spec.OpsPerThread <= 0 {
		spec.OpsPerThread = 64
	}
	// Layout phase (not timed): one private file per thread, prefilled.
	files := make([]fsapi.File, spec.Threads)
	fill := make([]byte, 1<<20)
	for t := 0; t < spec.Threads; t++ {
		c := fs.NewClient(t)
		f, err := c.Create(fmt.Sprintf("/fio-%d", t), 0o644)
		if err != nil {
			return Result{}, err
		}
		for off := int64(0); off < spec.FileSize; off += int64(len(fill)) {
			n := int64(len(fill))
			if off+n > spec.FileSize {
				n = spec.FileSize - off
			}
			if _, err := f.WriteAt(fill[:n], off); err != nil {
				return Result{}, err
			}
		}
		files[t] = f
	}
	blocks := spec.FileSize / int64(spec.BS)
	if blocks == 0 {
		blocks = 1
	}
	ops, bytes, elapsed, err := runThreads(spec.Threads, func(tid int) (int64, int64, error) {
		rng := rand.New(rand.NewSource(int64(tid) + 1))
		buf := make([]byte, spec.BS)
		f := files[tid]
		var n int64
		for i := 0; i < spec.OpsPerThread; i++ {
			var off int64
			if spec.Random {
				off = rng.Int63n(blocks) * int64(spec.BS)
			} else {
				off = (int64(i) % blocks) * int64(spec.BS)
			}
			if spec.Write {
				if _, err := f.WriteAt(buf, off); err != nil {
					return n, n * int64(spec.BS), err
				}
			} else {
				if _, err := f.ReadAt(buf, off); err != nil {
					return n, n * int64(spec.BS), err
				}
			}
			n++
		}
		return n, n * int64(spec.BS), nil
	})
	if err != nil {
		return Result{}, err
	}
	mode := "read"
	if spec.Write {
		mode = "write"
	}
	name := fmt.Sprintf("fio-%s-%s", SizeLabel(spec.BS), mode)
	return Result{Workload: name, FS: fs.Name(), Threads: spec.Threads, Ops: ops, Bytes: bytes, Elapsed: elapsed}, nil
}

// SizeLabel names a transfer size the way workload names do: 4K, 2M.
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
