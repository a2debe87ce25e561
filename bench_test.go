package trio

// Benchmarks regenerating the paper's tables and figures as testing.B
// targets — one family per artifact, so `go test -bench=Fig7` measures
// the corresponding experiment's key points. The full sweeps (all
// thread counts, all file systems, paper-style tables) live in
// cmd/trio-bench; these benches pin the representative configurations
// and are what EXPERIMENTS.md's per-op numbers come from.
//
// Ablation benches at the bottom measure the design choices DESIGN.md
// calls out: opportunistic delegation, per-bucket directory locks, the
// radix-vs-fixed-array index bet, range locks, and per-CPU allocators.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trio/internal/alloc"
	"trio/internal/fpfs"
	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/index"
	"trio/internal/kvfs"
	"trio/internal/locks"
	"trio/internal/nvm"
	"trio/internal/workload"
)

func benchMount(b *testing.B, name string, nodes int) *fsfactory.Instance {
	b.Helper()
	inst, err := fsfactory.New(name, fsfactory.Config{
		Nodes: nodes, PagesPerNode: 65536 / nodes, CPUs: 8, Cost: true, WorkersPerNode: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { inst.Close() })
	return inst
}

// BenchmarkTab1Properties is Table 1 made executable: it asserts (at
// benchmark build time) the property matrix via the other suites and
// measures the null overhead of a mounted ArckFS stat.
func BenchmarkTab1Properties(b *testing.B) {
	inst := benchMount(b, "arckfs", 1)
	c := inst.NewClient(0)
	f, err := c.Create("/p", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stat("/p"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Data — single-thread 4 KiB / 2 MiB read & write.
func BenchmarkFig5Data(b *testing.B) {
	for _, name := range []string{"nova", "splitfs", "odinfs", "arckfs-nd", "arckfs"} {
		for _, spec := range []struct {
			label string
			bs    int
			write bool
		}{
			{"4K-read", 4096, false}, {"4K-write", 4096, true},
			{"2M-read", 2 << 20, false}, {"2M-write", 2 << 20, true},
		} {
			b.Run(name+"/"+spec.label, func(b *testing.B) {
				inst := benchMount(b, name, 8)
				c := inst.NewClient(0)
				f, err := c.Create("/bench", 0o644)
				if err != nil {
					b.Fatal(err)
				}
				const fileSize = 8 << 20
				chunk := make([]byte, 1<<20)
				for off := int64(0); off < fileSize; off += int64(len(chunk)) {
					if _, err := f.WriteAt(chunk, off); err != nil {
						b.Fatal(err)
					}
				}
				buf := make([]byte, spec.bs)
				blocks := int64(fileSize / spec.bs)
				b.SetBytes(int64(spec.bs))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := (int64(i) % blocks) * int64(spec.bs)
					if spec.write {
						if _, err := f.WriteAt(buf, off); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := f.ReadAt(buf, off); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFig5Metadata — single-thread create / open / delete.
func BenchmarkFig5Metadata(b *testing.B) {
	for _, name := range []string{"nova", "splitfs", "odinfs", "arckfs"} {
		b.Run(name+"/create", func(b *testing.B) {
			inst := benchMount(b, name, 8)
			c := inst.NewClient(0)
			if err := c.Mkdir("/d", 0o755); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := c.Create(fmt.Sprintf("/d/f%08d", i), 0o644)
				if err != nil {
					b.Fatal(err)
				}
				f.Close()
			}
		})
		b.Run(name+"/open", func(b *testing.B) {
			inst := benchMount(b, name, 8)
			c := inst.NewClient(0)
			path := "/a/b/c/d/e/target"
			for _, d := range []string{"/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/b/c/d/e"} {
				if err := c.Mkdir(d, 0o755); err != nil {
					b.Fatal(err)
				}
			}
			f, err := c.Create(path, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := c.Open(path, false)
				if err != nil {
					b.Fatal(err)
				}
				g.Close()
			}
		})
		b.Run(name+"/delete", func(b *testing.B) {
			inst := benchMount(b, name, 8)
			c := inst.NewClient(0)
			if err := c.Mkdir("/d", 0o755); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				f, err := c.Create(fmt.Sprintf("/d/f%08d", i), 0o644)
				if err != nil {
					b.Fatal(err)
				}
				f.Close()
				b.StartTimer()
				if err := c.Unlink(fmt.Sprintf("/d/f%08d", i)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
		})
	}
}

// BenchmarkFig6Scaling — the 8-node fio crossover point: parallel 2 MiB
// writes where delegation separates ArckFS/OdinFS from the pack.
func BenchmarkFig6Scaling(b *testing.B) {
	for _, name := range []string{"nova", "ext4-raid0", "odinfs", "arckfs"} {
		b.Run(name+"/2M-write-8thr", func(b *testing.B) {
			inst := benchMount(b, name, 8)
			const threads = 8
			files := make([]fsapi.File, threads)
			chunk := make([]byte, 2<<20)
			for t := 0; t < threads; t++ {
				f, err := inst.NewClient(t).Create(fmt.Sprintf("/f%d", t), 0o644)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteAt(chunk, 0); err != nil {
					b.Fatal(err)
				}
				files[t] = f
			}
			b.SetBytes(int64(threads * len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for t := 0; t < threads; t++ {
					t := t
					wg.Add(1)
					go func() {
						defer wg.Done()
						files[t].WriteAt(chunk, 0)
					}()
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkFig7Fxmark — the shared-directory create point (MWCM), where
// the VFS dcache lock separates ArckFS from every kernel FS.
func BenchmarkFig7Fxmark(b *testing.B) {
	for _, name := range []string{"nova", "winefs", "arckfs"} {
		for _, bench := range []string{"MWCM", "MRPM", "MWRM"} {
			b.Run(name+"/"+bench+"-8thr", func(b *testing.B) {
				inst := benchMount(b, name, 8)
				b.ResetTimer()
				r, err := workload.RunFxmark(inst, bench, 8, b.N/8+1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.OpsPerUsec(), "ops/µs")
			})
		}
	}
}

// BenchmarkTab3Sharing — the cross-domain write ping-pong against the
// same workload inside one domain.
func BenchmarkTab3Sharing(b *testing.B) {
	b.Run("arckfs-within-domain", func(b *testing.B) {
		inst := benchMount(b, "arckfs", 1)
		c := inst.NewClient(0)
		f, err := c.Create("/s", 0o666)
		if err != nil {
			b.Fatal(err)
		}
		f.WriteAt(make([]byte, 2<<20), 0)
		buf := make([]byte, 4096)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.WriteAt(buf, int64(i%512)*4096)
		}
	})
}

// BenchmarkFig9Filebench — Varmail (the metadata-heavy personality).
func BenchmarkFig9Filebench(b *testing.B) {
	for _, name := range []string{"nova", "odinfs", "arckfs"} {
		b.Run(name+"/varmail", func(b *testing.B) {
			inst := benchMount(b, name, 8)
			spec := workload.DefaultFilebench("varmail")
			spec.Threads = 4
			spec.Files = 10
			spec.OpsPerThread = b.N/4 + 1
			b.ResetTimer()
			r, err := workload.RunFilebench(inst, spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.KOpsPerSec(), "kops/s")
		})
	}
}

// BenchmarkTab5LevelDB — db_bench fillrandom and readrandom.
func BenchmarkTab5LevelDB(b *testing.B) {
	for _, name := range []string{"ext4", "nova", "arckfs"} {
		for _, wl := range []string{"fillrandom", "readrandom"} {
			b.Run(name+"/"+wl, func(b *testing.B) {
				inst := benchMount(b, name, 8)
				entries := b.N
				if entries < 100 {
					entries = 100
				}
				if entries > 20000 {
					entries = 20000
				}
				b.ResetTimer()
				r, err := workload.RunDBBench(inst, wl, workload.DBBenchSpec{Entries: entries})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.KOpsPerSec(), "ops/ms")
			})
		}
	}
}

// BenchmarkFig10Customization — KVFS's get/set against the same ops via
// ArckFS's generic interface.
func BenchmarkFig10Customization(b *testing.B) {
	val := make([]byte, 16<<10)
	b.Run("kvfs/set+get", func(b *testing.B) {
		inst := benchMount(b, "arckfs", 8)
		kv, err := kvfs.New(inst.Arck, "/kv")
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, len(val))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := fmt.Sprintf("k%04d", i%256)
			if err := kv.Set(0, key, val); err != nil {
				b.Fatal(err)
			}
			if _, err := kv.Get(0, key, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arckfs/create+read", func(b *testing.B) {
		inst := benchMount(b, "arckfs", 8)
		c := inst.NewClient(0)
		if err := c.Mkdir("/kv", 0o755); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, len(val))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := fmt.Sprintf("/kv/k%04d", i%256)
			f, err := c.Create(key, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(val, 0); err != nil {
				b.Fatal(err)
			}
			f.Close()
			g, err := c.Open(key, false)
			if err != nil {
				b.Fatal(err)
			}
			g.ReadAt(buf, 0)
			g.Close()
		}
	})
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §4)
// ---------------------------------------------------------------------

// BenchmarkAblationDelegation — the §4.5 bet: bulk writes with and
// without the delegation datapath on a NUMA device.
func BenchmarkAblationDelegation(b *testing.B) {
	for _, name := range []string{"arckfs", "arckfs-nd"} {
		b.Run(name+"/2M-write", func(b *testing.B) {
			inst := benchMount(b, name, 8)
			f, err := inst.NewClient(0).Create("/bulk", 0o644)
			if err != nil {
				b.Fatal(err)
			}
			chunk := make([]byte, 2<<20)
			f.WriteAt(chunk, 0)
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.WriteAt(chunk, 0)
			}
		})
	}
}

// BenchmarkAblationDirLock — the per-bucket-locked hash table against a
// single-mutex map under concurrent directory-style churn.
func BenchmarkAblationDirLock(b *testing.B) {
	b.Run("striped-hash", func(b *testing.B) {
		m := index.NewMap[int]()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := fmt.Sprintf("f%d", i%4096)
				m.Put(k, i)
				m.Get(k)
				i++
			}
		})
	})
	b.Run("single-mutex-map", func(b *testing.B) {
		var mu sync.Mutex
		m := map[string]int{}
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := fmt.Sprintf("f%d", i%4096)
				mu.Lock()
				m[k] = i
				_ = m[k]
				mu.Unlock()
				i++
			}
		})
	})
}

// BenchmarkAblationIndex — the KVFS bet: fixed array vs radix tree for
// small-file block lookup. The radix keeps its first index.InlineBlocks
// blocks in a fixed array of its own, so the tree arm looks up the eight
// blocks just past them: a three-level descent, as before the head.
func BenchmarkAblationIndex(b *testing.B) {
	b.Run("radix", func(b *testing.B) {
		r := index.NewRadix()
		const base = index.InlineBlocks
		for blk := uint64(0); blk < 8; blk++ {
			r.Put(base+blk, blk+100)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r.Get(base+uint64(i)&7) == 0 {
				b.Fatal("lost mapping")
			}
		}
	})
	b.Run("fixed-array", func(b *testing.B) {
		var pages [8]nvm.PageID
		for blk := range pages {
			pages[blk] = nvm.PageID(blk + 100)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pages[i&7] == 0 {
				b.Fatal("lost mapping")
			}
		}
	})
}

// BenchmarkAblationRangeLock — disjoint 4 KiB writers on one file: the
// range lock against the whole-inode exclusive lock (emulated by
// an Append-style path that serializes).
func BenchmarkAblationRangeLock(b *testing.B) {
	b.Run("range-lock-disjoint", func(b *testing.B) {
		rl := locks.NewRangeLock(1 << 20)
		b.RunParallel(func(pb *testing.PB) {
			off := int64(0)
			for pb.Next() {
				// Distinct segments per iteration, all past segment 0: that
				// one is inline in the lock, the looked-up ones are the cost.
				r := rl.LockRange((off+1)<<21, 4096)
				rl.UnlockRange(r)
				off = (off + 1) & 63
			}
		})
	})
	b.Run("whole-inode-lock", func(b *testing.B) {
		var l locks.RWLock
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l.Lock()
				l.Unlock()
			}
		})
	})
}

// BenchmarkAblationAllocator — per-CPU sharded page allocation vs a
// single shard under parallel allocation.
func BenchmarkAblationAllocator(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			a := alloc.NewPageAlloc(2, 1<<20, shards)
			var cpu int32
			b.RunParallel(func(pb *testing.PB) {
				mycpu := int(cpu) % 8
				cpu++
				for pb.Next() {
					pages, err := a.AllocPages(mycpu, 4)
					if err != nil {
						b.Fatal(err)
					}
					a.FreePages(pages)
				}
			})
		})
	}
}

// --- Data-path regression benches -----------------------------------
//
// BenchmarkDataPath mirrors the `make bench` / BENCH_trio.json suite as
// testing.B targets: seq/rand read+write at 4 KiB / 64 KiB / 1 MiB,
// append, and small-file create/stat, for each userspace personality
// (ArckFS POSIX, FPFS path-indexed, KVFS get/set). The cost model is
// OFF here — modeled device time is a constant the software cannot
// change, so these isolate per-op software overhead, the quantity the
// extent/magazine/persist-coalescing work optimizes.

const dpBenchFile = 8 << 20

func dpBenchMount(b *testing.B) *fsfactory.Instance {
	b.Helper()
	inst, err := fsfactory.New("arckfs", fsfactory.Config{
		Nodes: 2, PagesPerNode: 16384, CPUs: 8, WorkersPerNode: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { inst.Close() })
	return inst
}

// dpBenchClient is the POSIX-shaped subset both ArckFS and FPFS serve.
type dpBenchClient interface {
	Create(path string, mode uint16) (fsapi.File, error)
	Stat(path string) (fsapi.FileInfo, error)
	Unlink(path string) error
	Mkdir(path string, mode uint16) error
}

type dpBenchFPFS struct{ fs *fpfs.FS }

func (a dpBenchFPFS) Create(p string, m uint16) (fsapi.File, error) { return a.fs.Create(0, p, m) }
func (a dpBenchFPFS) Stat(p string) (fsapi.FileInfo, error)         { return a.fs.Stat(p) }
func (a dpBenchFPFS) Unlink(p string) error                         { return a.fs.Unlink(0, p) }
func (a dpBenchFPFS) Mkdir(p string, m uint16) error                { return a.fs.Mkdir(0, p, m) }

func dpBenchFileWorkloads(b *testing.B, name string, c dpBenchClient) {
	dir := "/" + name + "-bench"
	if err := c.Mkdir(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	f, err := c.Create(dir+"/data", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < dpBenchFile; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for _, bs := range []int{4 << 10, 64 << 10, 1 << 20} {
		buf := make([]byte, bs)
		blocks := int64(dpBenchFile / bs)
		label := fmt.Sprintf("%dK", bs>>10)
		if bs >= 1<<20 {
			label = fmt.Sprintf("%dM", bs>>20)
		}
		seq := func(i int64) int64 { return (i % blocks) * int64(bs) }
		rnd := func(int64) int64 { return rng.Int63n(blocks) * int64(bs) }
		for _, w := range []struct {
			name  string
			off   func(int64) int64
			write bool
		}{
			{"seqread-" + label, seq, false},
			{"randread-" + label, rnd, false},
			{"seqwrite-" + label, seq, true},
			{"randwrite-" + label, rnd, true},
		} {
			b.Run(w.name, func(b *testing.B) {
				b.SetBytes(int64(bs))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if w.write {
						_, err = f.WriteAt(buf, w.off(int64(i)))
					} else {
						_, err = f.ReadAt(buf, w.off(int64(i)))
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("append-4K", func(b *testing.B) {
		af, err := c.Create(dir+"/log", 0o644)
		if err != nil {
			b.Fatal(err)
		}
		ab := make([]byte, 4<<10)
		b.SetBytes(int64(len(ab)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if af.Size() >= dpBenchFile {
				if err := af.Truncate(0); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := af.Append(ab); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("create-unlink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := c.Create(dir+"/tmp", 0o644)
			if err != nil {
				b.Fatal(err)
			}
			g.Close()
			if err := c.Unlink(dir + "/tmp"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Stat(dir + "/data"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDataPathArckFS(b *testing.B) {
	inst := dpBenchMount(b)
	c := inst.NewClient(0)
	dpBenchFileWorkloads(b, "arckfs", struct {
		fsapi.Client
	}{c})
}

func BenchmarkDataPathFPFS(b *testing.B) {
	inst := dpBenchMount(b)
	dpBenchFileWorkloads(b, "fpfs", dpBenchFPFS{fpfs.New(inst.Arck)})
}

func BenchmarkDataPathKVFS(b *testing.B) {
	inst := dpBenchMount(b)
	kv, err := kvfs.New(inst.Arck, "/kv")
	if err != nil {
		b.Fatal(err)
	}
	const keys = 64
	val4 := make([]byte, 4<<10)
	val32 := make([]byte, kvfs.MaxValueSize)
	buf := make([]byte, kvfs.MaxValueSize)
	for _, w := range []struct {
		name string
		val  []byte
		get  bool
	}{
		{"set-4K", val4, false},
		{"get-4K", val4, true},
		{"set-32K", val32, false},
		{"get-32K", val32, true},
	} {
		b.Run(w.name, func(b *testing.B) {
			// Reshape the working set so gets of this size hit.
			for i := 0; i < keys; i++ {
				if err := kv.Set(0, fmt.Sprintf("k%03d", i), w.val); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(w.val)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("k%03d", i%keys)
				if w.get {
					if _, err := kv.Get(0, key, buf); err != nil {
						b.Fatal(err)
					}
				} else if err := kv.Set(0, key, w.val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
