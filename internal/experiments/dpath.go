// Data-path micro-benchmark harness: the regression gate behind
// `make bench` and BENCH_trio.json.
//
// Unlike the figure experiments (which reproduce the paper's shapes
// under the calibrated hardware cost model), the data-path suite
// defaults to cost injection OFF: the modeled device time is a constant
// the software cannot change, so measuring without it isolates exactly
// the quantity the hot-path work optimizes — per-operation software
// overhead (index walks, batch machinery, permission checks,
// allocations). Pass Cost=true (trio-bench -cost) for modeled-hardware
// numbers; EXPERIMENTS.md discusses both.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"trio/internal/core"
	"trio/internal/fpfs"
	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/kvfs"
	"trio/internal/nvm"
)

// DataPathResult is one workload × FS measurement.
type DataPathResult struct {
	FS          string  `json:"fs"`
	Workload    string  `json:"workload"`
	Ops         int64   `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BlockBytes  int     `json:"block_bytes,omitempty"`
}

// DataPathReport is the BENCH_trio.json schema. The datapath suite
// owns Results; the massive-tenancy sweep owns Tenancy; the
// trust-boundary sweep owns SmallOps — each writer preserves the other
// sections, so one file carries every gate.
type DataPathReport struct {
	Schema   string           `json:"schema"`
	Go       string           `json:"go"`
	Quick    bool             `json:"quick"`
	Cost     bool             `json:"cost_model"`
	Results  []DataPathResult `json:"results"`
	Tenancy  *TenancyReport   `json:"tenancy,omitempty"`
	SmallOps *SmallOpsReport  `json:"smallops,omitempty"`
	Serving  *ServingReport   `json:"serving,omitempty"`
	NetChaos *NetChaosReport  `json:"netchaos,omitempty"`
}

// dpathFile is the working-set size of the file data workloads.
const dpathFile = 8 << 20

// dpathDuration is the per-workload measurement target.
func dpathDuration(p Params) time.Duration {
	if p.Quick {
		return 40 * time.Millisecond
	}
	return 400 * time.Millisecond
}

// measure runs op in a timing loop for roughly the target duration and
// returns the per-op statistics. Alloc counts come from MemStats deltas,
// so the harness itself must not allocate inside op.
func measure(p Params, fs, workload string, blockBytes int, op func(i int64) error) (DataPathResult, error) {
	target := dpathDuration(p)
	// Warm-up: fault in lazily built aux state so it isn't billed to op 0.
	if err := op(0); err != nil {
		return DataPathResult{}, fmt.Errorf("%s/%s: %w", fs, workload, err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var ops int64
	start := time.Now()
	var elapsed time.Duration
	for {
		const chunk = 16
		for i := 0; i < chunk; i++ {
			if err := op(ops); err != nil {
				return DataPathResult{}, fmt.Errorf("%s/%s (op %d): %w", fs, workload, ops, err)
			}
			ops++
		}
		if elapsed = time.Since(start); elapsed >= target {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	ns := float64(elapsed.Nanoseconds()) / float64(ops)
	r := DataPathResult{
		FS: fs, Workload: workload, Ops: ops,
		NsPerOp:     ns,
		OpsPerSec:   1e9 / ns,
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		BlockBytes:  blockBytes,
	}
	if blockBytes > 0 {
		r.MBPerSec = float64(blockBytes) * float64(ops) / elapsed.Seconds() / (1 << 20)
	}
	return r, nil
}

// dpathMount builds the two-node testbed the data-path suite runs on.
func dpathMount(p Params) (*fsfactory.Instance, error) {
	return fsfactory.New("arckfs", fsfactory.Config{
		Nodes: 2, PagesPerNode: 16384, CPUs: 8, Cost: !p.NoCost, WorkersPerNode: 2,
	})
}

// fileClient abstracts the two POSIX-shaped targets (arckfs, fpfs).
type fileClient interface {
	Create(path string, mode uint16) (fsapi.File, error)
	Open(path string, write bool) (fsapi.File, error)
	Stat(path string) (fsapi.FileInfo, error)
	Unlink(path string) error
	Mkdir(path string, mode uint16) error
}

// runFileWorkloads measures the data+metadata workload set over one
// POSIX-shaped client.
func runFileWorkloads(p Params, fs string, c fileClient) ([]DataPathResult, error) {
	var out []DataPathResult
	add := func(r DataPathResult, err error) error {
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}

	if err := c.Mkdir("/"+fs+"-bench", 0o755); err != nil {
		return nil, err
	}
	dir := "/" + fs + "-bench"
	f, err := c.Create(dir+"/data", 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < dpathFile; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(42))
	for _, bs := range []int{4 << 10, 64 << 10, 1 << 20} {
		bs := bs
		buf := make([]byte, bs)
		blocks := int64(dpathFile / bs)
		label := sizeLabel(bs)
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
			w := w
			err := add(measure(p, fs, w.name, bs, func(i int64) error {
				if w.write {
					_, err := f.WriteAt(buf, w.off(i))
					return err
				}
				_, err := f.ReadAt(buf, w.off(i))
				return err
			}))
			if err != nil {
				return nil, err
			}
		}
	}

	// Append: grow a log 4 KiB at a time, truncating before it overruns
	// the working set (the truncate exercises the free path).
	af, err := c.Create(dir+"/log", 0o644)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	ab := make([]byte, 4<<10)
	err = add(measure(p, fs, "append-4K", 4<<10, func(i int64) error {
		if af.Size() >= dpathFile {
			if err := af.Truncate(0); err != nil {
				return err
			}
		}
		_, err := af.Append(ab)
		return err
	}))
	if err != nil {
		return nil, err
	}

	// Small-file create (create+unlink pairs) and stat.
	err = add(measure(p, fs, "create-unlink", 0, func(i int64) error {
		g, err := c.Create(dir+"/tmp", 0o644)
		if err != nil {
			return err
		}
		g.Close()
		return c.Unlink(dir + "/tmp")
	}))
	if err != nil {
		return nil, err
	}
	err = add(measure(p, fs, "stat", 0, func(i int64) error {
		_, err := c.Stat(dir + "/data")
		return err
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// arckClientAdapter narrows an fsapi.Client to fileClient.
type arckClientAdapter struct{ fsapi.Client }

// fpfsClientAdapter drives FPFS through its path-indexed API.
type fpfsClientAdapter struct {
	fs  *fpfs.FS
	cpu int
}

func (a fpfsClientAdapter) Create(path string, mode uint16) (fsapi.File, error) {
	return a.fs.Create(a.cpu, path, mode)
}
func (a fpfsClientAdapter) Open(path string, write bool) (fsapi.File, error) {
	return a.fs.Open(a.cpu, path, write)
}
func (a fpfsClientAdapter) Stat(path string) (fsapi.FileInfo, error) { return a.fs.Stat(path) }
func (a fpfsClientAdapter) Unlink(path string) error                 { return a.fs.Unlink(a.cpu, path) }
func (a fpfsClientAdapter) Mkdir(path string, mode uint16) error {
	return a.fs.Mkdir(a.cpu, path, mode)
}

// runVerifiedReads measures the read-path CRC verification overhead
// (Config.VerifyReads, ISSUE 5). The same sealed working set is read
// twice — verification off ("arckfs-ro") and on ("arckfs-verify") — so
// BENCH_trio.json carries the delta directly. The file must be sealed
// (unmap → verify → adopt → seal) and opened read-only: a write grant
// reopens the checksum records and the verifier would skip the compare,
// measuring nothing but the record load.
func runVerifiedReads(p Params) ([]DataPathResult, error) {
	var out []DataPathResult
	for _, v := range []struct {
		fs     string
		verify bool
	}{{"arckfs-ro", false}, {"arckfs-verify", true}} {
		inst, err := fsfactory.New("arckfs", fsfactory.Config{
			Nodes: 2, PagesPerNode: 16384, CPUs: 8, Cost: !p.NoCost,
			WorkersPerNode: 2, VerifyReads: v.verify,
		})
		if err != nil {
			return nil, err
		}
		res, err := verifiedReadPass(p, v.fs, inst)
		inst.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// verifiedReadPass builds, seals and measures one read-only instance.
func verifiedReadPass(p Params, fs string, inst *fsfactory.Instance) ([]DataPathResult, error) {
	c := inst.NewClient(0)
	const dir = "/sealed-bench"
	if err := c.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := c.Create(dir+"/data", 0o644)
	if err != nil {
		return nil, err
	}
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < dpathFile; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			f.Close()
			return nil, err
		}
	}
	f.Close()

	// Hand the tree to the controller so the data pages seal: unmapping
	// a directory verifies it and adopts (and seals) its children.
	sess := inst.Arck.Session()
	if err := sess.UnmapFile(core.RootIno); err != nil {
		return nil, err
	}
	for prev := -1; ; {
		files := inst.Ctl.Files()
		if len(files) == prev {
			break
		}
		prev = len(files)
		for _, fi := range files {
			if fi.Type != core.TypeDir || fi.Ino == core.RootIno {
				continue
			}
			if _, err := sess.MapFile(fi.Ino, fi.Loc, true); err == nil {
				sess.UnmapFile(fi.Ino)
			}
		}
	}
	// The measurement is only honest if the pages really sealed: an
	// open record short-circuits the verifier and the two variants
	// would measure the same thing.
	mem := core.Direct(inst.Dev, 0)
	total := inst.Dev.NumPages()
	sealed, data := 0, 0
	for _, fi := range inst.Ctl.Files() {
		if fi.Type != core.TypeReg {
			continue
		}
		in, err := core.ReadDirentInode(mem, fi.Loc.Page, fi.Loc.Slot)
		if err != nil {
			return nil, err
		}
		err = core.WalkFile(mem, in.Head, int(total), nil,
			func(_ uint64, pg nvm.PageID) bool {
				data++
				if rec, err := core.LoadChecksum(mem, total, pg); err == nil && core.ChecksumSealed(rec) {
					sealed++
				}
				return true
			})
		if err != nil {
			return nil, err
		}
	}
	if data == 0 || sealed != data {
		return nil, fmt.Errorf("%s: working set not sealed (%d/%d pages)", fs, sealed, data)
	}

	rf, err := c.Open(dir+"/data", false)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	var out []DataPathResult
	rng := rand.New(rand.NewSource(42))
	for _, bs := range []int{4 << 10, 64 << 10, 1 << 20} {
		bs := bs
		buf := make([]byte, bs)
		blocks := int64(dpathFile / bs)
		label := sizeLabel(bs)
		seq := func(i int64) int64 { return (i % blocks) * int64(bs) }
		rnd := func(int64) int64 { return rng.Int63n(blocks) * int64(bs) }
		for _, w := range []struct {
			name string
			off  func(int64) int64
		}{
			{"seqread-" + label, seq},
			{"randread-" + label, rnd},
		} {
			w := w
			r, err := measure(p, fs, w.name, bs, func(i int64) error {
				_, err := rf.ReadAt(buf, w.off(i))
				return err
			})
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// runKVWorkloads measures KVFS's customized get/set interface.
func runKVWorkloads(p Params, kv *kvfs.FS) ([]DataPathResult, error) {
	var out []DataPathResult
	val4 := make([]byte, 4<<10)
	val32 := make([]byte, kvfs.MaxValueSize)
	buf := make([]byte, kvfs.MaxValueSize)
	keys := 64
	for i := 0; i < keys; i++ {
		if err := kv.Set(0, fmt.Sprintf("k%03d", i), val4); err != nil {
			return nil, err
		}
	}
	for _, w := range []struct {
		name string
		val  []byte
		get  bool
	}{
		{"kv-set-4K", val4, false},
		{"kv-get-4K", val4, true},
		{"kv-set-32K", val32, false},
		{"kv-get-32K", val32, true},
	} {
		w := w
		if !w.get {
			// Reshape the working set so gets of this size hit.
			for i := 0; i < keys; i++ {
				if err := kv.Set(0, fmt.Sprintf("k%03d", i), w.val); err != nil {
					return nil, err
				}
			}
		}
		r, err := measure(p, "kvfs", w.name, len(w.val), func(i int64) error {
			key := fmt.Sprintf("k%03d", i%int64(keys))
			if w.get {
				_, err := kv.Get(0, key, buf)
				return err
			}
			return kv.Set(0, key, w.val)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RunDataPath runs the whole data-path suite (arckfs, fpfs, kvfs) and
// returns the measurements.
func RunDataPath(w io.Writer, p Params) ([]DataPathResult, error) {
	header(w, "datapath", "hot-path software overhead per op (make bench)")
	if p.NoCost {
		fmt.Fprintln(w, "cost model: OFF (software overhead only — the regression gate)")
	} else {
		fmt.Fprintln(w, "cost model: ON (modeled hardware time included)")
	}
	var all []DataPathResult

	inst, err := dpathMount(p)
	if err != nil {
		return nil, err
	}
	arck := inst.NewClient(0)
	res, err := runFileWorkloads(p, "arckfs", arckClientAdapter{arck})
	if err != nil {
		inst.Close()
		return nil, err
	}
	all = append(all, res...)

	fp := fpfs.New(inst.Arck)
	res, err = runFileWorkloads(p, "fpfs", fpfsClientAdapter{fs: fp, cpu: 0})
	if err != nil {
		inst.Close()
		return nil, err
	}
	all = append(all, res...)

	kv, err := kvfs.New(inst.Arck, "/kv")
	if err != nil {
		inst.Close()
		return nil, err
	}
	res, err = runKVWorkloads(p, kv)
	if err != nil {
		inst.Close()
		return nil, err
	}
	all = append(all, res...)
	if err := inst.Close(); err != nil {
		return nil, err
	}

	// The sealed read-only pair: VerifyReads off vs on (ISSUE 5).
	res, err = runVerifiedReads(p)
	if err != nil {
		return nil, err
	}
	all = append(all, res...)

	rows := make([][]string, 0, len(all))
	for _, r := range all {
		mb := "-"
		if r.MBPerSec > 0 {
			mb = fmt.Sprintf("%.1f", r.MBPerSec)
		}
		rows = append(rows, []string{
			r.FS, r.Workload,
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			mb,
			fmt.Sprintf("%.1f", r.AllocsPerOp),
		})
	}
	table(w, []string{"fs", "workload", "ns/op", "op/s", "MB/s", "allocs/op"}, rows)
	return all, nil
}

// DataPath is the Registry adapter (table output only).
func DataPath(w io.Writer, p Params) error {
	_, err := RunDataPath(w, p)
	return err
}

// WriteDataPathJSON writes the measurements as BENCH_trio.json.
func WriteDataPathJSON(path string, p Params, results []DataPathResult) error {
	sort.Slice(results, func(i, j int) bool {
		if results[i].FS != results[j].FS {
			return results[i].FS < results[j].FS
		}
		return results[i].Workload < results[j].Workload
	})
	rep := DataPathReport{
		Schema:  "trio-bench/datapath/v1",
		Go:      runtime.Version(),
		Quick:   p.Quick,
		Cost:    !p.NoCost,
		Results: results,
	}
	if prev, err := LoadDataPathJSON(path); err == nil {
		rep.Tenancy = prev.Tenancy   // the tenancy sweep owns this section
		rep.SmallOps = prev.SmallOps // the trust-boundary sweep owns this one
		rep.Serving = prev.Serving   // the wire-serving experiment owns this one
		rep.NetChaos = prev.NetChaos // the network-resilience storm owns this one
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
