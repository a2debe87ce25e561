package main

import (
	"fmt"
	"math/rand"
	"sort"

	"trio/internal/controller"
	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/nvm"
)

// meta-churn: one client running whole file lifecycles against 32
// directories of 512 resident files each. FxMark/Filebench-style
// metadata is where ArckFS's per-directory hash index and direct
// metadata access are the claim: libfs directory ops, the index hash
// map, the allocator (pages and inode numbers), the rename journal and
// the controller's batch grants and deferred-removal flushes dominate;
// the data path is one page. One lifecycle is timed as one op, so the
// median never sits on the boundary between two op classes.

const (
	mcDirs        = 32
	mcResidents   = 512
	mcStreamLen   = 1 << 15
	mcReadDirEach = 32 // every 32nd op also lists a directory
	mcBlock       = 4096
)

var metaChurnSpec = spec{
	name:      "meta-churn",
	why:       "create/append/stat/open/read/rename/unlink lifecycles over 32x512 files; libfs dirs, index map, alloc, journal and controller grants dominate",
	devPages:  32768,
	lanes:     1,
	timeEvery: 1,
	traceOps:  5000,
	smokeOps:  300,
	build:     newMetaChurn,
}

// mcOp is one pre-generated lifecycle.
type mcOp struct {
	born    string // path the file is created at
	moved   string // path it is renamed to, in another directory
	stat    string // a resident file
	readDir string // a directory, listed on every mcReadDirEach-th op
}

type metaChurn struct {
	stream    []mcOp
	dirs      []string
	residents []string // sorted names every directory holds
	buf       []byte
	rbuf      []byte

	inst *fsfactory.Instance
	c    fsapi.Client
}

func newMetaChurn(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &metaChurn{
		stream: make([]mcOp, mcStreamLen),
		buf:    make([]byte, mcBlock),
		rbuf:   make([]byte, mcBlock),
	}
	rng.Read(w.buf)
	for d := 0; d < mcDirs; d++ {
		w.dirs = append(w.dirs, fmt.Sprintf("/d%02d", d))
	}
	for f := 0; f < mcResidents; f++ {
		w.residents = append(w.residents, fmt.Sprintf("f%03d", f))
	}
	for i := range w.stream {
		from := rng.Intn(mcDirs)
		to := (from + 1 + rng.Intn(mcDirs-1)) % mcDirs
		w.stream[i] = mcOp{
			born:    fmt.Sprintf("%s/t%05d", w.dirs[from], i),
			moved:   fmt.Sprintf("%s/t%05d", w.dirs[to], i),
			stat:    w.dirs[rng.Intn(mcDirs)] + "/" + w.residents[rng.Intn(mcResidents)],
			readDir: w.dirs[rng.Intn(mcDirs)],
		}
	}
	return w
}

func (w *metaChurn) setup(dev *nvm.Device) error {
	inst, err := fsfactory.NewOnDevice("arckfs", dev, arckfsConfig(dev.PagesPerNode()))
	if err != nil {
		return err
	}
	w.inst = inst
	w.c = inst.NewClient(0)
	for _, d := range w.dirs {
		if err := w.c.Mkdir(d, 0o755); err != nil {
			return err
		}
		for _, r := range w.residents {
			f, err := w.c.Create(d+"/"+r, 0o644)
			if err != nil {
				return err
			}
			f.Close()
		}
	}
	return w.verify()
}

func (w *metaChurn) op(_, i int, tr *laneTrace) error {
	o := &w.stream[i&(mcStreamLen-1)]
	err := w.lifecycle(o, i, tr)
	if err != nil {
		// Leave no stray name behind for the stream's next lap.
		w.c.Unlink(o.born)
		w.c.Unlink(o.moved)
	}
	return err
}

func (w *metaChurn) lifecycle(o *mcOp, i int, tr *laneTrace) error {
	stamp(w.buf, i, 1)

	s := tr.begin("fsapi.Client.Create", "libfs")
	f, err := w.c.Create(o.born, 0o644)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	s = tr.begin("fsapi.File.Append", "libfs")
	_, err = f.Append(w.buf)
	tr.end(s)
	s = tr.begin("fsapi.File.Close", "libfs")
	f.Close()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}

	s = tr.begin("fsapi.Client.Stat", "libfs")
	info, err := w.c.Stat(o.stat)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("stat: %w", err)
	}
	if info.IsDir || info.Size != 0 {
		return fmt.Errorf("stat %s: dir=%v size=%d, want an empty regular file", o.stat, info.IsDir, info.Size)
	}

	s = tr.begin("fsapi.Client.Open", "libfs")
	f, err = w.c.Open(o.born, false)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	s = tr.begin("fsapi.File.ReadAt", "libfs")
	n, err := f.ReadAt(w.rbuf, 0)
	tr.end(s)
	s = tr.begin("fsapi.File.Close", "libfs")
	f.Close()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if id, _, ok := stampOf(w.rbuf); n != mcBlock || !ok || id != i {
		return fmt.Errorf("read back %d bytes of op %d (torn=%v), want op %d", n, id, !ok, i)
	}

	s = tr.begin("fsapi.Client.Rename", "libfs")
	err = w.c.Rename(o.born, o.moved)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	s = tr.begin("fsapi.Client.Unlink", "libfs")
	err = w.c.Unlink(o.moved)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("unlink: %w", err)
	}

	if i%mcReadDirEach == 0 {
		s = tr.begin("fsapi.Client.ReadDir", "libfs")
		names, err := w.c.ReadDir(o.readDir)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("readdir: %w", err)
		}
		if len(names) != mcResidents {
			return fmt.Errorf("readdir %s: %d names, want %d", o.readDir, len(names), mcResidents)
		}
	}
	return nil
}

// verify checks that every directory lists exactly its resident set.
func (w *metaChurn) verify() error {
	for _, d := range w.dirs {
		names, err := w.c.ReadDir(d)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", d, err)
		}
		sort.Strings(names)
		if len(names) != len(w.residents) {
			return fmt.Errorf("%s lists %d names, want %d", d, len(names), len(w.residents))
		}
		for i, n := range names {
			if n != w.residents[i] {
				return fmt.Errorf("%s entry %d is %q, want %q", d, i, n, w.residents[i])
			}
		}
	}
	return nil
}

func (w *metaChurn) controller() *controller.Controller { return w.inst.Ctl }

func (w *metaChurn) close() {
	if w.inst != nil {
		w.inst.Close()
	}
}
