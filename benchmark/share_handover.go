package main

import (
	"fmt"
	"math/rand"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/libfs"
	"trio/internal/nvm"
)

// share-handover: two ArckFS mounts in different trust groups take
// turns writing 4 KiB into one shared 2 MiB file (Table 3's 2 MB row),
// each giving its mapping back as soon as its write is done (§6.5
// forces the unmap after every op). Every op therefore moves write
// access across a trust domain: a write grant with its checkpoint, the
// auxiliary-state rebuild, the write, and the verification and checksum
// sealing of the unmap. It is the paper's distinguishing mechanism and
// the only workload where controller mapping, the verifier, MMU
// map/shootdown and checksum sealing do most of the work. The release
// is explicit, so no lease is ever recalled and nothing sleeps.

const (
	shBlock     = 4096
	shBlocks    = 512 // 2 MiB
	shStreamLen = 1 << 14
	shPath      = "/shared"
)

var shareHandoverSpec = spec{
	name:      "share-handover",
	why:       "two trust domains alternate 4 KiB writes on one 2 MiB file with explicit unmap; controller map/verify, mmu and checksum sealing dominate",
	devPages:  8192,
	lanes:     1,
	timeEvery: 1,
	traceOps:  500,
	smokeOps:  40,
	build:     newShareHandover,
}

type shareHandover struct {
	stream []uint16 // block id
	oracle *blockOracle
	wbuf   []byte
	rbuf   []byte

	ctl  *controller.Controller
	fs   [2]*libfs.FS
	h    [2]fsapi.File
	sess [2]*controller.Session
	ino  core.Ino
}

func newShareHandover(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &shareHandover{
		stream: make([]uint16, shStreamLen),
		oracle: newBlockOracle(rng, shBlock, shBlocks),
		wbuf:   make([]byte, shBlock),
		rbuf:   make([]byte, shBlock),
	}
	copy(w.wbuf, w.oracle.fill)
	for i := range w.stream {
		w.stream[i] = uint16(rng.Intn(shBlocks))
	}
	return w
}

func (w *shareHandover) setup(dev *nvm.Device) error {
	ctl, err := controller.New(dev, controller.Options{CPUs: 2})
	if err != nil {
		return err
	}
	w.ctl = ctl
	for d := range w.fs {
		w.sess[d] = ctl.Register(1000, 1000, 0, controller.GroupID(1+d))
		if w.fs[d], err = libfs.New(w.sess[d], libfs.Config{CPUs: 2}); err != nil {
			return err
		}
	}

	// Domain 0 creates and fills the file, then lets go of the root
	// directory so domain 1 can walk to it without a lease wait.
	if w.h[0], err = w.fs[0].NewClient(0).Create(shPath, 0o666); err != nil {
		return err
	}
	for b := 0; b < shBlocks; b++ {
		w.oracle.ver[b] = w.oracle.next(w.wbuf, b)
		if _, err := w.h[0].Append(w.wbuf); err != nil {
			return fmt.Errorf("populate block %d: %w", b, err)
		}
	}
	info, err := w.fs[0].NewClient(0).Stat(shPath)
	if err != nil {
		return err
	}
	w.ino = core.Ino(info.Ino)
	// Giving the root back makes the controller verify it and adopt the
	// new file: the creator's implicit access to its pages ends here.
	if err := w.sess[0].UnmapFile(core.RootIno); err != nil {
		return err
	}
	if w.h[1], err = w.fs[1].NewClient(1).Open(shPath, true); err != nil {
		return err
	}
	if err := w.sess[1].UnmapFile(w.ino); err != nil {
		return err
	}
	return w.readBack()
}

func (w *shareHandover) op(_, i int, tr *laneTrace) error {
	d := i & 1
	b := int(w.stream[i&(shStreamLen-1)])
	v := w.oracle.next(w.wbuf, b)

	s := tr.begin("fsapi.File.WriteAt", "libfs")
	n, err := w.h[d].WriteAt(w.wbuf, int64(b)*shBlock)
	tr.end(s)
	if err != nil {
		return err
	}
	if n != shBlock {
		return errShortIO
	}
	w.oracle.ver[b] = v

	s = tr.begin("controller.Session.UnmapFile", "controller")
	err = w.sess[d].UnmapFile(w.ino)
	tr.end(s)
	return err
}

// readBack reads the whole file through each domain's handle in turn
// and compares it with the oracle, handing the mapping back each time.
func (w *shareHandover) readBack() error {
	for d := range w.h {
		for b := 0; b < shBlocks; b++ {
			if n, err := w.h[d].ReadAt(w.rbuf, int64(b)*shBlock); err != nil || n != shBlock {
				return fmt.Errorf("domain %d read block %d: n=%d err=%v", d, b, n, err)
			}
			if err := w.oracle.checkFull(w.rbuf, b); err != nil {
				return fmt.Errorf("domain %d: %w", d, err)
			}
		}
		if err := w.sess[d].UnmapFile(w.ino); err != nil {
			return fmt.Errorf("domain %d unmap: %w", d, err)
		}
	}
	return nil
}

func (w *shareHandover) verify() error {
	if err := w.readBack(); err != nil {
		return err
	}
	if checked, bad, first := w.ctl.VerifyAll(); bad != 0 {
		return fmt.Errorf("VerifyAll: %d of %d files bad: %s", bad, checked, first)
	}
	// The handover must be pure software: a recalled or expired lease
	// means an op waited on a timer.
	if st := w.ctl.Stats().Snapshot(); st.LeaseRecalls != 0 || st.LeaseExpiries != 0 {
		return fmt.Errorf("lease path taken: %d recalls, %d expiries", st.LeaseRecalls, st.LeaseExpiries)
	}
	return nil
}

func (w *shareHandover) controller() *controller.Controller { return w.ctl }

func (w *shareHandover) close() {
	for _, fs := range w.fs {
		if fs != nil {
			fs.Close()
		}
	}
}
