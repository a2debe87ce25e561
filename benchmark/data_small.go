package main

import (
	"errors"
	"fmt"
	"math/rand"

	"trio/internal/controller"
	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/nvm"
)

// data-small: one client doing random 4 KiB reads (70 %) and overwrites
// (30 %) on one 64 MiB ArckFS file. It is the paper's headline —
// direct-access data operations with no trap — so the libfs file path,
// the radix index, the MMU check and the NVM copy/persist do all the
// work while the controller, allocator, verifier and wire server idle.
// Any bookkeeping added to the hot path shows here first; every
// control-plane change must leave it alone.

const (
	dsBlock     = 4096
	dsBlocks    = 16384 // 64 MiB
	dsStreamLen = 1 << 20
	dsWriteBit  = 1 << 31
	dsWritePct  = 30
)

var dataSmallSpec = spec{
	name:      "data-small",
	why:       "direct-access 4 KiB data ops on one file; libfs/index/mmu/nvm do all the work and the control plane idles",
	devPages:  32768,
	lanes:     1,
	timeEvery: 8,
	traceOps:  20000,
	smokeOps:  2000,
	build:     newDataSmall,
}

// arckfsConfig is the mount shape the single-mount workloads share.
func arckfsConfig(pages int) fsfactory.Config {
	return fsfactory.Config{Nodes: 1, PagesPerNode: pages, CPUs: 2, WorkersPerNode: 1}
}

var errShortIO = errors.New("short read or write")

type dataSmall struct {
	stream []uint32 // block id, dsWriteBit set for an overwrite
	oracle *blockOracle
	wbuf   []byte
	rbuf   []byte

	inst *fsfactory.Instance
	f    fsapi.File
}

func newDataSmall(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &dataSmall{
		stream: make([]uint32, dsStreamLen),
		oracle: newBlockOracle(rng, dsBlock, dsBlocks),
		wbuf:   make([]byte, dsBlock),
		rbuf:   make([]byte, dsBlock),
	}
	copy(w.wbuf, w.oracle.fill)
	for i := range w.stream {
		o := uint32(rng.Intn(dsBlocks))
		if rng.Intn(100) < dsWritePct {
			o |= dsWriteBit
		}
		w.stream[i] = o
	}
	return w
}

func (w *dataSmall) setup(dev *nvm.Device) error {
	inst, err := fsfactory.NewOnDevice("arckfs", dev, arckfsConfig(dev.PagesPerNode()))
	if err != nil {
		return err
	}
	w.inst = inst
	if w.f, err = inst.NewClient(0).Create("/data", 0o644); err != nil {
		return err
	}
	for b := 0; b < dsBlocks; b++ {
		w.oracle.ver[b] = w.oracle.next(w.wbuf, b)
		if _, err := w.f.Append(w.wbuf); err != nil {
			return fmt.Errorf("populate block %d: %w", b, err)
		}
	}
	return w.verify()
}

func (w *dataSmall) op(_, i int, tr *laneTrace) error {
	o := w.stream[i&(dsStreamLen-1)]
	b := int(o &^ dsWriteBit)
	off := int64(b) * dsBlock
	if o&dsWriteBit != 0 {
		v := w.oracle.next(w.wbuf, b)
		s := tr.begin("fsapi.File.WriteAt", "libfs")
		n, err := w.f.WriteAt(w.wbuf, off)
		tr.end(s)
		if err != nil {
			return err
		}
		if n != dsBlock {
			return errShortIO
		}
		w.oracle.ver[b] = v
		return nil
	}
	s := tr.begin("fsapi.File.ReadAt", "libfs")
	n, err := w.f.ReadAt(w.rbuf, off)
	tr.end(s)
	if err != nil {
		return err
	}
	if n != dsBlock {
		return errShortIO
	}
	return w.oracle.checkStamp(w.rbuf, b)
}

func (w *dataSmall) verify() error {
	if size := w.f.Size(); size != dsBlocks*dsBlock {
		return fmt.Errorf("file size %d, want %d", size, dsBlocks*dsBlock)
	}
	for b := 0; b < dsBlocks; b++ {
		if n, err := w.f.ReadAt(w.rbuf, int64(b)*dsBlock); err != nil || n != dsBlock {
			return fmt.Errorf("read block %d: n=%d err=%v", b, n, err)
		}
		if err := w.oracle.checkFull(w.rbuf, b); err != nil {
			return err
		}
	}
	return nil
}

func (w *dataSmall) controller() *controller.Controller { return w.inst.Ctl }

func (w *dataSmall) close() {
	if w.inst != nil {
		w.inst.Close()
	}
}
