package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"trio/internal/controller"
	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/nvm"
	"trio/internal/serve"
)

// wire-mixed: two closed-loop lanes pipelined on one reconnecting
// serve.Session against an in-process trio-serve over ArckFS, mixing
// GETATTR (20 %), 16 KiB READ (60 %) and 16 KiB WRITE (20 %) over 64
// files picked by a zipf law — more files than the 16-entry per-worker
// file cache holds, so cache hits and misses both occur. It measures an
// op's whole journey (frame, server reader/worker/writer, LibFS, NVM);
// the codec, queues, duplicate-request cache and copies of the serving
// tier dominate, the file system underneath is the data-small path.

const (
	wmFiles      = 64
	wmBlock      = 16 << 10
	wmFileBlocks = 16 // 256 KiB per file
	wmStreamLen  = 1 << 16
	wmLanes      = 2
	wmZipfS      = 1.2

	wmGetattr = 0
	wmRead    = 1
	wmWrite   = 2
)

var wireMixedSpec = spec{
	name:      "wire-mixed",
	why:       "2 pipelined lanes of GETATTR/READ/WRITE 16 KiB over one serve.Session, zipf over 64 files; serve codec, queues and copies dominate",
	devPages:  32768,
	lanes:     wmLanes,
	timeEvery: 1,
	traceOps:  5000,
	smokeOps:  400,
	build:     newWireMixed,
}

// wmOp is one pre-generated RPC.
type wmOp struct {
	kind  uint8
	file  uint8
	block uint8
}

func (o wmOp) id() int { return int(o.file)*wmFileBlocks + int(o.block) }

type wireMixed struct {
	streams [wmLanes][]wmOp
	oracle  *blockOracle
	wbuf    [wmLanes][]byte
	rbuf    [wmLanes][]byte

	inst    *fsfactory.Instance
	srv     *serve.Server
	sess    *serve.Session
	conns   sync.WaitGroup // server-side connection goroutines
	handles [wmFiles]fsapi.Handle
}

func newWireMixed(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &wireMixed{oracle: newBlockOracle(rng, wmBlock, wmFiles*wmFileBlocks)}
	zipf := rand.NewZipf(rng, wmZipfS, 1, wmFiles-1)
	for l := range w.streams {
		w.wbuf[l] = append([]byte(nil), w.oracle.fill...)
		w.rbuf[l] = make([]byte, wmBlock)
		w.streams[l] = make([]wmOp, wmStreamLen)
		for i := range w.streams[l] {
			o := wmOp{file: uint8(zipf.Uint64()), block: uint8(rng.Intn(wmFileBlocks))}
			switch p := rng.Intn(100); {
			case p < 20:
				o.kind = wmGetattr
			case p < 80:
				o.kind = wmRead
			default:
				o.kind = wmWrite
				// A lane only writes blocks of its own parity, so every
				// block has one writer and the oracle needs no lock.
				o.block = uint8(2*rng.Intn(wmFileBlocks/2) + l)
			}
			w.streams[l][i] = o
		}
	}
	return w
}

func (w *wireMixed) setup(dev *nvm.Device) error {
	inst, err := fsfactory.NewOnDevice("arckfs", dev, arckfsConfig(dev.PagesPerNode()))
	if err != nil {
		return err
	}
	w.inst = inst
	if w.srv, err = serve.NewServer(inst, serve.Options{Workers: 2}); err != nil {
		return err
	}
	redial := func() (io.ReadWriteCloser, error) {
		a, b := serve.NewDuplex(1 << 20)
		w.conns.Add(1)
		go func() {
			defer w.conns.Done()
			w.srv.ServeConn(a)
		}()
		return b, nil
	}
	if w.sess, err = serve.NewSession(redial, serve.SessionOptions{ClientID: 1}); err != nil {
		return err
	}

	ctx := context.Background()
	root := w.sess.Root()
	buf := w.wbuf[0]
	for f := 0; f < wmFiles; f++ {
		h, _, err := w.sess.Create(ctx, root, fmt.Sprintf("file%02d", f), 0o644)
		if err != nil {
			return err
		}
		w.handles[f] = h
		for k := 0; k < wmFileBlocks; k++ {
			id := f*wmFileBlocks + k
			w.oracle.ver[id] = w.oracle.next(buf, id)
			if n, err := w.sess.Write(ctx, h, int64(k)*wmBlock, buf); err != nil || n != wmBlock {
				return fmt.Errorf("populate file %d block %d: n=%d err=%v", f, k, n, err)
			}
		}
	}
	return w.verify()
}

func (w *wireMixed) op(lane, i int, tr *laneTrace) error {
	o := w.streams[lane][i&(wmStreamLen-1)]
	ctx := context.Background()
	h := w.handles[o.file]
	off := int64(o.block) * wmBlock
	switch o.kind {
	case wmGetattr:
		s := tr.begin("serve.Session.Getattr", "serve")
		a, err := w.sess.Getattr(ctx, h)
		tr.end(s)
		if err != nil {
			return err
		}
		if a.IsDir || a.Size != wmFileBlocks*wmBlock {
			return fmt.Errorf("getattr file %d: dir=%v size=%d", o.file, a.IsDir, a.Size)
		}
		return nil

	case wmRead:
		buf := w.rbuf[lane]
		s := tr.begin("serve.Session.Read", "serve")
		n, err := w.sess.Read(ctx, h, off, buf)
		tr.end(s)
		if err != nil {
			return err
		}
		if n != wmBlock {
			return errShortIO
		}
		if int(o.block)%wmLanes == lane {
			return w.oracle.checkStamp(buf, o.id())
		}
		// The other lane may be rewriting this block: its version is
		// not ours to know, but identity and wholeness are.
		if id, _, ok := stampOf(buf); !ok || id != o.id() {
			return fmt.Errorf("block %d: read id %d (torn=%v)", o.id(), id, !ok)
		}
		return nil

	default:
		buf := w.wbuf[lane]
		v := w.oracle.next(buf, o.id())
		s := tr.begin("serve.Session.Write", "serve")
		n, err := w.sess.Write(ctx, h, off, buf)
		tr.end(s)
		if err != nil {
			return err
		}
		if n != wmBlock {
			return errShortIO
		}
		w.oracle.ver[o.id()] = v
		return nil
	}
}

// verify reads every block back over the wire.
func (w *wireMixed) verify() error {
	ctx := context.Background()
	buf := w.rbuf[0]
	for f, h := range w.handles {
		for k := 0; k < wmFileBlocks; k++ {
			if n, err := w.sess.Read(ctx, h, int64(k)*wmBlock, buf); err != nil || n != wmBlock {
				return fmt.Errorf("read file %d block %d: n=%d err=%v", f, k, n, err)
			}
			if err := w.oracle.checkFull(buf, f*wmFileBlocks+k); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayDirect runs ops [from, from+n) of the lane's stream straight on
// the mount, files held open as the server's file cache would hold
// them, writes re-storing the version the oracle already has. What the
// wire added to these ops is the client-observed time minus this.
func (w *wireMixed) replayDirect(lane, from, n int) (time.Duration, error) {
	c, ok := w.inst.NewClient(0).(fsapi.HandleClient)
	if !ok {
		return 0, fmt.Errorf("%s has no handle client", w.inst.Name())
	}
	var files [wmFiles]fsapi.File
	for f, h := range w.handles {
		file, err := c.OpenByHandle(h, true)
		if err != nil {
			return 0, err
		}
		defer file.Close()
		files[f] = file
	}
	rbuf, wbuf := w.rbuf[lane], w.wbuf[lane]
	start := time.Now()
	for i := from; i < from+n; i++ {
		o := w.streams[lane][i&(wmStreamLen-1)]
		off := int64(o.block) * wmBlock
		var err error
		switch o.kind {
		case wmGetattr:
			_, err = c.StatByHandle(w.handles[o.file])
		case wmRead:
			_, err = files[o.file].ReadAt(rbuf, off)
		default:
			stamp(wbuf, o.id(), w.oracle.ver[o.id()])
			_, err = files[o.file].WriteAt(wbuf, off)
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (w *wireMixed) controller() *controller.Controller { return w.inst.Ctl }

func (w *wireMixed) close() {
	if w.sess != nil {
		w.sess.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.conns.Wait()
	if w.inst != nil {
		w.inst.Close()
	}
}
