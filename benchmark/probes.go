package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"trio/internal/alloc"
	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/delegation"
	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/index"
	"trio/internal/journal"
	"trio/internal/libfs"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/ring"
	"trio/internal/serve"
	"trio/internal/verifier"
)

// Probes time one layer at a time, from outside, through its public
// functions: a tight loop of n calls is one batch, the metric is the
// median over the batches of a batch's time per call. They say what a
// layer costs in isolation; the traced run says how often the workloads
// go there.

// probe is one per-layer micro-measurement.
type probe struct {
	name string
	// us reports the metric in microseconds per call; the default is
	// nanoseconds.
	us bool
	// maxN caps a batch where each call consumes something prepare must
	// give back (names, pages); 0 means no cap.
	maxN int
	// prepare runs untimed before every batch of n calls.
	prepare func(n int) error
	// run makes n calls.
	run func(n int) error
}

// probeBatchTarget is how long a batch is grown to before it is timed,
// long enough that the two clock reads around it vanish.
const probeBatchTarget = time.Millisecond

func (p probe) batch(n int) (time.Duration, error) {
	if p.prepare != nil {
		if err := p.prepare(n); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	err := p.run(n)
	return time.Since(start), err
}

// measure sizes the batch, then returns the median time per call.
func (p probe) measure(batches int) (float64, error) {
	n := 1
	for {
		d, err := p.batch(n)
		if err != nil {
			return 0, err
		}
		if d >= probeBatchTarget || (p.maxN > 0 && n >= p.maxN) || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, batches)
	for b := range per {
		d, err := p.batch(n)
		if err != nil {
			return 0, err
		}
		per[b] = float64(d.Nanoseconds()) / float64(n)
		if p.us {
			per[b] /= 1e3
		}
	}
	return median(per), nil
}

// runProbes measures every probe and returns the values by metric
// name. A failing probe reports 0 and a line on log; it does not stop
// the others.
func runProbes(batches int, log io.Writer) map[string]float64 {
	out := make(map[string]float64)
	worlds := []func() ([]probe, func(), error){deviceProbes, indexAllocProbes, libfsProbes, sharingProbes}
	for _, build := range worlds {
		probes, done, err := build()
		if err != nil {
			fmt.Fprintf(log, "# probes: %v\n", err)
			continue
		}
		for _, p := range probes {
			v, err := p.measure(batches)
			if err != nil {
				fmt.Fprintf(log, "# probe %s: %v\n", p.name, err)
			}
			out[p.name] = v
		}
		done()
	}
	return out
}

var probeSink uint64

// each turns one call into a batch of n.
func each(f func() error) func(int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	}
}

const probeDevPages = 4096

// pageWalk steps through a device's pages with a stride coprime to the
// page count, so successive calls touch different cache sets.
type pageWalk struct {
	p, limit nvm.PageID
}

func (w *pageWalk) next() nvm.PageID {
	w.p = (w.p + 769) % w.limit
	return w.p
}

// deviceProbes covers the layers that need nothing but a raw device:
// nvm, mmu, journal, core checksums and delegation.
func deviceProbes() ([]probe, func(), error) {
	dev, _, err := newDevice(probeDevPages)
	if err != nil {
		return nil, nil, err
	}
	total := dev.NumPages()
	buf := make([]byte, nvm.PageSize)
	big := make([]byte, 1<<20)
	bigPages := nvm.PageID(len(big) / nvm.PageSize)
	anyPage := &pageWalk{limit: total}
	// Range accesses start low enough to stay on the device; journal and
	// checksum probes stay below the checksum table at its end.
	low := &pageWalk{limit: core.ChecksumBase(total) - bigPages}

	as := mmu.NewAddressSpace(dev, 0)
	as.Map(0, int(total), mmu.PermWrite)
	scratch := mmu.NewAddressSpace(dev, 0)
	mem := core.Direct(dev, 0)
	jr, err := journal.New(mem, 8)
	if err != nil {
		return nil, nil, err
	}
	pool := delegation.NewPool(dev, 1)

	probes := []probe{
		{name: "nvm.read_4k_ns", run: each(func() error { return dev.ReadAt(0, anyPage.next(), 0, buf) })},
		{name: "nvm.write_4k_ns", run: each(func() error { return dev.WriteAt(0, anyPage.next(), 0, buf) })},
		{name: "nvm.persist_4k_ns", run: each(func() error { return dev.Persist(anyPage.next(), 0, nvm.PageSize) })},
		{name: "nvm.fence_ns", run: each(func() error { dev.Fence(); return nil })},
		{name: "nvm.read_range_1m_us", us: true, run: each(func() error { return dev.ReadRange(0, low.next(), 0, big) })},

		{name: "mmu.read_4k_ns", run: each(func() error { return as.Read(anyPage.next(), 0, buf) })},
		{name: "mmu.map_unmap_64_ns", run: each(func() error {
			p := low.next()
			scratch.Map(p, 64, mmu.PermRead)
			scratch.Unmap(p, 64)
			return nil
		})},
		{name: "mmu.shootdown_ns", run: each(func() error { as.WithShootdownBarrier(func() {}); return nil })},

		{name: "journal.tx_1undo_ns", run: each(func() error {
			tx := jr.Begin()
			if err := tx.LogUndo(low.next()+16, 0, 64); err != nil {
				return err
			}
			if err := tx.Seal(); err != nil {
				return err
			}
			return tx.Commit()
		})},
		{name: "core.page_crc_ns", run: each(func() error { probeSink += uint64(core.PageCRC(buf)); return nil })},
		{name: "core.checksum_seal_ns", run: each(func() error {
			p := low.next()
			if _, err := core.OpenChecksum(mem, total, p); err != nil {
				return err
			}
			return core.SealChecksum(mem, total, p, 0xfeed)
		})},

		{name: "delegation.inline_4k_ns", run: each(func() error {
			b := pool.NewBatch(as, len(buf), false, false)
			b.Read(anyPage.next(), 0, buf)
			err := b.Wait()
			b.Release()
			return err
		})},
		{name: "delegation.read_1m_us", us: true, run: each(func() error {
			b := pool.NewBatch(as, len(big), false, false)
			b.ReadRange(low.next(), 0, big)
			err := b.Wait()
			b.Release()
			return err
		})},
		{name: "delegation.write_1m_us", us: true, run: each(func() error {
			b := pool.NewBatch(as, len(big), true, true)
			b.WriteRange(low.next(), 0, big)
			err := b.Wait()
			b.Release()
			return err
		})},
	}
	return probes, pool.Close, nil
}

// indexAllocProbes covers the DRAM-only layers: the radix tree and hash
// map of the index, the page and inode allocators, and the rings.
func indexAllocProbes() ([]probe, func(), error) {
	const keys = 16384
	radix := index.NewRadix()
	for k := uint64(0); k < keys; k++ {
		radix.Put(k, k+1)
	}
	var fresh *index.Radix
	ext := make([]index.Extent, 0, 256)

	names := make([]string, 512)
	dir := index.NewMap[int]()
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
		dir.Put(names[i], i)
	}

	pages := alloc.NewPageAlloc(16, 32768, 2)
	inos := alloc.NewInoAlloc(2, 2)

	sq := ring.New[uint64](ring.SQ, 256)
	cq := ring.New[uint64](ring.CQ, 256)
	drained := make([]ring.Entry[uint64], 8)

	k := uint64(0)
	nextKey := func() uint64 { k = (k + 7919) % keys; return k }
	probes := []probe{
		{name: "index.radix_get_ns", run: func(n int) error {
			for i := 0; i < n; i++ {
				probeSink += radix.Get(nextKey())
			}
			return nil
		}},
		{name: "index.radix_range_256_ns", run: func(n int) error {
			for i := 0; i < n; i++ {
				ext = radix.GetRange(nextKey()%(keys-256), 256, ext[:0])
			}
			return nil
		}},
		{name: "index.radix_insert_ns", maxN: 1 << 16,
			prepare: func(int) error { fresh = index.NewRadix(); return nil },
			run: func(n int) error {
				for i := 0; i < n; i++ {
					fresh.Put(uint64(i), uint64(i)+1)
				}
				return nil
			}},
		{name: "index.map_get_ns", run: func(n int) error {
			for i := 0; i < n; i++ {
				v, _ := dir.Get(names[i&511])
				probeSink += uint64(v)
			}
			return nil
		}},
		{name: "index.map_put_delete_ns", run: func(n int) error {
			for i := 0; i < n; i++ {
				dir.Put("transient", i)
				dir.Delete("transient")
			}
			return nil
		}},

		{name: "alloc.page_alloc_free_ns", run: func(n int) error {
			for i := 0; i < n; i++ {
				got, err := pages.AllocPages(0, 1)
				if err != nil {
					return err
				}
				pages.FreePages(got)
			}
			return nil
		}},
		{name: "alloc.run_64_alloc_free_ns", run: func(n int) error {
			for i := 0; i < n; i++ {
				got, err := pages.AllocPages(0, 64)
				if err != nil {
					return err
				}
				pages.FreePages(got)
			}
			return nil
		}},
		{name: "alloc.ino_alloc_ns", run: func(n int) error {
			for i := 0; i < n; i++ {
				probeSink += inos.Alloc(0)
			}
			return nil
		}},

		{name: "ring.submit_complete_ns", run: func(n int) error {
			for i := 0; i < n; i++ {
				if err := sq.Submit(1, uint64(i)); err != nil {
					return err
				}
				if got, _ := sq.Drain(drained); got != 1 {
					return fmt.Errorf("submission ring drained %d entries, want 1", got)
				}
				if err := cq.Submit(1, drained[0].Val); err != nil {
					return err
				}
				if got, _ := cq.Drain(drained); got != 1 {
					return fmt.Errorf("completion ring drained %d entries, want 1", got)
				}
			}
			return nil
		}},
	}
	return probes, func() {}, nil
}

const probeNames = 4096

// libfsProbes times single fsapi calls on a mounted ArckFS, and single
// RPCs at depth 1 on a serve.Session over the same mount.
func libfsProbes() ([]probe, func(), error) {
	inst, err := fsfactory.New("arckfs", arckfsConfig(32768))
	if err != nil {
		return nil, nil, err
	}
	c := inst.NewClient(0)
	hc, ok := c.(fsapi.HandleClient)
	if !ok {
		inst.Close()
		return nil, nil, fmt.Errorf("%s has no handle client", inst.Name())
	}
	fail := func(err error) ([]probe, func(), error) {
		inst.Close()
		return nil, nil, err
	}

	const fileBlocks = 1024 // 4 MiB
	buf := make([]byte, nvm.PageSize)
	big := make([]byte, 16<<10)
	data, err := c.Create("/probe", 0o644)
	if err != nil {
		return fail(err)
	}
	for b := 0; b < fileBlocks; b++ {
		if _, err := data.Append(buf); err != nil {
			return fail(err)
		}
	}
	grow, err := c.Create("/grow", 0o644)
	if err != nil {
		return fail(err)
	}
	for _, d := range []string{"/c", "/u", "/r", "/l"} {
		if err := c.Mkdir(d, 0o755); err != nil {
			return fail(err)
		}
	}
	touch := func(path string) error {
		f, err := c.Create(path, 0o644)
		if err != nil {
			return err
		}
		return f.Close()
	}
	for i := 0; i < 256; i++ {
		if err := touch(fmt.Sprintf("/l/f%03d", i)); err != nil {
			return fail(err)
		}
	}
	if err := touch("/r/a"); err != nil {
		return fail(err)
	}
	info, err := c.Stat("/probe")
	if err != nil {
		return fail(err)
	}
	handle := fsapi.Handle{Ino: info.Ino}
	created := make([]string, probeNames)
	doomed := make([]string, probeNames)
	for i := range created {
		created[i] = fmt.Sprintf("/c/n%04d", i)
		doomed[i] = fmt.Sprintf("/u/n%04d", i)
	}
	live := 0 // names of created[] that exist

	srv, err := serve.NewServer(inst, serve.Options{Workers: 2})
	if err != nil {
		return fail(err)
	}
	served := make(chan struct{})
	sess, err := serve.NewSession(func() (io.ReadWriteCloser, error) {
		a, b := serve.NewDuplex(1 << 20)
		go func() {
			srv.ServeConn(a)
			close(served)
		}()
		return b, nil
	}, serve.SessionOptions{ClientID: 1})
	if err != nil {
		return fail(err)
	}
	done := func() {
		sess.Close()
		srv.Close()
		<-served
		inst.Close()
	}
	ctx := context.Background()
	wireFile, _, err := sess.Lookup(ctx, sess.Root(), "probe")
	if err != nil {
		done()
		return nil, nil, err
	}

	blk := 0
	nextOff := func() int64 { blk = (blk + 389) % fileBlocks; return int64(blk) * nvm.PageSize }
	bigOff := func() int64 { return nextOff() &^ (int64(len(big)) - 1) }
	flip := false
	frame := make([]byte, 0, len(big)+64)
	var rd bytes.Reader
	var frameBuf []byte

	probes := []probe{
		{name: "libfs.read_4k_ns", run: each(func() error { _, err := data.ReadAt(buf, nextOff()); return err })},
		{name: "libfs.write_4k_ns", run: each(func() error { _, err := data.WriteAt(buf, nextOff()); return err })},
		{name: "libfs.append_4k_ns", maxN: 2048,
			prepare: func(int) error { return grow.Truncate(0) },
			run:     each(func() error { _, err := grow.Append(buf); return err })},
		{name: "libfs.create_ns", maxN: probeNames,
			prepare: func(int) error {
				for ; live > 0; live-- {
					if err := c.Unlink(created[live-1]); err != nil {
						return err
					}
				}
				return nil
			},
			run: func(n int) error {
				for ; live < n; live++ {
					f, err := c.Create(created[live], 0o644)
					if err != nil {
						return err
					}
					f.Close()
				}
				return nil
			}},
		{name: "libfs.open_close_ns", run: each(func() error {
			f, err := c.Open("/probe", false)
			if err != nil {
				return err
			}
			return f.Close()
		})},
		{name: "libfs.stat_ns", run: each(func() error { _, err := c.Stat("/probe"); return err })},
		{name: "libfs.rename_ns", run: each(func() error {
			from, to := "/r/a", "/r/b"
			if flip {
				from, to = to, from
			}
			flip = !flip
			return c.Rename(from, to)
		})},
		{name: "libfs.unlink_ns", maxN: probeNames,
			prepare: func(n int) error {
				for i := 0; i < n; i++ {
					if err := touch(doomed[i]); err != nil {
						return err
					}
				}
				return nil
			},
			run: func(n int) error {
				for i := 0; i < n; i++ {
					if err := c.Unlink(doomed[i]); err != nil {
						return err
					}
				}
				return nil
			}},
		{name: "libfs.readdir_256_us", us: true, run: each(func() error {
			names, err := c.ReadDir("/l")
			if err == nil && len(names) != 256 {
				err = fmt.Errorf("readdir returned %d names, want 256", len(names))
			}
			return err
		})},
		{name: "libfs.open_by_handle_ns", run: each(func() error {
			f, err := hc.OpenByHandle(handle, false)
			if err != nil {
				return err
			}
			return f.Close()
		})},

		{name: "serve.codec_frame_16k_ns", run: each(func() error {
			frame = serve.BeginFrame(frame[:0], 7, uint8(serve.ProcWrite))
			frame = serve.AppendHandle(frame, handle)
			frame = binary.LittleEndian.AppendUint64(frame, 4096)
			frame = serve.EndFrame(serve.AppendBytes(frame, big), 0)
			rd.Reset(frame)
			fr, nb, err := serve.ReadFrame(&rd, frameBuf)
			frameBuf = nb
			if err != nil {
				return err
			}
			d := serve.NewDec(fr.Body)
			d.Handle()
			d.U64()
			probeSink += uint64(len(d.Bytes()))
			return d.Err()
		})},
		{name: "serve.rpc_getattr_us", us: true, run: each(func() error { _, err := sess.Getattr(ctx, wireFile); return err })},
		{name: "serve.rpc_read_16k_us", us: true, run: each(func() error { _, err := sess.Read(ctx, wireFile, bigOff(), big); return err })},
		{name: "serve.rpc_write_16k_us", us: true, run: each(func() error { _, err := sess.Write(ctx, wireFile, bigOff(), big); return err })},
	}
	return probes, done, nil
}

// openEnv answers the verifier the way the controller would for a file
// the checked LibFS created itself and nobody else touched: every page
// is the file's own, every child inode is known, the creator's
// credentials are the ground truth.
type openEnv struct {
	total    uint64
	uid, gid uint32
}

func (e openEnv) TotalPages() uint64                          { return e.total }
func (e openEnv) PageInFile(nvm.PageID) bool                  { return true }
func (e openEnv) PageAllocated(nvm.PageID) bool               { return false }
func (e openEnv) PageOwner(nvm.PageID) (core.Ino, bool)       { return 0, false }
func (e openEnv) InoKnown(core.Ino) bool                      { return true }
func (e openEnv) InoAllocated(core.Ino) bool                  { return false }
func (e openEnv) Shadow(core.Ino) (verifier.ShadowInfo, bool) { return verifier.ShadowInfo{}, false }
func (e openEnv) CredFor(core.Ino) (uint32, uint32)           { return e.uid, e.gid }
func (e openEnv) CheckpointChildren() ([]verifier.ChildRef, bool) {
	return nil, false
}
func (e openEnv) DirDeletedOK(core.Ino) bool { return true }

// sharingProbes times what moving write access costs, on the
// controller.Session interface itself, and the verifier on the two file
// shapes the workloads hand it: a 2 MiB regular file and a 256-entry
// directory.
func sharingProbes() ([]probe, func(), error) {
	dev, _, err := newDevice(8192)
	if err != nil {
		return nil, nil, err
	}
	ctl, err := controller.New(dev, controller.Options{CPUs: 2})
	if err != nil {
		return nil, nil, err
	}
	const uid, gid = 1000, 1000
	maker, err := libfs.New(ctl.Register(uid, gid, 0, 1), libfs.Config{CPUs: 2})
	if err != nil {
		return nil, nil, err
	}
	c := maker.NewClient(0)
	f, err := c.Create("/big", 0o666)
	if err != nil {
		return nil, nil, err
	}
	buf := make([]byte, nvm.PageSize)
	for b := 0; b < 512; b++ {
		if _, err := f.Append(buf); err != nil {
			return nil, nil, err
		}
	}
	if err := c.Mkdir("/dir", 0o777); err != nil {
		return nil, nil, err
	}
	for i := 0; i < 256; i++ {
		e, err := c.Create(fmt.Sprintf("/dir/f%03d", i), 0o644)
		if err != nil {
			return nil, nil, err
		}
		e.Close()
	}
	big, err := maker.Hooks().NodeEntry("/big")
	if err != nil {
		return nil, nil, err
	}
	dir, err := maker.Hooks().NodeEntry("/dir")
	if err != nil {
		return nil, nil, err
	}
	// Closing the creating mount hands everything to the controller,
	// verified; the probes then map through bare sessions.
	if err := maker.Close(); err != nil {
		return nil, nil, err
	}
	sess := [2]*controller.Session{ctl.Register(uid, gid, 0, 2), ctl.Register(uid, gid, 0, 3)}
	cycle := func(s *controller.Session) error {
		if _, err := s.MapFile(big.Ino, big.Loc, true); err != nil {
			return err
		}
		return s.UnmapFile(big.Ino)
	}

	v := verifier.New(dev)
	env := openEnv{total: uint64(dev.NumPages()), uid: uid, gid: gid}
	var rep verifier.Report
	verify := func(e libfs.Entry) error {
		if err := v.VerifyFileInto(&rep, env, e.Ino, e.Loc, false); err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("verifier probe: ino %d: %v", e.Ino, rep.Violations)
		}
		return nil
	}

	turn := 0
	probes := []probe{
		{name: "controller.map_unmap_same_domain_us", us: true, run: each(func() error { return cycle(sess[0]) })},
		{name: "controller.map_unmap_cross_domain_us", us: true, run: each(func() error { turn ^= 1; return cycle(sess[turn]) })},
		{name: "verifier.verify_file_2m_us", us: true, run: each(func() error { return verify(big) })},
		{name: "verifier.verify_dir_256_us", us: true, run: each(func() error { return verify(dir) })},
	}
	done := func() {
		for _, s := range sess {
			s.Close()
		}
	}
	return probes, done, nil
}
