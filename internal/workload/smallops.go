// The small-op driver (ISSUE 8): the trust-boundary latency stressor
// behind `trio-bench -experiment smallops`. Like the tenancy driver it
// speaks the Session protocol directly — its subject is the cost of
// crossing into the trusted controller, so every cycle is dominated by
// map/unmap traffic on tiny files rather than data movement. Three
// modes cover the boundary-heavy paths batched crossings are supposed
// to cheapen:
//
//   - append: map-write / 4K store+persist / unmap on small private
//     files — the classic O_APPEND log pattern;
//   - create: create a fresh empty file (dirent publish + adopting
//     map-write), unlink it (unmap + dirent retire), retire inos with
//     batched RemoveFiles — metadata churn with no data at all;
//   - mapunmap: bare read map/unmap churn on private files — the
//     purest boundary-crossing measure there is.
//
// Every thread drives a WINDOW of independent files through the
// map/unmap protocol at once, the way a LibFS batches its resource
// calls (§4.5): one MapFile/UnmapFile per file, or — Batched — one
// MapFiles/UnmapFiles per window. The two arms differ only in how the
// window crosses the trust boundary.
//
// Every thread holds its private directory write-mapped for the whole
// measured phase. That is deliberate and load-bearing: the dirent page
// then always carries a write reference, so the controller's
// quiescent-seal pass skips it on every child unmap and the cycle cost
// stays boundary-dominated instead of checksum-dominated.
package workload

import (
	"errors"
	"fmt"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/nvm"
)

// SmallOpsSpec configures the small-op driver.
type SmallOpsSpec struct {
	// Threads is the number of concurrent sessions, each with a private
	// directory.
	Threads int
	// OpsPerThread is the measured cycle count per thread.
	OpsPerThread int
	// Mode is one of "append", "create", "mapunmap".
	Mode string
	// Window is how many independent files each thread maps, then
	// unmaps, at a time (capped at SlotsPerDirPage).
	Window int
	// Batched crosses the boundary once per window (MapFiles/UnmapFiles)
	// instead of once per file.
	Batched bool
	// FilePages sizes each private file for append/mapunmap modes.
	FilePages int
	// RemoveBatch is the create-mode RemoveFiles batch width (§4.5).
	RemoveBatch int
	// Seed makes the store pattern reproducible.
	Seed int64
}

func (s *SmallOpsSpec) fill() {
	if s.Threads <= 0 {
		s.Threads = 16
	}
	if s.OpsPerThread <= 0 {
		s.OpsPerThread = 400
	}
	if s.Mode == "" {
		s.Mode = "append"
	}
	if s.Window <= 0 {
		s.Window = 8
	}
	if s.Window > core.SlotsPerDirPage {
		s.Window = core.SlotsPerDirPage
	}
	if s.FilePages <= 0 {
		s.FilePages = 2
	}
	if s.RemoveBatch <= 0 {
		s.RemoveBatch = 8
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// DevicePages reports a device size (in pages) that fits the spec.
func (s SmallOpsSpec) DevicePages() int {
	spec := s
	spec.fill()
	// Per thread: dir index + dirent page, Window files of
	// (index + FilePages) each.
	perThread := 2 + spec.Window*(1+spec.FilePages)
	rootDirent := (spec.Threads + core.SlotsPerDirPage - 1) / core.SlotsPerDirPage
	rootIndex := (rootDirent + core.IndexEntriesPerPage - 1) / core.IndexEntriesPerPage
	need := int(core.FirstFilePage) + 1 + rootIndex + rootDirent + 2 + spec.Threads*perThread
	need += need / 4 // allocator slack
	return need * core.ChecksumRecordsPerPage / (core.ChecksumRecordsPerPage - 1)
}

// SmallOpsResult is the driver outcome. Ops counts controller boundary
// operations (maps + unmaps + batched removes), the same count on both
// arms.
type SmallOpsResult struct {
	Result
	Mode string
	// Cycles is the number of completed workload cycles (one
	// append / create+unlink / map+unmap round trip).
	Cycles int64
}

// CyclesPerSec reports workload cycles per second.
func (r SmallOpsResult) CyclesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Cycles) / r.Elapsed.Seconds()
}

// soFile is one pre-built private file.
type soFile struct {
	ino   core.Ino
	loc   core.FileLoc
	pages []nvm.PageID
}

// soThread is one thread's working set, built during setup.
type soThread struct {
	sess       *controller.Session
	batched    bool
	out        []controller.MapRes // batched verdict scratch, Window long
	errs       []error
	dirIno     core.Ino
	dirLoc     core.FileLoc
	direntPage nvm.PageID // the dir's single dirent page, write-held
	files      []soFile   // append/mapunmap: Window private files
	inos       []core.Ino // create: pre-allocated child inos
}

// RunSmallOps lays out the per-thread tree (not timed), then drives the
// measured small-op phase across all threads at once.
func RunSmallOps(c *controller.Controller, spec SmallOpsSpec) (SmallOpsResult, error) {
	spec.fill()
	threads, err := smallOpsSetup(c, spec)
	if err != nil {
		return SmallOpsResult{}, err
	}

	var body func(t *soThread) (ops, cycles, bytes int64, err error)
	switch spec.Mode {
	case "append":
		body = func(t *soThread) (int64, int64, int64, error) { return smallOpsAppend(t, spec) }
	case "create":
		body = func(t *soThread) (int64, int64, int64, error) { return smallOpsCreate(t, spec) }
	case "mapunmap":
		body = func(t *soThread) (int64, int64, int64, error) { return smallOpsMapUnmap(t, spec) }
	default:
		return SmallOpsResult{}, fmt.Errorf("smallops: unknown mode %q", spec.Mode)
	}

	cycleCount := make([]int64, spec.Threads)
	ops, bytes, elapsed, err := runThreads(spec.Threads, func(tid int) (int64, int64, error) {
		ops, cycles, bytes, err := body(&threads[tid])
		cycleCount[tid] = cycles
		return ops, bytes, err
	})
	if err != nil {
		return SmallOpsResult{}, err
	}
	var cycles int64
	for _, n := range cycleCount {
		cycles += n
	}

	// Teardown (not timed): release the held dir maps, close sessions.
	for i := range threads {
		t := &threads[i]
		_ = t.sess.UnmapFile(t.dirIno)
		t.sess.Close()
	}

	return SmallOpsResult{
		Result: Result{
			Workload: "smallops-" + spec.Mode,
			FS:       "trio-ctl",
			Threads:  spec.Threads,
			Ops:      ops,
			Bytes:    bytes,
			Elapsed:  elapsed,
		},
		Mode:   spec.Mode,
		Cycles: cycles,
	}, nil
}

// mapAll maps one window, per call or as one batch; the first error wins.
func (t *soThread) mapAll(reqs []controller.MapReq) error {
	if !t.batched {
		for _, r := range reqs {
			if _, err := t.sess.MapFile(r.Ino, r.Loc, r.Write); err != nil {
				return err
			}
		}
		return nil
	}
	if err := t.sess.MapFiles(reqs, t.out); err != nil {
		return err
	}
	for i := range reqs {
		if t.out[i].Err != nil {
			return t.out[i].Err
		}
	}
	return nil
}

// unmapAll is mapAll's unmap counterpart.
func (t *soThread) unmapAll(inos []core.Ino) error {
	if !t.batched {
		for _, ino := range inos {
			if err := t.sess.UnmapFile(ino); err != nil {
				return err
			}
		}
		return nil
	}
	if err := t.sess.UnmapFiles(inos, t.errs); err != nil {
		return err
	}
	return errors.Join(t.errs[:len(inos)]...)
}

// window returns the thread's private files as one window of requests.
func (t *soThread) window(write bool) ([]controller.MapReq, []core.Ino) {
	reqs, inos := make([]controller.MapReq, len(t.files)), make([]core.Ino, len(t.files))
	for j, f := range t.files {
		reqs[j], inos[j] = controller.MapReq{Ino: f.ino, Loc: f.loc, Write: write}, f.ino
	}
	return reqs, inos
}

// smallOpsAppend: a window of map-writes, a 4K store + persist + size
// bump per file through the held dir mapping, a window of unmaps.
func smallOpsAppend(t *soThread, spec SmallOpsSpec) (ops, cycles, bytes int64, err error) {
	as := t.sess.AddressSpace()
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(spec.Seed + int64(i))
	}
	w := len(t.files)
	reqs, inos := t.window(true)
	for done := 0; done < spec.OpsPerThread; done += w {
		n := spec.OpsPerThread - done
		if n > w {
			n = w
		}
		if err := t.mapAll(reqs[:n]); err != nil {
			return 0, 0, 0, fmt.Errorf("append map: %w", err)
		}
		ops += int64(n)
		for j := 0; j < n; j++ {
			f := &t.files[j]
			round := (done / w) % len(f.pages)
			p := f.pages[round]
			if err := as.Write(p, 0, buf); err != nil {
				return 0, 0, 0, fmt.Errorf("append store: %w", err)
			}
			if err := as.Persist(p, 0, len(buf)); err != nil {
				return 0, 0, 0, err
			}
			as.Fence()
			// The "append" metadata commit: size/mtime through the held
			// parent mapping, no extra boundary crossing.
			sz := uint64(round+1) * nvm.PageSize
			if err := core.UpdateInodeSizeMtime(as, f.loc, sz, uint64(done)); err != nil {
				return 0, 0, 0, err
			}
			bytes += int64(len(buf))
		}
		if err := t.unmapAll(inos[:n]); err != nil {
			return 0, 0, 0, fmt.Errorf("append unmap: %w", err)
		}
		ops += int64(n)
		cycles += int64(n)
	}
	return ops, cycles, bytes, nil
}

// smallOpsCreate: publish a window of fresh empty files in the held
// dir, adopt them with map-writes, unmap them, retire the dirents, and
// batch the RemoveFiles calls. The LibFS-side dirent work is direct
// memory (the dir mapping is held); the boundary traffic is the
// adopting maps, the unmaps (each a verification round), and one
// removal trap per RemoveBatch files.
func smallOpsCreate(t *soThread, spec SmallOpsSpec) (ops, cycles, bytes int64, err error) {
	as := t.sess.AddressSpace()
	w := spec.Window
	reqs := make([]controller.MapReq, w)
	batch := make([]controller.Removal, 0, spec.RemoveBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := t.sess.RemoveFiles(batch); err != nil {
			return fmt.Errorf("create remove batch: %w", err)
		}
		ops++
		batch = batch[:0]
		return nil
	}
	uid, gid := t.sess.Cred()
	var dbuf [core.DirentSize]byte
	for done := 0; done < spec.OpsPerThread; done += w {
		n := spec.OpsPerThread - done
		if n > w {
			n = w
		}
		// Publish the window's dirent bodies, fence ONCE, then commit
		// each ino word: every commit is still ordered after its body's
		// persisted stores, but the window pays one fence, not n.
		for j := 0; j < n; j++ {
			in := core.Inode{
				Ino: t.inos[done+j], Type: core.TypeReg, Mode: 0o644,
				UID: uid, GID: gid, Head: nvm.NilPage,
			}
			if err := core.WriteDirentBody(as, t.direntPage, j, "f", &in, &dbuf); err != nil {
				return 0, 0, 0, fmt.Errorf("create dirent: %w", err)
			}
		}
		as.Fence()
		for j := 0; j < n; j++ {
			if err := core.CommitDirentIno(as, t.direntPage, j, t.inos[done+j]); err != nil {
				return 0, 0, 0, fmt.Errorf("create commit: %w", err)
			}
		}
		for j := 0; j < n; j++ {
			loc := core.FileLoc{Page: t.direntPage, Slot: j}
			reqs[j] = controller.MapReq{Ino: t.inos[done+j], Loc: loc, Write: true}
		}
		if err := t.mapAll(reqs[:n]); err != nil {
			return 0, 0, 0, fmt.Errorf("create map: %w", err)
		}
		ops += int64(n)
		if err := t.unmapAll(t.inos[done : done+n]); err != nil {
			return 0, 0, 0, fmt.Errorf("create unmap: %w", err)
		}
		ops += int64(n)
		for j := 0; j < n; j++ {
			// Unlink: retire the dirent (atomic ino store), batch the
			// controller-side removal.
			if err := core.CommitDirentIno(as, t.direntPage, j, 0); err != nil {
				return 0, 0, 0, err
			}
			batch = append(batch, controller.Removal{Ino: t.inos[done+j]})
			if len(batch) >= spec.RemoveBatch {
				if err := flush(); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		cycles += int64(n)
	}
	if err := flush(); err != nil {
		return 0, 0, 0, err
	}
	return ops, cycles, bytes, nil
}

// smallOpsMapUnmap: windows of bare read map/unmap churn — no stores,
// no dirent writes, nothing but boundary crossings.
func smallOpsMapUnmap(t *soThread, spec SmallOpsSpec) (ops, cycles, bytes int64, err error) {
	w := len(t.files)
	reqs, inos := t.window(false)
	for done := 0; done < spec.OpsPerThread; done += w {
		n := spec.OpsPerThread - done
		if n > w {
			n = w
		}
		if err := t.mapAll(reqs[:n]); err != nil {
			return 0, 0, 0, fmt.Errorf("mapunmap map: %w", err)
		}
		ops += int64(n)
		if err := t.unmapAll(inos[:n]); err != nil {
			return 0, 0, 0, fmt.Errorf("mapunmap unmap: %w", err)
		}
		ops += int64(n)
		cycles += int64(n)
	}
	return ops, cycles, bytes, nil
}

// smallOpsSetup builds the tree: a root session creates per-thread
// directories; each thread session then builds its own dir skeleton
// and private files and leaves the dir write-mapped (see the package
// comment for why). Not part of the measured window.
func smallOpsSetup(c *controller.Controller, spec SmallOpsSpec) ([]soThread, error) {
	root := c.Register(0, 0, 0, 1)
	defer root.Close()
	as := root.AddressSpace()
	info, err := root.MapFile(core.RootIno, core.RootLoc(), true)
	if err != nil {
		return nil, fmt.Errorf("smallops setup: map root: %w", err)
	}
	if info.Inode.Head != nvm.NilPage {
		return nil, fmt.Errorf("smallops setup: root not empty (run on a fresh device)")
	}

	nDirent := (spec.Threads + core.SlotsPerDirPage - 1) / core.SlotsPerDirPage
	nIndex := (nDirent + core.IndexEntriesPerPage - 1) / core.IndexEntriesPerPage
	pages, err := root.AllocPages(0, nIndex+nDirent)
	if err != nil {
		return nil, fmt.Errorf("smallops setup: alloc root pages: %w", err)
	}
	for _, p := range pages {
		if err := as.Write(p, 0, zeroPage()); err != nil {
			return nil, err
		}
	}
	index, dirents := pages[:nIndex], pages[nIndex:]
	for k, ip := range index {
		lo := k * core.IndexEntriesPerPage
		hi := lo + core.IndexEntriesPerPage
		if hi > nDirent {
			hi = nDirent
		}
		for i := lo; i < hi; i++ {
			if err := core.SetIndexEntry(as, ip, i-lo, dirents[i]); err != nil {
				return nil, err
			}
		}
		if k+1 < nIndex {
			if err := core.SetNextIndexPage(as, ip, index[k+1]); err != nil {
				return nil, err
			}
		}
	}
	rootInode := info.Inode
	rootInode.Head = index[0]
	if err := core.WriteInode(as, core.RootInodePage, core.SlotOffset(0), &rootInode); err != nil {
		return nil, err
	}
	as.Fence()

	inos, err := root.AllocInos(0, spec.Threads)
	if err != nil {
		return nil, fmt.Errorf("smallops setup: alloc dir inos: %w", err)
	}
	threads := make([]soThread, spec.Threads)
	for i := 0; i < spec.Threads; i++ {
		dp := dirents[i/core.SlotsPerDirPage]
		slot := i % core.SlotsPerDirPage
		in := core.Inode{Ino: inos[i], Type: core.TypeDir, Mode: 0o777, Head: nvm.NilPage}
		if err := writeDirent(as, dp, slot, fmt.Sprintf("d%d", i), &in); err != nil {
			return nil, err
		}
		threads[i].dirIno = in.Ino
		threads[i].dirLoc = core.FileLoc{Page: dp, Slot: slot}
	}
	if err := root.UnmapFile(core.RootIno); err != nil {
		return nil, fmt.Errorf("smallops setup: unmap root: %w", err)
	}

	_, _, _, err = runThreads(spec.Threads, func(tid int) (int64, int64, error) {
		t := &threads[tid]
		t.sess = c.Register(uint32(1000+tid), 1000, 0, controller.GroupID(2+tid))
		t.batched = spec.Batched
		t.out, t.errs = make([]controller.MapRes, spec.Window), make([]error, spec.Window)
		as := t.sess.AddressSpace()
		if _, err := t.sess.MapFile(t.dirIno, t.dirLoc, true); err != nil {
			return 0, 0, fmt.Errorf("map thread dir: %w", err)
		}
		// Directory skeleton: index page + one dirent page.
		fp, err := t.sess.AllocPages(tid, 2)
		if err != nil {
			return 0, 0, fmt.Errorf("alloc dir pages: %w", err)
		}
		dirHead, direntPage := fp[0], fp[1]
		for _, p := range []nvm.PageID{dirHead, direntPage} {
			if err := as.Write(p, 0, zeroPage()); err != nil {
				return 0, 0, err
			}
		}
		if err := core.SetIndexEntry(as, dirHead, 0, direntPage); err != nil {
			return 0, 0, err
		}
		if err := core.UpdateInodeHead(as, t.dirLoc, dirHead); err != nil {
			return 0, 0, err
		}
		t.direntPage = direntPage
		if spec.Mode == "create" {
			// Pre-allocate the whole run's child inos in one batched
			// (untimed) call; the measured phase only maps and removes.
			t.inos, err = t.sess.AllocInos(tid, spec.OpsPerThread)
			if err != nil {
				return 0, 0, err
			}
			as.Fence()
			return 0, 0, nil
		}
		// append/mapunmap: Window private files, each with an index
		// page and FilePages data pages, adopted (verified) outside the
		// measured window so the cycles measure steady-state remapping.
		finos, err := t.sess.AllocInos(tid, spec.Window)
		if err != nil {
			return 0, 0, err
		}
		perFile := 1 + spec.FilePages
		filePages, err := t.sess.AllocPages(tid, spec.Window*perFile)
		if err != nil {
			return 0, 0, fmt.Errorf("alloc file pages: %w", err)
		}
		t.files = make([]soFile, spec.Window)
		for j := 0; j < spec.Window; j++ {
			fp := filePages[j*perFile : (j+1)*perFile]
			head := fp[0]
			if err := as.Write(head, 0, zeroPage()); err != nil {
				return 0, 0, err
			}
			for i, p := range fp[1:] {
				if err := core.SetIndexEntry(as, head, i, p); err != nil {
					return 0, 0, err
				}
			}
			in := core.Inode{
				Ino: finos[j], Type: core.TypeReg, Mode: 0o644,
				UID: uint32(1000 + tid), GID: 1000,
				Size: uint64(spec.FilePages) * nvm.PageSize, Head: head,
			}
			if err := writeDirent(as, direntPage, j, fmt.Sprintf("f%d", j), &in); err != nil {
				return 0, 0, err
			}
			t.files[j] = soFile{
				ino:   in.Ino,
				loc:   core.FileLoc{Page: direntPage, Slot: j},
				pages: fp[1:],
			}
		}
		as.Fence()
		for j := range t.files {
			if _, err := t.sess.MapFile(t.files[j].ino, t.files[j].loc, false); err != nil {
				return 0, 0, fmt.Errorf("adopt thread file: %w", err)
			}
			if err := t.sess.UnmapFile(t.files[j].ino); err != nil {
				return 0, 0, err
			}
		}
		// The dir mapping is intentionally left held (see package doc).
		return 0, 0, nil
	})
	if err != nil {
		return nil, fmt.Errorf("smallops setup: %w", err)
	}
	return threads, nil
}
