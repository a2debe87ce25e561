// The massive-tenancy driver (ISSUE 6): an FxMark-style stressor for
// the sharded controller. Unlike the other drivers in this package it
// does not run over fsapi — its subject is the controller itself, so it
// speaks the Session protocol directly: thousands of concurrent tenant
// sessions, each its own trust group, doing map-write/rewrite/unmap
// cycles against a private file, with a zipfian sprinkle of contended accesses
// to a small set of hot shared files (which drives the lease-recall
// machinery) and random session death mid-run (which drives the
// per-shard reapers).
package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/nvm"
)

// TenancySpec configures the massive-tenancy driver.
type TenancySpec struct {
	// Sessions is the number of concurrent tenant sessions, each a
	// distinct trust group with a private directory and file.
	Sessions int
	// OpsPerSession is how many measured cycles each session runs; a
	// cycle is one MapFile + one UnmapFile (plus a rewrite of the whole
	// file on private cycles), so a session contributes 2*OpsPerSession
	// controller ops.
	OpsPerSession int
	// FilePages is the data-page count of each tenant's private file.
	FilePages int
	// HotFiles is the number of shared files all tenants contend on;
	// zipfian popularity concentrates the fights.
	HotFiles int
	// HotPages is the data-page count of each hot file.
	HotPages int
	// HotFrac is the fraction of cycles aimed at a hot file.
	HotFrac float64
	// HotDwell is how long a session sits on a hot write mapping before
	// unmapping — held past the lease time it provokes a recall.
	HotDwell time.Duration
	// DeathFrac is the fraction of sessions that abandon (die without
	// unregistering) at a random point mid-run and come back as a fresh
	// session in a new trust group.
	DeathFrac float64
	// Seed makes the popularity and death schedule reproducible.
	Seed int64
}

// Fill sets every unset field to its default.
func (s *TenancySpec) Fill() {
	if s.Sessions <= 0 {
		s.Sessions = 1000
	}
	if s.OpsPerSession <= 0 {
		s.OpsPerSession = 32
	}
	if s.FilePages <= 0 {
		s.FilePages = 32
	}
	if s.HotFiles <= 0 {
		s.HotFiles = 16
	}
	if s.HotPages <= 0 {
		s.HotPages = 8
	}
	if s.HotFrac < 0 {
		s.HotFrac = 0
	} else if s.HotFrac == 0 {
		s.HotFrac = 0.05
	}
	if s.HotDwell <= 0 {
		s.HotDwell = 2 * time.Millisecond
	}
	if s.DeathFrac == 0 {
		s.DeathFrac = 0.02
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// DevicePages reports a device size (in pages) that fits the spec:
// every tenant's directory (index + dirent page) and private file
// (index + FilePages), the hot files, the root directory's fan-out and
// the checksum table, plus allocator slack.
func (s TenancySpec) DevicePages() int {
	spec := s
	spec.Fill()
	perTenant := 2 + 1 + spec.FilePages
	rootDirent := (spec.Sessions + spec.HotFiles + core.SlotsPerDirPage - 1) / core.SlotsPerDirPage
	rootIndex := (rootDirent + core.IndexEntriesPerPage - 1) / core.IndexEntriesPerPage
	root := rootIndex + rootDirent + 2
	hot := spec.HotFiles * (1 + spec.HotPages)
	need := int(core.FirstFilePage) + 1 + root + hot + spec.Sessions*perTenant
	need += need / 8 // allocator slack
	// The checksum table claims 1/ChecksumRecordsPerPage of the device.
	return need * core.ChecksumRecordsPerPage / (core.ChecksumRecordsPerPage - 1)
}

// TenancyResult is the driver's outcome: the generic workload result
// plus the controller-side health numbers the tenancy experiment gates
// on. The JSON tags are the fields a tenancy point of BENCH_trio.json
// carries as they are.
type TenancyResult struct {
	Result
	Sessions int `json:"-"`
	Shards   int `json:"shards"`
	// Deaths is how many sessions were abandoned (and replaced) mid-run.
	Deaths int `json:"deaths"`
	// Recalls / Expiries are the measured-window lease-recall requests
	// and forcible expirations.
	Recalls  int64 `json:"recalls"`
	Expiries int64 `json:"expiries"`
	// RecallP99 is the 99th-percentile lease-recall latency: recall
	// request to the file coming free.
	RecallP99 time.Duration `json:"-"`
	// AdmitWaits counts calls that queued at a shard's admission gate.
	AdmitWaits int64 `json:"admit_waits"`
	// Reaps counts sessions reaped (dead sessions collected).
	Reaps int64 `json:"reaps"`
}

// CtlOpsPerSec reports controller operations per second.
func (r TenancyResult) CtlOpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// RunTenancy lays out the tenancy tree (not timed), then drives the
// measured map/store/unmap phase across all sessions at once.
func RunTenancy(c *controller.Controller, spec TenancySpec) (TenancyResult, error) {
	spec.Fill()
	tenants, hots, err := buildCtlTree(c, spec.Sessions, spec.HotFiles, spec.HotPages, 1, spec.FilePages,
		func(_ int, d *sessionDir) error {
			installRecallHandler(d.sess)
			if err := d.sess.UnmapFile(d.dirIno); err != nil {
				return fmt.Errorf("unmap tenant dir: %w", err)
			}
			return nil
		})
	if err != nil {
		return TenancyResult{}, err
	}

	before := c.Stats().Snapshot()
	var deaths atomic.Int64
	var nextGroup atomic.Uint32
	nextGroup.Store(uint32(2 + spec.Sessions))

	ops, bytes, elapsed, err := runThreads(spec.Sessions, func(tid int) (int64, int64, error) {
		t := &tenants[tid]
		f := &t.files[0]
		rng := rand.New(rand.NewSource(spec.Seed + int64(tid)*7919))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(hots)-1))
		deathAt := -1
		if rng.Float64() < spec.DeathFrac {
			deathAt = 1 + rng.Intn(spec.OpsPerSession)
		}
		buf := make([]byte, 4096)
		rng.Read(buf)
		var ops, bytes int64
		uid := uint32(1000 + tid)
		for op := 0; op < spec.OpsPerSession; op++ {
			if op == deathAt {
				// Die without cleaning up: the shard sweeper must reap
				// us. Come back as a brand-new trust domain and carry on
				// against the same file.
				t.sess.Abandon()
				deaths.Add(1)
				t.sess = c.Register(uid, 1000, 0, controller.GroupID(nextGroup.Add(1)))
				installRecallHandler(t.sess)
			}
			if rng.Float64() < spec.HotFrac {
				h := hots[zipf.Uint64()]
				if _, err := t.sess.MapFile(h.ino, h.loc, true); err != nil {
					// A quarantined or contended-to-death hot file is a
					// casualty of the fight, not a driver bug; skip.
					continue
				}
				ops++
				time.Sleep(spec.HotDwell)
				// The recall handler may have unmapped it already.
				if err := t.sess.UnmapFile(h.ino); err == nil {
					ops++
				}
				continue
			}
			if _, err := t.sess.MapFile(f.ino, f.loc, true); err != nil {
				return 0, 0, fmt.Errorf("tenant %d: map private file: %w", tid, err)
			}
			ops++
			// Rewrite the whole file: the unmap-time seal re-reads what
			// was stored to, so a full rewrite keeps the 32-page seal
			// stream — the modeled device time shard locks overlap —
			// that a one-page store no longer pays.
			as := t.sess.AddressSpace()
			for _, p := range f.pages {
				if err := as.Write(p, 0, buf); err != nil {
					return 0, 0, fmt.Errorf("tenant %d: store: %w", tid, err)
				}
				if err := as.Persist(p, 0, len(buf)); err != nil {
					return 0, 0, fmt.Errorf("tenant %d: persist: %w", tid, err)
				}
				bytes += int64(len(buf))
			}
			as.Fence()
			if err := t.sess.UnmapFile(f.ino); err != nil {
				return 0, 0, fmt.Errorf("tenant %d: unmap private file: %w", tid, err)
			}
			ops++
		}
		return ops, bytes, nil
	})
	if err != nil {
		return TenancyResult{}, err
	}

	// Teardown (not timed): close every surviving session.
	for i := range tenants {
		tenants[i].sess.Close()
	}

	stats := c.Stats()
	delta := stats.Snapshot().Sub(before)
	var admitWaits int64
	for _, sh := range delta.PerShard {
		admitWaits += sh.AdmitWaits
	}
	return TenancyResult{
		Result: Result{
			Workload: "tenancy",
			FS:       "trio-ctl",
			Threads:  spec.Sessions,
			Ops:      ops,
			Bytes:    bytes,
			Elapsed:  elapsed,
		},
		Sessions:   spec.Sessions,
		Shards:     stats.ShardCount(),
		Deaths:     int(deaths.Load()),
		Recalls:    delta.LeaseRecalls,
		Expiries:   delta.LeaseExpiries,
		RecallP99:  stats.RecallP99(),
		AdmitWaits: admitWaits,
		Reaps:      delta.Reaps,
	}, nil
}

// installRecallHandler makes the session a cooperative citizen: asked
// for a file back, it unmaps it. The handler runs on its own goroutine
// (the controller fires it asynchronously), racing benignly with the
// session's own unmap — whoever loses gets a not-mapped error.
func installRecallHandler(s *controller.Session) {
	s.SetRecallHandler(func(ino core.Ino) {
		_ = s.UnmapFile(ino)
	})
}

// sessionDir is one session's directory in the tree buildCtlTree lays
// out: its dirent, its one dirent page, and its private files.
type sessionDir struct {
	sess       *controller.Session
	dirIno     core.Ino
	dirLoc     core.FileLoc
	direntPage nvm.PageID
	files      []ctlFile
}

// ctlFile is one pre-built regular file.
type ctlFile struct {
	ino   core.Ino
	loc   core.FileLoc
	pages []nvm.PageID // data pages
}

// buildCtlTree lays out the raw-controller tree the tenancy and
// small-op workloads share, on a fresh device and outside any measured
// window. A root session fans the root directory out over enough dirent
// pages for one directory per session plus hotFiles world-writable
// files of hotPages data pages each, behind however many chained index
// pages that takes (one index page caps the root at 8k entries, well
// short of a 10k run). Then every session, its own trust group, maps
// its directory for write and builds in it, from one allocation, the
// directory skeleton (an index page and one dirent page) and files
// private files of filePages data pages; after the fence, ready runs on
// the session's goroutine with the directory still mapped.
func buildCtlTree(c *controller.Controller, sessions, hotFiles, hotPages, files, filePages int,
	ready func(tid int, d *sessionDir) error) ([]sessionDir, []ctlFile, error) {
	root := c.Register(0, 0, 0, 1)
	defer root.Close()
	as := root.AddressSpace()
	info, err := root.MapFile(core.RootIno, core.RootLoc(), true)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: map root: %w", err)
	}
	rootInode := info.Inode
	if rootInode.Head != nvm.NilPage {
		return nil, nil, fmt.Errorf("setup: root not empty (run on a fresh device)")
	}
	entries := sessions + hotFiles
	nDirent := (entries + core.SlotsPerDirPage - 1) / core.SlotsPerDirPage
	nIndex := (nDirent + core.IndexEntriesPerPage - 1) / core.IndexEntriesPerPage
	pages, err := root.AllocPages(0, nIndex+nDirent)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: alloc root pages: %w", err)
	}
	for _, p := range pages {
		if err := as.Write(p, 0, zeroPage()); err != nil {
			return nil, nil, err
		}
	}
	index, dirents := pages[:nIndex], pages[nIndex:]
	for k, ip := range index {
		lo := k * core.IndexEntriesPerPage
		hi := min(lo+core.IndexEntriesPerPage, nDirent)
		for i := lo; i < hi; i++ {
			if err := core.SetIndexEntry(as, ip, i-lo, dirents[i]); err != nil {
				return nil, nil, err
			}
		}
		if k+1 < nIndex {
			if err := core.SetNextIndexPage(as, ip, index[k+1]); err != nil {
				return nil, nil, err
			}
		}
	}
	rootInode.Head = index[0]
	if err := core.WriteInode(as, core.RootInodePage, core.SlotOffset(0), &rootInode); err != nil {
		return nil, nil, err
	}
	as.Fence()

	inos, err := root.AllocInos(0, entries)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: alloc inos: %w", err)
	}
	rootLoc := func(i int) core.FileLoc {
		return core.FileLoc{Page: dirents[i/core.SlotsPerDirPage], Slot: i % core.SlotsPerDirPage}
	}
	dirs := make([]sessionDir, sessions)
	for i := range dirs {
		// I4: a new file carries its creator's credentials — the root
		// session's, not the tenant's. Mode 777 lets the tenant in.
		in := core.Inode{Ino: inos[i], Type: core.TypeDir, Mode: 0o777, Head: nvm.NilPage}
		d := &dirs[i]
		d.dirIno, d.dirLoc = in.Ino, rootLoc(i)
		if err := writeDirent(as, d.dirLoc.Page, d.dirLoc.Slot, fmt.Sprintf("d%d", i), &in); err != nil {
			return nil, nil, err
		}
	}
	hots := make([]ctlFile, hotFiles)
	for i := range hots {
		fp, err := root.AllocPages(0, 1+hotPages)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: alloc hot file: %w", err)
		}
		in := core.Inode{Ino: inos[sessions+i], Mode: 0o666}
		if hots[i], err = newFile(as, fp, in, rootLoc(sessions+i), fmt.Sprintf("hot%d", i)); err != nil {
			return nil, nil, err
		}
	}
	if err := root.UnmapFile(core.RootIno); err != nil {
		return nil, nil, fmt.Errorf("setup: unmap root: %w", err)
	}

	_, _, _, err = runThreads(sessions, func(tid int) (int64, int64, error) {
		d := &dirs[tid]
		uid := uint32(1000 + tid)
		d.sess = c.Register(uid, 1000, 0, controller.GroupID(2+tid))
		as := d.sess.AddressSpace()
		if _, err := d.sess.MapFile(d.dirIno, d.dirLoc, true); err != nil {
			return 0, 0, fmt.Errorf("map session dir: %w", err)
		}
		perFile := 1 + filePages
		fp, err := d.sess.AllocPages(tid, 2+files*perFile)
		if err != nil {
			return 0, 0, fmt.Errorf("alloc session pages: %w", err)
		}
		dirHead, direntPage := fp[0], fp[1]
		for _, p := range fp[:2] {
			if err := as.Write(p, 0, zeroPage()); err != nil {
				return 0, 0, err
			}
		}
		if err := core.SetIndexEntry(as, dirHead, 0, direntPage); err != nil {
			return 0, 0, err
		}
		if err := core.UpdateInodeHead(as, d.dirLoc, dirHead); err != nil {
			return 0, 0, err
		}
		d.direntPage = direntPage
		if files > 0 {
			finos, err := d.sess.AllocInos(tid, files)
			if err != nil {
				return 0, 0, err
			}
			d.files = make([]ctlFile, files)
			for j := range d.files {
				in := core.Inode{Ino: finos[j], Mode: 0o644, UID: uid, GID: 1000}
				loc := core.FileLoc{Page: direntPage, Slot: j}
				if d.files[j], err = newFile(as, fp[2+j*perFile:2+(j+1)*perFile], in, loc, fmt.Sprintf("f%d", j)); err != nil {
					return 0, 0, err
				}
			}
		}
		as.Fence()
		return 0, 0, ready(tid, d)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	return dirs, hots, nil
}

// newFile publishes a regular file at loc: pages[0] becomes its index
// page, listing pages[1:] as its data; in supplies the ino, mode and
// owner.
func newFile(m core.Mem, pages []nvm.PageID, in core.Inode, loc core.FileLoc, name string) (ctlFile, error) {
	if err := m.Write(pages[0], 0, zeroPage()); err != nil {
		return ctlFile{}, err
	}
	for i, p := range pages[1:] {
		if err := core.SetIndexEntry(m, pages[0], i, p); err != nil {
			return ctlFile{}, err
		}
	}
	in.Type, in.Head = core.TypeReg, pages[0]
	in.Size = uint64(len(pages)-1) * nvm.PageSize
	if err := writeDirent(m, loc.Page, loc.Slot, name, &in); err != nil {
		return ctlFile{}, err
	}
	return ctlFile{ino: in.Ino, loc: loc, pages: pages[1:]}, nil
}

// writeDirent installs a complete dirent (inode body, name, then the
// committing ino store) at the given page and slot.
func writeDirent(m core.Mem, dp nvm.PageID, slot int, name string, in *core.Inode) error {
	var b [core.DirentSize]byte
	if err := core.WriteDirentBody(m, dp, slot, name, in, &b); err != nil {
		return err
	}
	m.Fence()
	return core.CommitDirentIno(m, dp, slot, in.Ino)
}

// zeroPage returns a shared all-zero page image (read-only by
// convention).
func zeroPage() []byte { return zeroPageBuf }

var zeroPageBuf = make([]byte, nvm.PageSize)
