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

func (s *TenancySpec) fill() {
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
	spec.fill()
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
// on.
type TenancyResult struct {
	Result
	Sessions int
	Shards   int
	// Deaths is how many sessions were abandoned (and replaced) mid-run.
	Deaths int
	// Recalls / Expiries are the measured-window lease-recall requests
	// and forcible expirations.
	Recalls  int64
	Expiries int64
	// RecallP99 is the 99th-percentile lease-recall latency: recall
	// request to the file coming free.
	RecallP99 time.Duration
	// AdmitWaits counts calls that queued at a shard's admission gate.
	AdmitWaits int64
	// Reaps counts sessions reaped (dead sessions collected).
	Reaps int64
}

// CtlOpsPerSec reports controller operations per second.
func (r TenancyResult) CtlOpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// tenant is one session's working set, built during setup.
type tenant struct {
	sess    *controller.Session
	dirIno  core.Ino
	dirLoc  core.FileLoc
	fileIno core.Ino
	fileLoc core.FileLoc
	pages   []nvm.PageID // the private file's data pages
}

// hotFile is one shared contended file.
type hotFile struct {
	ino core.Ino
	loc core.FileLoc
}

// RunTenancy lays out the tenancy tree (not timed), then drives the
// measured map/store/unmap phase across all sessions at once.
func RunTenancy(c *controller.Controller, spec TenancySpec) (TenancyResult, error) {
	spec.fill()
	tenants, hots, err := tenancySetup(c, spec)
	if err != nil {
		return TenancyResult{}, err
	}

	before := c.Stats().Snapshot()
	var deaths atomic.Int64
	var nextGroup atomic.Uint32
	nextGroup.Store(uint32(2 + spec.Sessions))

	ops, bytes, elapsed, err := runThreads(spec.Sessions, func(tid int) (int64, int64, error) {
		t := &tenants[tid]
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
			if _, err := t.sess.MapFile(t.fileIno, t.fileLoc, true); err != nil {
				return 0, 0, fmt.Errorf("tenant %d: map private file: %w", tid, err)
			}
			ops++
			// Rewrite the whole file: the unmap-time seal re-reads what
			// was stored to, so a full rewrite keeps the 32-page seal
			// stream — the modeled device time shard locks overlap —
			// that a one-page store no longer pays.
			as := t.sess.AddressSpace()
			for _, p := range t.pages {
				if err := as.Write(p, 0, buf); err != nil {
					return 0, 0, fmt.Errorf("tenant %d: store: %w", tid, err)
				}
				if err := as.Persist(p, 0, len(buf)); err != nil {
					return 0, 0, fmt.Errorf("tenant %d: persist: %w", tid, err)
				}
				bytes += int64(len(buf))
			}
			as.Fence()
			if err := t.sess.UnmapFile(t.fileIno); err != nil {
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

// tenancySetup builds the tree: a root session creates per-tenant
// directories and the hot files; then every tenant session populates
// its own directory with its private file. Runs concurrently but is
// not part of the measured window.
func tenancySetup(c *controller.Controller, spec TenancySpec) ([]tenant, []hotFile, error) {
	root := c.Register(0, 0, 0, 1)
	defer root.Close()
	as := root.AddressSpace()
	info, err := root.MapFile(core.RootIno, core.RootLoc(), true)
	if err != nil {
		return nil, nil, fmt.Errorf("tenancy setup: map root: %w", err)
	}

	// Root fan-out: enough dirent pages for every tenant dir + hot
	// file, behind however many chained index pages that takes — one
	// index page caps the root at 8k entries, well short of a 10k run.
	entries := spec.Sessions + spec.HotFiles
	nDirent := (entries + core.SlotsPerDirPage - 1) / core.SlotsPerDirPage
	nIndex := (nDirent + core.IndexEntriesPerPage - 1) / core.IndexEntriesPerPage
	rootInode := info.Inode
	if rootInode.Head != nvm.NilPage {
		return nil, nil, fmt.Errorf("tenancy setup: root not empty (run on a fresh device)")
	}
	pages, err := root.AllocPages(0, nIndex+nDirent)
	if err != nil {
		return nil, nil, fmt.Errorf("tenancy setup: alloc root pages: %w", err)
	}
	zero := make([]byte, nvm.PageSize)
	for _, p := range pages {
		if err := as.Write(p, 0, zero); err != nil {
			return nil, nil, err
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

	direntAt := func(i int) (nvm.PageID, int) {
		return dirents[i/core.SlotsPerDirPage], i % core.SlotsPerDirPage
	}

	// Tenant directories: empty dirs the tenants themselves fill in.
	inos, err := root.AllocInos(0, entries)
	if err != nil {
		return nil, nil, fmt.Errorf("tenancy setup: alloc inos: %w", err)
	}
	tenants := make([]tenant, spec.Sessions)
	for i := 0; i < spec.Sessions; i++ {
		dp, slot := direntAt(i)
		// I4: a new file carries its creator's credentials — the root
		// session's, not the tenant's. Mode 777 lets the tenant in.
		in := core.Inode{
			Ino: inos[i], Type: core.TypeDir, Mode: 0o777,
			Head: nvm.NilPage,
		}
		if err := writeDirent(as, dp, slot, fmt.Sprintf("t%d", i), &in); err != nil {
			return nil, nil, err
		}
		tenants[i].dirIno = in.Ino
		tenants[i].dirLoc = core.FileLoc{Page: dp, Slot: slot}
	}

	// Hot shared files: world-writable, FilePages of zeroed content.
	hots := make([]hotFile, spec.HotFiles)
	for i := 0; i < spec.HotFiles; i++ {
		dp, slot := direntAt(spec.Sessions + i)
		fp, err := root.AllocPages(0, 1+spec.HotPages)
		if err != nil {
			return nil, nil, fmt.Errorf("tenancy setup: alloc hot file: %w", err)
		}
		if err := as.Write(fp[0], 0, zero); err != nil {
			return nil, nil, err
		}
		for j, p := range fp[1:] {
			if err := core.SetIndexEntry(as, fp[0], j, p); err != nil {
				return nil, nil, err
			}
		}
		in := core.Inode{
			Ino: inos[spec.Sessions+i], Type: core.TypeReg, Mode: 0o666,
			Size: uint64(spec.HotPages) * nvm.PageSize, Head: fp[0],
		}
		if err := writeDirent(as, dp, slot, fmt.Sprintf("hot%d", i), &in); err != nil {
			return nil, nil, err
		}
		hots[i] = hotFile{ino: in.Ino, loc: core.FileLoc{Page: dp, Slot: slot}}
	}
	if err := root.UnmapFile(core.RootIno); err != nil {
		return nil, nil, fmt.Errorf("tenancy setup: unmap root: %w", err)
	}

	// Every tenant session builds its own private file inside its dir.
	_, _, _, err = runThreads(spec.Sessions, func(tid int) (int64, int64, error) {
		t := &tenants[tid]
		t.sess = c.Register(uint32(1000+tid), 1000, 0, controller.GroupID(2+tid))
		installRecallHandler(t.sess)
		as := t.sess.AddressSpace()
		if _, err := t.sess.MapFile(t.dirIno, t.dirLoc, true); err != nil {
			return 0, 0, fmt.Errorf("map tenant dir: %w", err)
		}
		// Directory skeleton (index + dirent page) and the private file
		// (index + data pages) in one allocation.
		fp, err := t.sess.AllocPages(tid, 2+1+spec.FilePages)
		if err != nil {
			return 0, 0, fmt.Errorf("alloc tenant pages: %w", err)
		}
		dirHead, direntPage, fileHead := fp[0], fp[1], fp[2]
		for _, p := range []nvm.PageID{dirHead, direntPage, fileHead} {
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
		t.pages = fp[3:]
		for i, p := range t.pages {
			if err := core.SetIndexEntry(as, fileHead, i, p); err != nil {
				return 0, 0, err
			}
		}
		inos, err := t.sess.AllocInos(tid, 1)
		if err != nil {
			return 0, 0, err
		}
		in := core.Inode{
			Ino: inos[0], Type: core.TypeReg, Mode: 0o644,
			UID: uint32(1000 + tid), GID: 1000,
			Size: uint64(spec.FilePages) * nvm.PageSize, Head: fileHead,
		}
		if err := writeDirent(as, direntPage, 0, "data", &in); err != nil {
			return 0, 0, err
		}
		as.Fence()
		if err := t.sess.UnmapFile(t.dirIno); err != nil {
			return 0, 0, fmt.Errorf("unmap tenant dir: %w", err)
		}
		t.fileIno = in.Ino
		t.fileLoc = core.FileLoc{Page: direntPage, Slot: 0}
		return 0, 0, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("tenancy setup: %w", err)
	}
	return tenants, hots, nil
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
