package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"trio/internal/attack"
	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/libfs"
)

// sharingWorld builds the Table 3 setting: one device, a controller
// with a short lease, and two ArckFS mounts in distinct (or shared)
// trust domains.
type sharingWorld struct {
	ctl       *controller.Controller
	fsA       *libfs.FS
	fsB       *libfs.FS
	sameGroup bool
}

func newSharingWorld(p Params, sameGroup bool) (*sharingWorld, error) {
	ctl, err := p.ctlTestbed(49152, controller.Options{LeaseTime: 2 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	groupA, groupB := controller.GroupID(1), controller.GroupID(2)
	if sameGroup {
		groupB = groupA
	}
	fsA, err := libfs.New(ctl.Register(1000, 1000, 0, groupA), libfs.Config{CPUs: 4})
	if err != nil {
		return nil, err
	}
	fsB, err := libfs.New(ctl.Register(1000, 1000, 0, groupB), libfs.Config{CPUs: 4})
	if err != nil {
		return nil, err
	}
	return &sharingWorld{ctl: ctl, fsA: fsA, fsB: fsB, sameGroup: sameGroup}, nil
}

// apps are the two applications' clients, one on each mount.
func (sw *sharingWorld) apps() [2]fsapi.Client {
	return [2]fsapi.Client{sw.fsA.NewClient(0), sw.fsB.NewClient(1)}
}

// together runs app(0) and app(1) at once and times the pair.
func together(app func(i int) error) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = app(i)
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// sharedWrite measures two applications ping-ponging 4 KiB writes on
// one file of the given size; returns aggregate GiB/s.
func sharedWrite(apps [2]fsapi.Client, fileSize int64, opsPerApp int) (float64, error) {
	f, err := apps[0].Create("/shared.dat", 0o666)
	if err != nil {
		return 0, err
	}
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < fileSize; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			return 0, err
		}
	}
	f.Close()
	elapsed, err := together(func(i int) error {
		h, err := apps[i].Open("/shared.dat", true)
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		for op := 0; op < opsPerApp; op++ {
			off := int64(op%int(fileSize/4096)) * 4096
			if _, err := h.WriteAt(buf, off); err != nil {
				return fmt.Errorf("app %d op %d: %w", i, op, err)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(2*opsPerApp) * 4096 / elapsed.Seconds() / (1 << 30), nil
}

// dirIno locates a directory's ino in the controller records.
func (sw *sharingWorld) dirIno(name string) (core.Ino, error) {
	mem := core.Direct(sw.ctl.Device(), 0)
	for _, fi := range sw.ctl.Files() {
		n, err := core.ReadDirentName(mem, fi.Loc.Page, fi.Loc.Slot)
		if err == nil && n == name {
			return fi.Ino, nil
		}
	}
	return 0, fmt.Errorf("dir %q not in controller records", name)
}

// sharedCreate measures two applications alternately creating (and
// removing) empty files in one shared directory preloaded with nfiles
// entries, across trust domains handing the directory over after every
// operation to stress the sharing path (§6.5). Returns µs per create.
func (sw *sharingWorld) sharedCreate(nfiles, opsPerApp int) (float64, error) {
	apps := sw.apps()
	if err := preloadShare(apps[0], nfiles); err != nil {
		return 0, err
	}
	// Register the dir with the controller (verification cycle) so both
	// domains share through it.
	sw.fsA.Session().UnmapFile(core.RootIno)
	ino, err := sw.dirIno("share")
	if err != nil {
		return 0, err
	}
	mounts := [2]*libfs.FS{sw.fsA, sw.fsB}
	return createChurn(apps, opsPerApp, func(i int) {
		if !sw.sameGroup {
			mounts[i].Session().UnmapFile(ino)
		}
	})
}

// preloadShare makes /share with nfiles entries in it.
func preloadShare(c fsapi.Client, nfiles int) error {
	if err := c.Mkdir("/share", 0o777); err != nil {
		return err
	}
	for i := 0; i < nfiles; i++ {
		f, err := c.Create(fmt.Sprintf("/share/base%04d", i), 0o644)
		if err != nil {
			return err
		}
		f.Close()
	}
	return nil
}

// createChurn has both applications create and unlink opsPerApp files
// in /share at once, calling after(app) after each pair; returns µs per
// create.
func createChurn(apps [2]fsapi.Client, opsPerApp int, after func(i int)) (float64, error) {
	elapsed, err := together(func(i int) error {
		for op := 0; op < opsPerApp; op++ {
			path := fmt.Sprintf("/share/app%d-%d", i, op)
			f, err := apps[i].Create(path, 0o644)
			if err != nil {
				return fmt.Errorf("app %d create %d: %w", i, op, err)
			}
			f.Close()
			if err := apps[i].Unlink(path); err != nil {
				return fmt.Errorf("app %d unlink %d: %w", i, op, err)
			}
			after(i)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(elapsed.Microseconds()) / float64(2*opsPerApp), nil
}

// Tab3 — the sharing-cost table: two untrusted writers vs NOVA vs the
// trust-group fast path.
func Tab3(w io.Writer, p Params) error {
	header(w, "tab3", "sharing cost: two apps updating one file (Table 3)")
	ops := p.ops(192)
	smallFile := int64(2 << 20)
	bigFile := int64(32 << 20) // the paper's 1 GiB class, scaled

	cols := []string{"case", "nova", "arckfs", "arckfs-trust-group"}
	rows := [][]string{
		{"4KB-write 2MB (GiB/s)"},
		{fmt.Sprintf("4KB-write %dMB (GiB/s)", bigFile>>20)},
		{"create dir-of-10 (µs/op)"},
		{"create dir-of-100 (µs/op)"},
	}
	// Each cell is a fresh world: NOVA, where both apps go through the
	// kernel and pay no Trio sharing cost, then ArckFS cross-domain and
	// in one trust group.
	cells := []func(apps [2]fsapi.Client, sw *sharingWorld) (float64, error){
		func(apps [2]fsapi.Client, _ *sharingWorld) (float64, error) { return sharedWrite(apps, smallFile, ops) },
		func(apps [2]fsapi.Client, _ *sharingWorld) (float64, error) { return sharedWrite(apps, bigFile, ops) },
	}
	for _, nfiles := range []int{10, 100} {
		cells = append(cells, func(apps [2]fsapi.Client, sw *sharingWorld) (float64, error) {
			if sw != nil {
				return sw.sharedCreate(nfiles, ops)
			}
			if err := preloadShare(apps[0], nfiles); err != nil {
				return 0, err
			}
			return createChurn(apps, ops, func(int) {})
		})
	}
	for ri, cell := range cells {
		format := "%.3f"
		if ri >= 2 {
			format = "%.1f"
		}
		inst, err := p.mount("nova", oneNode())
		if err != nil {
			return err
		}
		x, err := cell([2]fsapi.Client{inst.NewClient(0), inst.NewClient(1)}, nil)
		inst.Close()
		if err != nil {
			return fmt.Errorf("tab3 %s, nova: %w", rows[ri][0], err)
		}
		rows[ri] = append(rows[ri], fmt.Sprintf(format, x))
		for _, sameGroup := range []bool{false, true} {
			sw, err := newSharingWorld(p, sameGroup)
			if err != nil {
				return err
			}
			if x, err = cell(sw.apps(), sw); err != nil {
				return fmt.Errorf("tab3 %s (group=%v): %w", rows[ri][0], sameGroup, err)
			}
			rows[ri] = append(rows[ri], fmt.Sprintf(format, x))
		}
	}
	table(w, cols, rows)
	return nil
}

// Fig8 — breakdown of the sharing cost into map / unmap / verify /
// auxiliary-state rebuild, for the two stressed Table 3 cases.
func Fig8(w io.Writer, p Params) error {
	header(w, "fig8", "breakdown of ArckFS's sharing cost (fraction of sharing time)")
	ops := p.ops(48)

	measure := func(run func(sw *sharingWorld) error) ([]string, error) {
		sw, err := newSharingWorld(p, false)
		if err != nil {
			return nil, err
		}
		before := sw.ctl.Stats().Snapshot()
		if err := run(sw); err != nil {
			return nil, err
		}
		d := sw.ctl.Stats().Snapshot().Sub(before)
		total := d.MapTime + d.UnmapTime + d.RebuildTime
		// Unmap time includes verification; separate it out the way the
		// paper's breakdown does.
		unmapOnly := d.UnmapTime - d.VerifyTime
		if unmapOnly < 0 {
			unmapOnly = 0
		}
		if total <= 0 {
			return []string{"-", "-", "-", "-"}, nil
		}
		frac := func(x time.Duration) string {
			return fmt.Sprintf("%.2f", float64(x)/float64(total))
		}
		return []string{frac(d.MapTime), frac(unmapOnly), frac(d.VerifyTime), frac(d.RebuildTime)}, nil
	}

	cols := []string{"case", "map", "unmap", "verifier", "aux-rebuild"}
	var rows [][]string
	cells, err := measure(func(sw *sharingWorld) error {
		_, err := sharedWrite(sw.apps(), 32<<20, ops)
		return err
	})
	if err != nil {
		return err
	}
	rows = append(rows, append([]string{"4KB-write 32MB"}, cells...))
	cells, err = measure(func(sw *sharingWorld) error {
		_, err := sw.sharedCreate(100, ops)
		return err
	})
	if err != nil {
		return err
	}
	rows = append(rows, append([]string{"create-100"}, cells...))
	table(w, cols, rows)
	return fixedWriteSet(w, p)
}

// fixedWriteSet is the column the paper does not have: the sharing cost
// per handover when the write set is fixed — one 4 KiB overwrite — and
// only the file grows. The two domains alternate strictly, each giving
// the file back after its write (the benchmark's share-handover op), so
// every handover is one map, one rebuild-or-reuse, one unmap with its
// verification. Verification and rebuild follow what was stored to;
// map and unmap keep their per-page-table-entry and per-checksum-record
// terms.
func fixedWriteSet(w io.Writer, p Params) error {
	fmt.Fprintln(w, "\nper-handover sharing cost for a fixed write set (one 4 KiB overwrite), µs:")
	handovers := p.ops(64)
	cols := []string{"file", "verify", "map", "aux-rebuild", "unmap", "rebuilds/handover"}
	var rows [][]string
	for _, size := range []int64{64 << 10, 2 << 20, 32 << 20} {
		sw, err := newSharingWorld(p, false)
		if err != nil {
			return err
		}
		mounts := [2]*libfs.FS{sw.fsA, sw.fsB}
		var hs [2]fsapi.File
		if hs[0], err = sw.fsA.NewClient(0).Create("/fixed.dat", 0o666); err != nil {
			return err
		}
		chunk := make([]byte, 64<<10)
		for off := int64(0); off < size; off += int64(len(chunk)) {
			if _, err := hs[0].WriteAt(chunk, off); err != nil {
				return err
			}
		}
		info, err := sw.fsA.NewClient(0).Stat("/fixed.dat")
		if err != nil {
			return err
		}
		if err := sw.fsA.Session().UnmapFile(core.RootIno); err != nil {
			return err
		}
		if hs[1], err = sw.fsB.NewClient(1).Open("/fixed.dat", true); err != nil {
			return err
		}
		if err := sw.fsB.Session().UnmapFile(core.Ino(info.Ino)); err != nil {
			return err
		}
		handover := func(i int) error {
			d := i & 1
			if _, err := hs[d].WriteAt(chunk[:4096], int64(i*37%int(size/4096))*4096); err != nil {
				return err
			}
			return mounts[d].Session().UnmapFile(core.Ino(info.Ino))
		}
		// The first handovers establish the controller's facts and stamp
		// each mount's auxiliary state; the steady state is what is timed.
		var before controller.Snapshot
		for i := 0; i < 6+handovers; i++ {
			if i == 6 {
				before = sw.ctl.Stats().Snapshot()
			}
			if err := handover(i); err != nil {
				return fmt.Errorf("fig8 fixed write set, %d KiB, handover %d: %w", size>>10, i, err)
			}
		}
		d := sw.ctl.Stats().Snapshot().Sub(before)
		us := func(x time.Duration) string {
			return fmt.Sprintf("%.1f", float64(x)/float64(time.Microsecond)/float64(handovers))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d KiB", size>>10),
			us(d.VerifyTime), us(d.MapTime), us(d.RebuildTime), us(d.UnmapTime - d.VerifyTime),
			fmt.Sprintf("%.2f", float64(d.RebuildCount)/float64(handovers)),
		})
	}
	table(w, cols, rows)
	return nil
}

// Integrity — §6.5: run every attack and scripted corruption scenario.
func Integrity(w io.Writer, p Params) error {
	header(w, "integrity", "§6.5: malicious and buggy LibFS scenarios")
	scenarios := attack.All()
	detected, recovered, failed := 0, 0, 0
	for _, s := range scenarios {
		o := s.Run()
		if o.Err != nil {
			failed++
			fmt.Fprintf(w, "  scenario %s: ERROR %v\n", o.Name, o.Err)
			continue
		}
		if o.Detected {
			detected++
		} else {
			fmt.Fprintf(w, "  scenario %s: NOT DETECTED\n", o.Name)
		}
		if o.Recovered {
			recovered++
		} else {
			fmt.Fprintf(w, "  scenario %s: NOT RECOVERED\n", o.Name)
		}
	}
	fmt.Fprintf(w, "scenarios: %d (11 handcrafted attacks + %d scripted corruptions)\n",
		len(scenarios), len(scenarios)-11)
	fmt.Fprintf(w, "detected:  %d/%d\n", detected, len(scenarios)-failed)
	fmt.Fprintf(w, "recovered: %d/%d\n", recovered, len(scenarios)-failed)
	if failed > 0 {
		return fmt.Errorf("%d scenarios errored", failed)
	}
	return nil
}
