package fstest

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/fpfs"
	"trio/internal/fsapi"
	"trio/internal/kvfs"
	"trio/internal/libfs"
	"trio/internal/nvm"
)

// arckRig is a Trio stack on a persistence-tracking device, without a
// delegation pool: delegation hands large writes to worker goroutines,
// which would make the persist-point sequence nondeterministic, and the
// crash-point sweep depends on every replay issuing the identical point
// sequence.
type arckRig struct {
	dev  *nvm.Device
	ctl  *controller.Controller
	sess *controller.Session
	fs   *libfs.FS
}

func newArckRig(t *testing.T) *arckRig {
	t.Helper()
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 2048, TrackPersistence: true})
	ctl, err := controller.New(dev, controller.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess := ctl.Register(1000, 1000, 0, 0)
	fs, err := libfs.New(sess, libfs.Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &arckRig{dev: dev, ctl: ctl, sess: sess, fs: fs}
}

// recover runs the standard warm-recovery sequence: the LibFS recovery
// program (undo-journal replay, aux-state drop), then the controller's
// verify-everything-write-mapped pass.
func (r *arckRig) recover() error {
	if err := r.fs.Recover(); err != nil {
		return err
	}
	r.ctl.Recover(map[controller.LibFSID]func() error{r.sess.ID(): r.fs.Recover})
	return nil
}

// verifyAll is the post-recovery integrity gate: the verifier must pass
// every file, and then a full scrub pass must find zero sealed-checksum
// mismatches — a mismatch here means the checksum-behind protocol lost
// crash consistency (a sealed record vouching for content that never
// became durable, i.e. false corruption).
func (r *arckRig) verifyAll() (int, string) {
	_, bad, first := r.ctl.VerifyAll()
	if bad != 0 {
		return bad, first
	}
	if rep := r.ctl.ScrubAll(); rep.Mismatches != 0 {
		return rep.Mismatches, fmt.Sprintf("%d sealed checksum mismatches after crash recovery", rep.Mismatches)
	}
	return 0, ""
}

func (r *arckRig) crashEnv() *CrashEnv {
	return &CrashEnv{
		FS:  r.fs,
		Dev: r.dev,
		Recover: func() (fsapi.FS, error) {
			if err := r.recover(); err != nil {
				return nil, err
			}
			return r.fs, nil
		},
		Verify: r.verifyAll,
		Remount: func() error {
			// A reboot: a fresh controller scans and adopts the on-NVM
			// state with no memory of the pre-crash processes.
			_, err := controller.New(r.dev, controller.Options{CPUs: 2})
			return err
		},
	}
}

// TestCrashRecoveryConformance enumerates every crash point of the
// scripted workload on each file system that has a recovery story, and
// documents why the rest are skipped. This is the repo's §6.5-style
// integrity matrix: the Trio-based FSes must recover to an
// oracle-consistent, verifier-clean state at every single persist
// point.
func TestCrashRecoveryConformance(t *testing.T) {
	t.Run("arckfs", func(t *testing.T) {
		RunCrash(t, func(t *testing.T) *CrashEnv { return newArckRig(t).crashEnv() })
	})

	t.Run("fpfs", func(t *testing.T) {
		RunCrash(t, func(t *testing.T) *CrashEnv {
			r := newArckRig(t)
			env := r.crashEnv()
			env.FS = fpfs.New(r.fs).Posix()
			env.Recover = func() (fsapi.FS, error) {
				if err := r.recover(); err != nil {
					return nil, err
				}
				// FPFS's full-path table is soft state: remounting
				// rebuilds it lazily from the recovered core state.
				return fpfs.New(r.fs).Posix(), nil
			}
			return env
		})
	})

	// The baselines are performance-faithful models, not
	// crash-recoverable file systems (see the package comment in
	// internal/baseline/kernfs): they model the costs of the real
	// systems' persistence machinery without implementing their
	// recovery protocols.
	for _, name := range []string{
		"ext4", "ext4-raid0", "pmfs", "nova", "winefs", "odinfs", "splitfs", "strata",
	} {
		t.Run(name, func(t *testing.T) {
			RunCrash(t, func(t *testing.T) *CrashEnv {
				return &CrashEnv{SkipReason: name + " is a performance-faithful baseline without a crash-recovery path"}
			})
		})
	}
}

// TestCrashRecoveryKVFS sweeps the KVFS set/delete workload over every
// persist point.
func TestCrashRecoveryKVFS(t *testing.T) {
	RunCrashKV(t, func(t *testing.T) *KVCrashEnv {
		r := newArckRig(t)
		kv, err := kvfs.New(r.fs, "/kv")
		if err != nil {
			t.Fatal(err)
		}
		return &KVCrashEnv{
			KV:  kv,
			Dev: r.dev,
			Recover: func() (*kvfs.FS, error) {
				if err := r.recover(); err != nil {
					return nil, err
				}
				return kvfs.New(r.fs, "/kv")
			},
			Verify: r.verifyAll,
		}
	})
}

// handoverRig is two trust domains over one controller on a
// persistence-tracking device, sharing one sealed file.
type handoverRig struct {
	dev  *nvm.Device
	ctl  *controller.Controller
	sess [2]*controller.Session
	fs   [2]*libfs.FS
	h    [2]fsapi.File
	ino  core.Ino
}

// The shared file is long enough that its grants cover whole 32-page
// granules, opened by their bit, besides a ragged end opened by record:
// placement gives its first 64 blocks two whole granules and its last 6
// a third granule the file holds only part of.
const (
	handoverPath  = "/shared"
	handoverPages = 70
)

func handoverFill(page, version int) []byte {
	return bytes.Repeat([]byte{byte(16*version + page + 1)}, nvm.PageSize)
}

func newHandoverRig(t *testing.T) *handoverRig {
	t.Helper()
	r := &handoverRig{dev: nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 2048, TrackPersistence: true})}
	var err error
	if r.ctl, err = controller.New(r.dev, controller.Options{CPUs: 2}); err != nil {
		t.Fatal(err)
	}
	for d := range r.fs {
		r.sess[d] = r.ctl.Register(1000, 1000, 0, controller.GroupID(1+d))
		if r.fs[d], err = libfs.New(r.sess[d], libfs.Config{CPUs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if r.h[0], err = r.fs[0].NewClient(0).Create(handoverPath, 0o666); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < handoverPages; p++ {
		if _, err := r.h[0].Append(handoverFill(p, 0)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := r.fs[0].NewClient(0).Stat(handoverPath)
	if err != nil {
		t.Fatal(err)
	}
	r.ino = core.Ino(info.Ino)
	// Giving the root back adopts the file and seals its pages; domain 1
	// then opens it and hands it straight back.
	if err := r.sess[0].UnmapFile(core.RootIno); err != nil {
		t.Fatal(err)
	}
	if r.h[1], err = r.fs[1].NewClient(0).Open(handoverPath, true); err != nil {
		t.Fatal(err)
	}
	if err := r.sess[1].UnmapFile(r.ino); err != nil {
		t.Fatal(err)
	}
	if rep := r.ctl.ScrubAll(); rep.Mismatches != 0 {
		t.Fatalf("setup scrub: %+v", rep)
	}
	return r
}

// handoverScript is the crash-swept scenario: write access to the file
// moves between the domains three times — write-map, store one page,
// unmap (verify + seal), the other domain maps — and ends on a handover
// that stores nothing. The first store lands on the ragged end, opened
// by record; the others inside a whole granule, opened by its bit, which
// the first grant sets and the scrub pass that closes the script clears.
// It returns how many handovers completed.
func (r *handoverRig) handoverScript(fp *nvm.FaultPlan) (done int) {
	steps := []struct{ domain, page int }{{0, 66}, {1, 40}, {0, 40}, {1, -1}}
	for i, st := range steps {
		if st.page >= 0 {
			if _, err := r.h[st.domain].WriteAt(handoverFill(st.page, i+1), int64(st.page)*nvm.PageSize); err != nil {
				return done
			}
		} else if _, err := r.h[st.domain].ReadAt(make([]byte, 8), 0); err != nil {
			return done
		}
		if err := r.sess[st.domain].UnmapFile(r.ino); err != nil || fp.Fired() {
			return done
		}
		done++
	}
	r.ctl.ScrubAll()
	return done
}

// TestCrashHandoverSweep crashes a cross-domain write handover at every
// persist point. The clean close publishes a record without re-reading
// its page, and the close of a granule clears its open bit without
// touching the records of the pages not stored to, so the property at
// stake is the checksum-behind one: after recovery — warm, then a cold
// remount, and a cold mount of the crashed image itself — no trusted
// record may disagree with the durable content, every file verifies,
// the scrub covers every page, and the stores of completed handovers
// are intact.
func TestCrashHandoverSweep(t *testing.T) {
	probe := newHandoverRig(t)
	fp := nvm.NewFaultPlan()
	probe.dev.SetFaultPlan(fp)
	if done := probe.handoverScript(fp); done != 4 {
		t.Fatalf("dry run completed %d of 4 handovers", done)
	}
	n := fp.PersistPoints()
	t.Logf("handover scenario: %d persist points to sweep", n)
	// The sweep covers the persist points of an open bit's set and clear:
	// the script set one, and left none set.
	if st := probe.ctl.Stats().Snapshot(); st.GranuleOpens == 0 {
		t.Fatal("no grant of the script opened a granule by its bit")
	}
	if open := openGranules(probe.dev); open != 0 {
		t.Fatalf("%d open bits left after the script's scrub", open)
	}
	// The script's stores cover both sizes: block 66 on the ragged end,
	// block 40 inside a granule the file holds whole.
	if got := probe.granuleShare(t, 66); got != handoverPages-64 {
		t.Fatalf("block 66 shares its granule with %d of the file's pages, want the %d of a ragged end", got, handoverPages-64)
	}
	if got := probe.granuleShare(t, 40); got != nvm.GranulePages {
		t.Fatalf("block 40 shares its granule with %d of the file's pages, want a whole granule", got)
	}

	want := [][handoverPages]int{{}, {66: 1}, {66: 1, 40: 2}, {66: 1, 40: 3}, {66: 1, 40: 3}}
	crashAt := func(k int64) (*handoverRig, int) {
		r := newHandoverRig(t)
		fp := nvm.NewFaultPlan()
		fp.ArmCrashPoint(k)
		r.dev.SetFaultPlan(fp)
		done := r.handoverScript(fp)
		if !fp.Fired() {
			t.Fatalf("k=%d: crash point never fired", k)
		}
		r.dev.Tracker().Crash()
		r.dev.SetFaultPlan(nil)
		return r, done
	}
	coldScrub := func(k int64, dev *nvm.Device, what string) {
		cold, err := controller.New(dev, controller.Options{CPUs: 2})
		if err != nil {
			t.Fatalf("k=%d: %s: %v", k, what, err)
		}
		if _, bad, first := cold.VerifyAll(); bad != 0 {
			t.Fatalf("k=%d: %s: %d files fail verification: %s", k, what, bad, first)
		}
		if rep := cold.ScrubAll(); rep.Mismatches != 0 || rep.Covered != rep.Candidates {
			t.Fatalf("k=%d: %s: %d sealed-CRC mismatches, coverage %d/%d", k, what, rep.Mismatches, rep.Covered, rep.Candidates)
		}
	}
	for k := int64(1); k <= n; k++ {
		r, _ := crashAt(k)
		coldScrub(k, r.dev, "cold mount of the crashed image")

		r, done := crashAt(k)
		progs := map[controller.LibFSID]func() error{}
		for d, fs := range r.fs {
			if err := fs.Recover(); err != nil {
				t.Fatalf("k=%d: domain %d recover: %v", k, d, err)
			}
			progs[r.sess[d].ID()] = fs.Recover
		}
		if _, _, err := r.ctl.Recover(progs); err != nil {
			t.Fatalf("k=%d: controller recover: %v", k, err)
		}

		if _, bad, first := r.ctl.VerifyAll(); bad != 0 {
			t.Fatalf("k=%d (%d handovers done): %d files fail verification: %s", k, done, bad, first)
		}
		if rep := r.ctl.ScrubAll(); rep.Mismatches != 0 {
			t.Fatalf("k=%d (%d handovers done): %d sealed-CRC mismatches after recovery", k, done, rep.Mismatches)
		}
		// Completed handovers are durable; the interrupted one's page may
		// hold either version (or a torn mix), every other page is exact.
		f, err := r.fs[0].NewClient(0).Open(handoverPath, false)
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		buf := make([]byte, nvm.PageSize)
		for p := 0; p < handoverPages; p++ {
			if _, err := f.ReadAt(buf, int64(p)*nvm.PageSize); err != nil {
				t.Fatalf("k=%d: read page %d: %v", k, p, err)
			}
			if done < 4 && want[done][p] != want[done+1][p] {
				continue
			}
			if !bytes.Equal(buf, handoverFill(p, want[done][p])) {
				t.Fatalf("k=%d (%d handovers done): page %d holds %#x, want version %d", k, done, p, buf[0], want[done][p])
			}
		}
		coldScrub(k, r.dev, "cold remount after recovery")
	}
}

// openGranules counts the set open bits in the checksum region's header.
func openGranules(dev *nvm.Device) int {
	m, total := core.Direct(dev, 0), dev.NumPages()
	n := 0
	for w := 0; w < core.GranuleWords(total); w++ {
		hp, off := core.GranuleWordLoc(total, w)
		v, _ := m.ReadU64(hp, off)
		n += bits.OnesCount64(v)
	}
	return n
}

// granuleShare counts the shared file's data pages in the granule of the
// page holding block b.
func (r *handoverRig) granuleShare(t *testing.T, b uint64) int {
	t.Helper()
	m := core.Direct(r.dev, 0)
	var loc core.FileLoc
	for _, f := range r.ctl.Files() {
		if f.Ino == r.ino {
			loc = f.Loc
		}
	}
	in, err := core.ReadDirentInode(m, loc.Page, loc.Slot)
	if err != nil {
		t.Fatal(err)
	}
	var data []nvm.PageID
	if err := core.WalkFile(m, in.Head, int(r.dev.NumPages()), nil,
		func(_ uint64, p nvm.PageID) bool { data = append(data, p); return true }); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range data {
		if p>>nvm.GranuleShift == data[b]>>nvm.GranuleShift {
			n++
		}
	}
	return n
}
