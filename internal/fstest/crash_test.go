package fstest

import (
	"bytes"
	"fmt"
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

const (
	handoverPath  = "/shared"
	handoverPages = 8
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
// that stores nothing. It returns how many stores completed.
func (r *handoverRig) handoverScript(fp *nvm.FaultPlan) (done int) {
	steps := []struct{ domain, page int }{{0, 2}, {1, 5}, {0, 5}, {1, -1}}
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
	return done
}

// TestCrashHandoverSweep crashes a cross-domain write handover at every
// persist point. The clean close publishes a record without re-reading
// its page, so the property at stake is the checksum-behind one: after
// recovery — warm, and again after a cold remount — no sealed record
// may disagree with the durable content, every file verifies, and the
// stores of completed handovers are intact.
func TestCrashHandoverSweep(t *testing.T) {
	probe := newHandoverRig(t)
	fp := nvm.NewFaultPlan()
	probe.dev.SetFaultPlan(fp)
	if done := probe.handoverScript(fp); done != 4 {
		t.Fatalf("dry run completed %d of 4 handovers", done)
	}
	n := fp.PersistPoints()
	t.Logf("handover scenario: %d persist points to sweep", n)

	want := [][handoverPages]int{{}, {2: 1}, {2: 1, 5: 2}, {2: 1, 5: 3}, {2: 1, 5: 3}}
	for k := int64(1); k <= n; k++ {
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
		progs := map[controller.LibFSID]func() error{}
		for d, fs := range r.fs {
			if err := fs.Recover(); err != nil {
				t.Fatalf("k=%d: domain %d recover: %v", k, d, err)
			}
			progs[r.sess[d].ID()] = fs.Recover
		}
		r.ctl.Recover(progs)

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
		cold, err := controller.New(r.dev, controller.Options{CPUs: 2})
		if err != nil {
			t.Fatalf("k=%d: cold remount: %v", k, err)
		}
		if rep := cold.ScrubAll(); rep.Mismatches != 0 {
			t.Fatalf("k=%d: %d sealed-CRC mismatches after cold remount", k, rep.Mismatches)
		}
	}
}
