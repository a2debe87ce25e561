// Package attack reproduces the metadata-integrity evaluation of §6.5:
// eleven handcrafted attacks performed by a malicious LibFS (several
// straight from §2.3.2) plus a script battery that corrupts every
// field the integrity verifier checks, in single and combined doses —
// 134+ corruption scenarios in total, matching the paper's count.
//
// Each scenario builds a fresh world, lets the "malicious LibFS" (raw
// stores through its own legitimately write-mapped pages — everything
// the threat model allows) corrupt the core state, and then releases
// write access. The expected outcome everywhere: the verifier detects
// the corruption and the controller restores the file to a consistent
// state (checkpoint rollback), after which a full verification pass is
// clean.
package attack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/libfs"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// Outcome reports one scenario's result.
type Outcome struct {
	Name      string
	Detected  bool // the verifier flagged the corruption (none, in a scenario with none to flag)
	Recovered bool // the tree verifies clean afterwards
	Err       error
}

// OK reports whether the scenario ended the way §6.5 requires.
func (o Outcome) OK() bool { return o.Err == nil && o.Detected && o.Recovered }

// Scenario is one attack or scripted corruption.
type Scenario struct {
	Name string
	body func(w *world) Outcome
}

// Run plays the scenario against a warm controller: the victims went
// through clean handovers, the victim file's last one with its
// verification scoped by dirty metadata, so the attack lands on facts
// the controller has cached.
func (s Scenario) Run() Outcome { return s.run(false) }

// RunCold plays it against a controller freshly mounted over the built
// tree: nothing verified since mount, every walk a full one.
func (s Scenario) RunCold() Outcome { return s.run(true) }

func (s Scenario) run(cold bool) Outcome {
	w, err := newWorld(cold)
	if err != nil {
		return Outcome{Name: s.Name, Err: err}
	}
	return s.body(w)
}

// world is one freshly built attack environment.
type world struct {
	dev      *nvm.Device
	ctl      *controller.Controller
	attacker *libfs.FS
	sess     *controller.Session

	// victim file (with data) and victim dir (with children), both
	// created — and therefore write-mappable — by the attacker.
	fileIno core.Ino
	fileLoc core.FileLoc
	dirIno  core.Ino
	dirLoc  core.FileLoc
}

func newWorld(cold bool) (*world, error) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 4096})
	ctl, err := controller.New(dev, controller.Options{})
	if err != nil {
		return nil, err
	}
	sess := ctl.Register(1000, 1000, 0, 0)
	fs, err := libfs.New(sess, libfs.Config{CPUs: 2})
	if err != nil {
		return nil, err
	}
	w := &world{dev: dev, ctl: ctl, attacker: fs, sess: sess}
	if err := w.build(); err != nil {
		return nil, err
	}
	if !cold {
		// One more clean handover of the victim file: the walk above
		// established its facts, this one must ride on them.
		before := ctl.Stats().Snapshot()
		if _, err := sess.MapFile(w.fileIno, w.fileLoc, true); err != nil {
			return nil, err
		}
		if err := sess.UnmapFile(w.fileIno); err != nil {
			return nil, err
		}
		if d := ctl.Stats().Snapshot().Sub(before); d.VerifyScoped != 1 || d.VerifyFull != 0 {
			return nil, fmt.Errorf("attack: warm-up handover of the victim file: %d scoped, %d full verifications, want 1 and 0", d.VerifyScoped, d.VerifyFull)
		}
		return w, nil
	}
	// Cold: the attacker's mount goes away and a new controller mounts
	// the device. It knows the tree from its mount scan and nothing else.
	if err := fs.Close(); err != nil {
		return nil, err
	}
	if w.ctl, err = controller.New(dev, controller.Options{}); err != nil {
		return nil, err
	}
	w.sess = w.ctl.Register(1000, 1000, 0, 0)
	if w.attacker, err = libfs.New(w.sess, libfs.Config{CPUs: 2}); err != nil {
		return nil, err
	}
	return w, w.locate()
}

// build populates the tree through the attacker's LibFS and cycles the
// victims through the controller.
func (w *world) build() error {
	fs, sess := w.attacker, w.sess
	c := fs.NewClient(0)
	// Victim regular file with two data pages.
	f, err := c.Create("/victim.dat", 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(make([]byte, 2*nvm.PageSize), 0); err != nil {
		return err
	}
	f.Close()
	// Victim directory with three children (one subdirectory with a file).
	if err := c.Mkdir("/victimdir", 0o755); err != nil {
		return err
	}
	for _, name := range []string{"/victimdir/a", "/victimdir/b"} {
		g, err := c.Create(name, 0o644)
		if err != nil {
			return err
		}
		g.Close()
	}
	if err := c.Mkdir("/victimdir/sub", 0o755); err != nil {
		return err
	}
	g, err := c.Create("/victimdir/sub/inner", 0o644)
	if err != nil {
		return err
	}
	g.Close()

	// Force everything through a verification cycle so the controller
	// has fileStates (adopted children) and checkpoint baselines.
	if err := sess.UnmapFile(core.RootIno); err != nil {
		return fmt.Errorf("attack: releasing root: %w", err)
	}
	if err := w.locate(); err != nil {
		return err
	}
	// Cycle the victims through map/unmap so their children are adopted
	// and their page sets recorded.
	for _, v := range []struct {
		ino core.Ino
		loc core.FileLoc
	}{{w.dirIno, w.dirLoc}, {w.fileIno, w.fileLoc}} {
		if _, err := sess.MapFile(v.ino, v.loc, true); err != nil {
			return err
		}
		if err := sess.UnmapFile(v.ino); err != nil {
			return err
		}
	}
	return w.locate()
}

// locate finds the victim inos/locations via the controller's records.
func (w *world) locate() error {
	w.fileIno, w.dirIno = 0, 0
	mem := core.Direct(w.dev, 0)
	for _, fi := range w.ctl.Files() {
		name, err := core.ReadDirentName(mem, fi.Loc.Page, fi.Loc.Slot)
		if err != nil {
			continue
		}
		switch name {
		case "victim.dat":
			w.fileIno, w.fileLoc = fi.Ino, fi.Loc
		case "victimdir":
			w.dirIno, w.dirLoc = fi.Ino, fi.Loc
		}
	}
	if w.fileIno == 0 || w.dirIno == 0 {
		return fmt.Errorf("attack: victims not found in controller records")
	}
	return nil
}

// corrupt is the attack skeleton: write-map the target through the
// controller (legitimate!), mutate raw bytes through the attacker's
// address space (the malicious part), release write access, and grade
// the outcome.
func (w *world) corrupt(name string, ino core.Ino, loc core.FileLoc,
	mutate func(info *controller.MapInfo) error) Outcome {
	out := Outcome{Name: name}
	info, err := w.sess.MapFile(ino, loc, true)
	if err != nil {
		out.Err = fmt.Errorf("mapping victim: %w", err)
		return out
	}
	if err := mutate(info); err != nil {
		out.Err = fmt.Errorf("mutating: %w", err)
		return out
	}
	before := w.ctl.Stats().Snapshot()
	_ = w.sess.UnmapFile(ino) // unmap triggers verification
	delta := w.ctl.Stats().Snapshot().Sub(before)
	out.Detected = delta.Corruptions > 0
	_, bad, _ := w.ctl.VerifyAll()
	out.Recovered = bad == 0
	return out
}

// as returns the attacker's raw (but MMU-checked) memory view.
func (w *world) as() core.Mem { return w.sess.AddressSpace() }

// firstIndexPage returns the file's head index page.
func firstIndexPage(info *controller.MapInfo) nvm.PageID { return info.Inode.Head }

// direntPageOf walks the victim directory and returns its first dirent
// data page.
func (w *world) direntPageOf(info *controller.MapInfo) (nvm.PageID, error) {
	p, err := core.IndexEntry(w.as(), info.Inode.Head, 0)
	if err != nil {
		return 0, err
	}
	if p == nvm.NilPage {
		return 0, fmt.Errorf("victim dir has no dirent page")
	}
	return p, nil
}

// findSlot locates the dirent slot of a child by name.
func (w *world) findSlot(dp nvm.PageID, name string) (int, error) {
	for s := 0; s < core.SlotsPerDirPage; s++ {
		n, err := core.ReadDirentName(w.as(), dp, s)
		if err != nil {
			continue
		}
		ino, err := core.DirentIno(w.as(), dp, s)
		if err != nil || ino == 0 {
			continue
		}
		if n == name {
			return s, nil
		}
	}
	return -1, fmt.Errorf("child %q not found", name)
}

// Handcrafted returns the paper's eleven named attacks (§6.5 lists four
// examples; the rest come from §2.3.2's vulnerability catalogue).
func Handcrafted() []Scenario {
	mk := func(name string, run func(w *world) Outcome) Scenario { return Scenario{Name: name, body: run} }
	return []Scenario{
		mk("A1-index-points-outside-device", func(w *world) Outcome {
			// §6.5 attack (1): pointers redirected at memory the file
			// does not own (the DRAM-exfiltration analogue).
			return w.corrupt("A1-index-points-outside-device", w.fileIno, w.fileLoc,
				func(info *controller.MapInfo) error {
					return core.SetIndexEntry(w.as(), firstIndexPage(info), 0, nvm.PageID(1<<40))
				})
		}),
		mk("A2-remove-non-empty-directory", func(w *world) Outcome {
			// §6.5 attack (2) / §2.3.2 semantic attack: disconnect a
			// subtree by retiring a non-empty directory's dirent.
			return w.corrupt("A2-remove-non-empty-directory", w.dirIno, w.dirLoc,
				func(info *controller.MapInfo) error {
					dp, err := w.direntPageOf(info)
					if err != nil {
						return err
					}
					slot, err := w.findSlot(dp, "sub")
					if err != nil {
						return err
					}
					return core.CommitDirentIno(w.as(), dp, slot, 0)
				})
		}),
		mk("A3-slash-in-file-name", func(w *world) Outcome {
			// §6.5 attack (3): trick another LibFS into resolving the
			// wrong file.
			return w.corrupt("A3-slash-in-file-name", w.dirIno, w.dirLoc,
				func(info *controller.MapInfo) error {
					dp, err := w.direntPageOf(info)
					if err != nil {
						return err
					}
					slot, err := w.findSlot(dp, "a")
					if err != nil {
						return err
					}
					evil := []byte{7, 0}
					evil = append(evil, []byte("../pwnd")...)
					return w.as().Write(dp, core.SlotOffset(slot)+core.DirentNameLenOff, evil)
				})
		}),
		mk("A4-index-page-cycle", func(w *world) Outcome {
			// §6.5 attack (4): loops within a file's index pages.
			return w.corrupt("A4-index-page-cycle", w.fileIno, w.fileLoc,
				func(info *controller.MapInfo) error {
					return core.SetNextIndexPage(w.as(), firstIndexPage(info), firstIndexPage(info))
				})
		}),
		mk("A5-index-points-at-reserved-page", func(w *world) Outcome {
			return w.corrupt("A5-index-points-at-reserved-page", w.fileIno, w.fileLoc,
				func(info *controller.MapInfo) error {
					// PageID 0 is the nil sentinel, so the lowest forgeable
					// reserved target is the root inode page.
					return core.SetIndexEntry(w.as(), firstIndexPage(info), 1, core.RootInodePage)
				})
		}),
		mk("A6-steal-other-files-page", func(w *world) Outcome {
			// Double-reference: aim the file's index at a page owned by
			// the victim directory.
			return w.corrupt("A6-steal-other-files-page", w.fileIno, w.fileLoc,
				func(info *controller.MapInfo) error {
					// The dir's head index page id is recorded in its inode,
					// readable through the parent (root) mapping the attacker
					// legitimately holds.
					dirInfo, err := w.sess.MapFile(w.dirIno, w.dirLoc, false)
					if err != nil {
						return err
					}
					return core.SetIndexEntry(w.as(), firstIndexPage(info), 3, dirInfo.Inode.Head)
				})
		}),
		mk("A7-duplicate-names", func(w *world) Outcome {
			// §2.3.2: two files with the same name under one directory.
			return w.corrupt("A7-duplicate-names", w.dirIno, w.dirLoc,
				func(info *controller.MapInfo) error {
					dp, err := w.direntPageOf(info)
					if err != nil {
						return err
					}
					slot, err := w.findSlot(dp, "b")
					if err != nil {
						return err
					}
					return core.WriteDirentName(w.as(), dp, slot, "a")
				})
		}),
		mk("A8-directory-contains-itself", func(w *world) Outcome {
			// §2.3.2: loops in directory paths.
			return w.corrupt("A8-directory-contains-itself", w.dirIno, w.dirLoc,
				func(info *controller.MapInfo) error {
					dp, err := w.direntPageOf(info)
					if err != nil {
						return err
					}
					slot, err := w.findSlot(dp, "a")
					if err != nil {
						return err
					}
					off := core.SlotOffset(slot)
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], uint64(w.dirIno))
					return w.as().Write(dp, off, b[:])
				})
		}),
		mk("A9-permission-self-upgrade", func(w *world) Outcome {
			// I4: flip the cached mode bits without a chmod call.
			return w.corrupt("A9-permission-self-upgrade", w.fileIno, w.fileLoc,
				func(info *controller.MapInfo) error {
					in := info.Inode
					in.Mode = 0o777
					in.UID = 0
					var b [core.InodeSize]byte
					core.EncodeInode(b[:], &in)
					return w.as().Write(w.fileLoc.Page, core.SlotOffset(w.fileLoc.Slot), b[:])
				})
		}),
		mk("A10-invalid-type-byte", func(w *world) Outcome {
			return w.corrupt("A10-invalid-type-byte", w.fileIno, w.fileLoc,
				func(info *controller.MapInfo) error {
					return w.as().Write(w.fileLoc.Page, core.SlotOffset(w.fileLoc.Slot)+8, []byte{0xEE})
				})
		}),
		mk("A11-forged-inode-number", func(w *world) Outcome {
			// A dirent claiming an inode number the controller never
			// issued.
			return w.corrupt("A11-forged-inode-number", w.dirIno, w.dirLoc,
				func(info *controller.MapInfo) error {
					dp, err := w.direntPageOf(info)
					if err != nil {
						return err
					}
					slot, err := w.findSlot(dp, "b")
					if err != nil {
						return err
					}
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], 0xDEAD0001)
					return w.as().Write(dp, core.SlotOffset(slot), b[:])
				})
		}),
	}
}

// OwnDirent returns the attacks on the one part of a shared regular
// file's metadata that lives outside its own pages: its dirent slot in
// the parent directory, which a write grant must map — the inode is in
// it — and which therefore exposes the file's name to the grantee.
// Beyond "detected and recovered" these require what §4.3 promises the
// other trust domains: the rolled-back file is theirs to map again, not
// quarantined to the attacker, under the name it had.
func OwnDirent() []Scenario {
	mk := func(name string, raw []byte) Scenario {
		return Scenario{Name: name, body: func(w *world) Outcome {
			victim := w.ctl.Register(1000, 1000, 0, 0) // another trust domain
			out := w.corrupt(name, w.fileIno, w.fileLoc, func(*controller.MapInfo) error {
				return w.as().Write(w.fileLoc.Page, core.SlotOffset(w.fileLoc.Slot)+core.DirentNameLenOff, raw)
			})
			if out.Err != nil {
				return out
			}
			if _, err := victim.MapFile(w.fileIno, w.fileLoc, false); err != nil {
				out.Err = fmt.Errorf("victim domain cannot map the file after the rollback: %w", err)
			} else if got, err := core.ReadDirentName(core.Direct(w.dev, 0), w.fileLoc.Page, w.fileLoc.Slot); err != nil || got != "victim.dat" {
				out.Err = fmt.Errorf("name after the rollback = %q, %v", got, err)
			}
			return out
		}}
	}
	return []Scenario{
		mk("D1-own-name-slash", append(u16bytes(3), "a/b"...)),
		mk("D2-own-namelen-overlong", u16bytes(0xFFFF)),
	}
}

// DanglingFree returns the attacks that change a shared regular file
// without a store: the writer frees one of the file's data pages
// (FreePages, what a truncate calls) and leaves the index entry naming
// it, so the file references a page the allocator will hand to somebody
// else. No dirty bit reports it — run warm, the release must walk anyway.
// The page is the allocator's and no checkpoint holds it, so "recovered"
// is either of the two ends §4.3 allows, both at the freer's release: the
// tree verifies clean (the rollback's preserve step drew the page back
// into the freer's pool and the walk rebound it) and the next domain's
// handover is uneventful, or the file is private to the freer and no
// other domain is served it. Never: carried over as clean, for the next
// full walk to blame on whoever releases then.
//
// In F2 another domain's allocation takes the freed page before the
// freer releases, which leaves the second end only — and the file's
// state naming a page of somebody else's pool for as long as it stays
// quarantined. The freer may map its private file as often as it likes,
// for reading or for writing: no grant may reach that page.
func DanglingFree() []Scenario {
	mk := func(name string, taken bool) Scenario {
		return Scenario{Name: name, body: func(w *world) Outcome {
			victim := w.ctl.Register(1000, 1000, 0, 0) // another trust domain
			var freed nvm.PageID
			out := w.corrupt(name, w.fileIno, w.fileLoc, func(info *controller.MapInfo) (err error) {
				if freed, err = core.IndexEntry(w.as(), firstIndexPage(info), 0); err != nil {
					return err
				}
				if err = w.sess.FreePages([]nvm.PageID{freed}); err != nil || !taken {
					return err
				}
				for tries := 0; tries < 256; tries++ {
					got, err := victim.AllocPages(0, 1)
					if err != nil {
						return err
					}
					if got[0] == freed {
						return nil
					}
				}
				return fmt.Errorf("page %d did not come back out of the allocator", freed)
			})
			if out.Err != nil {
				return out
			}
			before := w.ctl.Stats().Snapshot()
			_, err := victim.MapFile(w.fileIno, w.fileLoc, true)
			switch {
			case errors.Is(err, controller.ErrQuarantined):
				out.Recovered = true
				for _, write := range []bool{false, true} {
					if _, err = w.sess.MapFile(w.fileIno, w.fileLoc, write); err != nil {
						out.Recovered = false
					} else if got := w.sess.AddressSpace().PermOf(freed); taken && got != mmu.PermNone {
						out.Err = fmt.Errorf("the freer's remap (write=%v) of its quarantined file maps page %d, now in another session's pool, %v", write, freed, got)
						return out
					}
				}
			case err == nil && !taken:
				err = victim.UnmapFile(w.fileIno)
				out.Recovered = out.Recovered && err == nil && w.ctl.Stats().Snapshot().Sub(before).Corruptions == 0
			default:
				out.Recovered = false
			}
			if !out.Recovered {
				out.Err = fmt.Errorf("not settled at the freer's release (last error: %v)", err)
			}
			return out
		}}
	}
	return []Scenario{
		mk("F1-free-referenced-data-page", false),
		mk("F2-freed-page-in-another-pool", true),
	}
}

// GroupCollusion returns what two sessions of one trust group can do
// together while one of them, the holder, has the victim file
// write-mapped. Its stores are not verified until it releases, so a
// co-member's grant meanwhile is built from core state the group wrote —
// and a trust group widens "what a LibFS may corrupt" to the group, no
// further. In G1 and G2 the holder points an index entry at a page of a
// third domain's pool and the co-member maps the file, for reading (G1)
// or writing (G2): no grant may reach that page, and the holder's release
// is caught as usual. G3 is the legitimate case, nothing to catch: the
// holder appends a page from its own pool, and the co-member's write
// grant must reach it.
func GroupCollusion() []Scenario {
	mk := func(name string, write, grow bool) Scenario {
		return Scenario{Name: name, body: func(w *world) Outcome {
			member := w.ctl.Register(1000, 1000, 0, w.sess.Group())
			owner, want := w.ctl.Register(1000, 1000, 0, 0), mmu.PermNone
			if grow {
				owner, want = w.sess, mmu.PermWrite
			}
			out := w.corrupt(name, w.fileIno, w.fileLoc, func(info *controller.MapInfo) error {
				pages, err := owner.AllocPages(0, 1)
				if err != nil {
					return err
				}
				if err := core.SetIndexEntry(w.as(), firstIndexPage(info), 2, pages[0]); err != nil {
					return err
				}
				if err := core.UpdateInodeSizeMtime(w.as(), w.fileLoc, 3*nvm.PageSize, 1); err != nil {
					return err
				}
				if _, err := member.MapFile(w.fileIno, w.fileLoc, write); err != nil {
					return err
				}
				if got := member.AddressSpace().PermOf(pages[0]); got != want {
					return fmt.Errorf("the co-member's map (write=%v) gives page %d %v, want %v", write, pages[0], got, want)
				}
				return nil
			})
			out.Detected = out.Detected != grow // G3: nothing to detect
			return out
		}}
	}
	return []Scenario{
		mk("G1-co-member-read-map", false, false),
		mk("G2-co-member-write-map", true, false),
		mk("G3-co-writer-grows-file", true, true),
	}
}

// Adoption returns the attacks on a directory's adoption of the files its
// dirents name. A session of another trust group that may write the root
// publishes a file whose Head names the victim file's index page (A12) or
// a page that is free until the victim allocates it (A13), write-maps the
// file and stores through it. A directory's release binds a new file only
// the pages its writers allocated, so the store faults, the file's release
// is caught (I2), the victim's pages are as it left them — though it grew
// its file or wrote its page meanwhile, and the attacker's file names
// them — and once the attacker unlinks its file the tree verifies clean.
func Adoption() []Scenario {
	mk := func(name string, free bool) Scenario {
		return Scenario{Name: name, body: func(w *world) Outcome {
			out := Outcome{Name: name}
			mem := core.Direct(w.dev, 0)
			var victim []nvm.PageID
			in, err := core.ReadDirentInode(mem, w.fileLoc.Page, w.fileLoc.Slot)
			if err == nil {
				err = core.WalkFile(mem, in.Head, int(w.dev.NumPages()),
					func(p nvm.PageID) bool { victim = append(victim, p); return true },
					func(_ uint64, p nvm.PageID) bool { victim = append(victim, p); return true })
			}
			head, target := in.Head, victim[len(victim)-1]
			if free && err == nil {
				var got []nvm.PageID
				if got, err = w.sess.AllocPages(0, 1); err == nil {
					head, target, err = got[0], got[0], w.sess.FreePages(got)
				}
			}
			a := w.ctl.Register(2000, 2000, 0, 0)
			var evil core.Ino
			var loc core.FileLoc
			if err == nil {
				evil, loc, err = w.publish(a, head)
			}
			for tries := 0; free && err == nil; tries++ {
				var got []nvm.PageID
				if got, err = w.sess.AllocPages(0, 1); tries == 256 {
					err = fmt.Errorf("page %d did not come back out of the allocator", head)
				} else if err == nil && got[0] == head {
					victim = append(victim, head)
					break
				}
			}
			if err == nil {
				_, err = a.MapFile(evil, loc, true)
			}
			if err != nil {
				out.Err = err
				return out
			}
			if err := a.AddressSpace().Write(target, 0, []byte("PWNED")); !errors.Is(err, mmu.ErrFault) {
				out.Err = fmt.Errorf("the attacker's store to page %d through its file: %v, want a fault", target, err)
				return out
			}
			// Meanwhile the victim writes the page it got back, or grows its
			// file by a page named in the index the attacker's Head names.
			if free {
				err = w.sess.AddressSpace().Write(head, 0, []byte("victim data"))
			} else if _, err = w.sess.MapFile(w.fileIno, w.fileLoc, true); err == nil {
				var got []nvm.PageID
				if got, err = w.sess.AllocPages(0, 1); err == nil {
					victim = append(victim, got[0])
					err = errors.Join(w.sess.AddressSpace().Write(got[0], 0, []byte("grown")),
						core.SetIndexEntry(w.sess.AddressSpace(), head, 2, got[0]))
				}
				err = errors.Join(err, w.sess.UnmapFile(w.fileIno))
			}
			if err != nil {
				out.Err = err
				return out
			}
			before := make([][]byte, len(victim))
			for i, p := range victim {
				before[i] = append([]byte(nil), w.dev.Page(p)...)
			}
			st := w.ctl.Stats().Snapshot()
			_ = a.UnmapFile(evil)
			out.Detected = w.ctl.Stats().Snapshot().Sub(st).Corruptions > 0
			for i, p := range victim {
				if string(w.dev.Page(p)) != string(before[i]) {
					out.Err = fmt.Errorf("victim page %d changed by the attacker's release", p)
					return out
				}
			}
			if _, err = a.MapFile(core.RootIno, core.RootLoc(), true); err == nil {
				err = core.CommitDirentIno(a.AddressSpace(), loc.Page, loc.Slot, 0)
				err = errors.Join(err, a.UnmapFile(core.RootIno))
				_, rerr := a.RemoveFiles([]controller.Removal{{Ino: evil}})
				err = errors.Join(err, rerr)
			}
			_, bad, _ := w.ctl.VerifyAll()
			out.Recovered, out.Err = bad == 0, err
			return out
		}}
	}
	return []Scenario{
		mk("A12-adopt-victim-pages", false),
		mk("A13-adopt-free-page", true),
	}
}

// publish write-maps the root through s, names in its first free dirent
// slot a regular file of s whose chain starts at head, and releases the
// root, whose verification adopts the file.
func (w *world) publish(s *controller.Session, head nvm.PageID) (core.Ino, core.FileLoc, error) {
	info, err := s.MapFile(core.RootIno, core.RootLoc(), true)
	if err != nil {
		return 0, core.FileLoc{}, err
	}
	as := s.AddressSpace()
	loc := core.FileLoc{Slot: -1}
	if loc.Page, err = core.IndexEntry(as, info.Inode.Head, 0); err == nil {
		for i := 0; i < core.SlotsPerDirPage && loc.Slot < 0; i++ {
			if ino, err := core.DirentIno(as, loc.Page, i); err == nil && ino == 0 {
				loc.Slot = i
			}
		}
		if loc.Slot < 0 {
			err = fmt.Errorf("no free root dirent slot")
		}
	}
	var inos []core.Ino
	if err == nil {
		inos, err = s.AllocInos(0, 1)
	}
	if err != nil {
		return 0, loc, errors.Join(err, s.UnmapFile(core.RootIno))
	}
	uid, gid := s.Cred()
	in := core.Inode{Ino: inos[0], Type: core.TypeReg, Mode: 0o644, UID: uid, GID: gid, Head: head}
	err = errors.Join(core.WriteInodeBody(as, loc.Page, core.SlotOffset(loc.Slot), &in),
		core.WriteDirentName(as, loc.Page, loc.Slot, "evil"))
	as.Fence()
	err = errors.Join(err, core.CommitDirentIno(as, loc.Page, loc.Slot, in.Ino), s.UnmapFile(core.RootIno))
	return in.Ino, loc, err
}
