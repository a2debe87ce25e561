package attack

import (
	"encoding/binary"
	"fmt"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/nvm"
)

// mutation is one scripted corruption of a verifier-checked field,
// emulating a buggy LibFS (§6.5: "for each integrity check in the
// verifier, we create an automated script to corrupt the relevant
// metadata").
type mutation struct {
	name   string
	target string // "file" or "dir"
	apply  func(w *world, info *controller.MapInfo) error
}

// inodeField writes raw bytes at an offset inside the victim's inode.
func inodeField(name string, off int, val []byte) mutation {
	return mutation{name: name, target: "file", apply: func(w *world, info *controller.MapInfo) error {
		return w.as().Write(w.fileLoc.Page, core.SlotOffset(w.fileLoc.Slot)+off, val)
	}}
}

func u64bytes(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func u32bytes(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

func u16bytes(v uint16) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return b[:]
}

// mutations enumerates the scripted corruptions, grouped by the
// invariant they violate. Values are chosen to be unambiguously
// invalid (huge page ids, illegal types, out-of-range modes, foreign
// uids) so that every scenario must trip the verifier.
func mutations() []mutation {
	var ms []mutation

	// --- I1: inode field validity (victim regular file) ---------------
	for i, v := range []uint64{0, 7, 0xFFFFFFFF, uint64(core.RootIno)} {
		ms = append(ms, inodeField(fmt.Sprintf("I1-ino-%d", i), 0, u64bytes(v)))
	}
	for i, v := range []byte{3, 4, 99, 0xFF} {
		ms = append(ms, inodeField(fmt.Sprintf("I1-type-%d", i), 8, []byte{v}))
	}
	for i, v := range []uint16{0o10000, 0xFFFF, 0o7777 + 1} {
		ms = append(ms, inodeField(fmt.Sprintf("I1-mode-%d", i), 10, u16bytes(v)))
	}
	for i, v := range []uint64{1 << 62, ^uint64(0), 1 << 45} {
		ms = append(ms, inodeField(fmt.Sprintf("I1-size-%d", i), 24, u64bytes(v)))
	}

	// --- I4: permission fields vs shadow -------------------------------
	for i, v := range []uint32{0, 4242, 0xFFFFFFFF} {
		ms = append(ms, inodeField(fmt.Sprintf("I4-uid-%d", i), 12, u32bytes(v)))
	}
	for i, v := range []uint32{0, 31337, 0xFFFFFFFF} {
		ms = append(ms, inodeField(fmt.Sprintf("I4-gid-%d", i), 16, u32bytes(v)))
	}
	for i, v := range []uint16{0o777, 0o7777, 0} {
		ms = append(ms, inodeField(fmt.Sprintf("I4-mode-%d", i), 10, u16bytes(v)))
	}

	// --- I2: head / index-chain validity --------------------------------
	for i, v := range []uint64{1 << 40, ^uint64(0), uint64(core.RootInodePage)} {
		ms = append(ms, inodeField(fmt.Sprintf("I2-head-%d", i), 32, u64bytes(v)))
	}
	idxEntry := func(name string, entry int, page uint64) mutation {
		return mutation{name: name, target: "file", apply: func(w *world, info *controller.MapInfo) error {
			return w.as().WriteU64(info.Inode.Head, entry*8, page)
		}}
	}
	for i, v := range []uint64{1 << 40, ^uint64(0) >> 1, uint64(core.RootInodePage), 1} {
		ms = append(ms, idxEntry(fmt.Sprintf("I2-index-entry-%d", i), 0, v))
	}
	// Duplicate data page within the file.
	ms = append(ms, mutation{name: "I2-duplicate-data-page", target: "file",
		apply: func(w *world, info *controller.MapInfo) error {
			p, err := core.IndexEntry(w.as(), info.Inode.Head, 0)
			if err != nil {
				return err
			}
			return core.SetIndexEntry(w.as(), info.Inode.Head, 2, p)
		}})
	// Index chain loops of different shapes.
	ms = append(ms, mutation{name: "I2-chain-self-loop", target: "file",
		apply: func(w *world, info *controller.MapInfo) error {
			return core.SetNextIndexPage(w.as(), info.Inode.Head, info.Inode.Head)
		}})
	ms = append(ms, mutation{name: "I2-chain-to-data-page", target: "file",
		apply: func(w *world, info *controller.MapInfo) error {
			p, err := core.IndexEntry(w.as(), info.Inode.Head, 0)
			if err != nil {
				return err
			}
			return core.SetNextIndexPage(w.as(), info.Inode.Head, p)
		}})
	ms = append(ms, mutation{name: "I2-chain-out-of-range", target: "file",
		apply: func(w *world, info *controller.MapInfo) error {
			return core.SetNextIndexPage(w.as(), info.Inode.Head, nvm.PageID(1<<33))
		}})

	// --- dirent corruption in the victim directory ---------------------
	direntMut := func(name, child string, fn func(w *world, dp nvm.PageID, slot int) error) mutation {
		return mutation{name: name, target: "dir", apply: func(w *world, info *controller.MapInfo) error {
			dp, err := w.direntPageOf(info)
			if err != nil {
				return err
			}
			slot, err := w.findSlot(dp, child)
			if err != nil {
				return err
			}
			return fn(w, dp, slot)
		}}
	}
	// I1: name length overflows / zero with live ino / slash bytes.
	for i, l := range []uint16{core.MaxNameLen + 1, 0xFFFF, 0} {
		l := l
		ms = append(ms, direntMut(fmt.Sprintf("I1-namelen-%d", i), "a",
			func(w *world, dp nvm.PageID, slot int) error {
				return w.as().Write(dp, core.SlotOffset(slot)+core.DirentNameLenOff, u16bytes(l))
			}))
	}
	for i, evil := range []string{"x/y", "/abs", "..", ".", "nul\x00byte"} {
		evil := evil
		ms = append(ms, direntMut(fmt.Sprintf("I1-name-%d", i), "a",
			func(w *world, dp nvm.PageID, slot int) error {
				raw := append(u16bytes(uint16(len(evil))), []byte(evil)...)
				return w.as().Write(dp, core.SlotOffset(slot)+core.DirentNameLenOff, raw)
			}))
	}
	// I1: duplicate names.
	ms = append(ms, direntMut("I1-dup-name", "b",
		func(w *world, dp nvm.PageID, slot int) error {
			return core.WriteDirentName(w.as(), dp, slot, "a")
		}))
	// I2: child ino forged / duplicated / self.
	for i, forged := range []uint64{0xDEAD0001, ^uint64(0), 1 << 35} {
		forged := forged
		ms = append(ms, direntMut(fmt.Sprintf("I2-child-ino-%d", i), "a",
			func(w *world, dp nvm.PageID, slot int) error {
				return w.as().Write(dp, core.SlotOffset(slot), u64bytes(forged))
			}))
	}
	ms = append(ms, direntMut("I2-child-ino-duplicate", "a",
		func(w *world, dp nvm.PageID, slot int) error {
			other, err := w.findSlot(dp, "b")
			if err != nil {
				return err
			}
			ino, err := core.DirentIno(w.as(), dp, other)
			if err != nil {
				return err
			}
			return w.as().Write(dp, core.SlotOffset(slot), u64bytes(uint64(ino)))
		}))
	ms = append(ms, direntMut("I2-child-is-parent", "a",
		func(w *world, dp nvm.PageID, slot int) error {
			return w.as().Write(dp, core.SlotOffset(slot), u64bytes(uint64(w.dirIno)))
		}))
	// I1/I4 on a child's embedded inode.
	for i, t := range []byte{5, 0x7F, 0xFE} {
		t := t
		ms = append(ms, direntMut(fmt.Sprintf("I1-child-type-%d", i), "b",
			func(w *world, dp nvm.PageID, slot int) error {
				return w.as().Write(dp, core.SlotOffset(slot)+8, []byte{t})
			}))
	}
	for i, u := range []uint32{0, 777777} {
		u := u
		ms = append(ms, direntMut(fmt.Sprintf("I4-child-uid-%d", i), "b",
			func(w *world, dp nvm.PageID, slot int) error {
				return w.as().Write(dp, core.SlotOffset(slot)+12, u32bytes(u))
			}))
	}
	// I3: retire the subdirectory's dirent while it has children.
	ms = append(ms, direntMut("I3-disconnect-subtree", "sub",
		func(w *world, dp nvm.PageID, slot int) error {
			return core.CommitDirentIno(w.as(), dp, slot, 0)
		}))
	// I2: the directory's own index chain corrupted.
	ms = append(ms, mutation{name: "I2-dir-index-forged", target: "dir",
		apply: func(w *world, info *controller.MapInfo) error {
			return w.as().WriteU64(info.Inode.Head, 8, uint64(1<<39))
		}})
	ms = append(ms, mutation{name: "I2-dir-chain-loop", target: "dir",
		apply: func(w *world, info *controller.MapInfo) error {
			return core.SetNextIndexPage(w.as(), info.Inode.Head, info.Inode.Head)
		}})

	return ms
}

// Scripted expands the mutation catalogue into scenarios: every
// mutation alone, and pairwise combinations within the same target
// ("we also run different scripts together to cause more complex
// corruption", §6.5). The expansion yields 134+ scenarios.
func Scripted() []Scenario {
	ms := mutations()
	var out []Scenario

	runOne := func(name string, muts []mutation) Scenario {
		return Scenario{Name: name, body: func(w *world) Outcome {
			target := muts[0].target
			ino, loc := w.fileIno, w.fileLoc
			if target == "dir" {
				ino, loc = w.dirIno, w.dirLoc
			}
			return w.corrupt(name, ino, loc, func(info *controller.MapInfo) error {
				for i, m := range muts {
					if err := m.apply(w, info); err != nil {
						// In combinations, an earlier mutation may have
						// destroyed the landmark a later one looks up
						// (e.g. renamed the child it targets). The first
						// corruption is in place, which is what matters.
						if i > 0 {
							continue
						}
						return err
					}
				}
				return nil
			})
		}}
	}

	for _, m := range ms {
		out = append(out, runOne("scripted/"+m.name, []mutation{m}))
	}
	// Pairwise combinations within the same target (stride keeps the
	// count in the paper's ballpark rather than quadratic).
	byTarget := map[string][]mutation{}
	for _, m := range ms {
		byTarget[m.target] = append(byTarget[m.target], m)
	}
	for target, group := range byTarget {
		for i := 0; i+1 < len(group); i++ {
			a, b := group[i], group[i+1]
			name := fmt.Sprintf("scripted-combo/%s/%s+%s", target, a.name, b.name)
			out = append(out, runOne(name, []mutation{a, b}))
		}
		for i := 0; i+3 < len(group); i += 3 {
			a, b, c := group[i], group[i+2], group[i+3]
			name := fmt.Sprintf("scripted-combo3/%s/%s+%s+%s", target, a.name, b.name, c.name)
			out = append(out, runOne(name, []mutation{a, b, c}))
		}
	}
	return out
}

// All returns every §6.5 scenario: handcrafted attacks plus the
// scripted battery.
func All() []Scenario {
	return append(Handcrafted(), Scripted()...)
}
