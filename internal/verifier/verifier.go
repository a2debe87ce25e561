// Package verifier implements Trio's integrity verifier (paper §4.3):
// a trusted, standalone component that checks the core state of a
// single file online, when its write access transfers from one LibFS to
// another (and after crash recovery). It enforces the paper's four
// invariants:
//
//	I1 — fields in each inode and directory entry are valid (legal type,
//	     legal mode, legal names, no duplicate names in a directory).
//	I2 — a file's inode number, index pages and data pages are valid:
//	     every referenced page either belonged to the file before the
//	     LibFS mapped it or was allocated to that LibFS by the kernel
//	     controller; nothing is doubly referenced; index chains are
//	     acyclic.
//	I3 — the directory hierarchy stays a connected tree: a child
//	     directory that disappeared since the checkpoint must be
//	     unmapped and empty (no orphaned subtrees).
//	I4 — access permissions are correctly enforced: the permission
//	     fields cached in an inode must match the kernel controller's
//	     shadow inode table, and a newly created file's uid/gid must be
//	     the creator's credentials.
//
// The verifier reads the core state directly (it is trusted) but knows
// nothing about any LibFS's auxiliary state — by design, since auxiliary
// state is private and customizable. Everything it needs beyond the
// bytes is supplied by the Env interface, which the kernel controller
// implements from its global bookkeeping (paper §4.3, check I2).
package verifier

import (
	"errors"
	"fmt"
	"sort"

	"trio/internal/core"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// Violation describes one failed integrity check.
type Violation struct {
	// Invariant is "I1", "I2", "I3" or "I4".
	Invariant string
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// ShadowInfo is the controller's ground-truth view of a file's identity
// and permissions (the shadow inode table, §4.1/§4.3-I4).
type ShadowInfo struct {
	Mode uint16
	UID  uint32
	GID  uint32
	Type core.FileType
}

// ChildRef describes one live directory entry found during a directory
// check. The controller uses the list to refresh its ino→location map
// and to adopt newly created files into the shadow table.
type ChildRef struct {
	Ino   core.Ino
	Name  string
	Loc   core.FileLoc
	Inode core.Inode
}

// Env is the verifier's window into the kernel controller's global file
// system information. All methods refer to one verification context:
// the file under check and the LibFS releasing its write access.
type Env interface {
	// TotalPages is the device capacity; any page id at or beyond it is
	// invalid.
	TotalPages() uint64
	// PageInFile reports whether page p was part of this file's core
	// state when the LibFS mapped it.
	PageInFile(p nvm.PageID) bool
	// PageAllocated reports whether page p is currently allocated (but
	// not yet bound into a verified file) to the LibFS under check.
	PageAllocated(p nvm.PageID) bool
	// PageOwner reports which other file (≠ the one under check)
	// currently owns page p, if any.
	PageOwner(p nvm.PageID) (core.Ino, bool)
	// InoKnown reports whether ino names an existing verified file.
	InoKnown(ino core.Ino) bool
	// InoAllocated reports whether ino was handed to the LibFS under
	// check by the controller and is not yet bound to a verified file.
	InoAllocated(ino core.Ino) bool
	// Shadow returns the ground-truth permission record for ino.
	Shadow(ino core.Ino) (ShadowInfo, bool)
	// CredFor returns the credentials that legitimately own ino when it
	// is a new file: normally the LibFS under check; in a trusted full
	// scan, the LibFS the controller issued the ino to.
	CredFor(ino core.Ino) (uid, gid uint32)
	// CheckpointChildren returns the directory's children as of the
	// checkpoint taken when write access was granted, and whether a
	// checkpoint exists.
	CheckpointChildren() ([]ChildRef, bool)
	// DirDeletedOK reports whether deleting child directory ino is
	// consistent: it is not mapped by any LibFS and has no live entries.
	DirDeletedOK(ino core.Ino) bool
}

// IndexFacts is an optional extension of Env: a controller that tracks
// stores to metadata pages (the MMU dirty bits it harvests) can vouch
// that a regular file's index pages are byte-for-byte what the last
// clean walk read, and the I2 facts that walk established still hold.
type IndexFacts interface {
	// IndexUnchanged reports whether the chain that starts at head is the
	// one the file's last clean walk verified, with no store to any of its
	// index pages since. The verifier then skips the walk (Report.Scoped).
	IndexUnchanged(head nvm.PageID) bool
}

// Report is the outcome of verifying one file.
type Report struct {
	Ino        core.Ino
	Violations []Violation
	// Pages is the file's page set (index + data pages) as discovered
	// by the walk; on a clean report the controller records it as the
	// file's new core-state extent.
	Pages []nvm.PageID
	// Index is the index pages among Pages, in chain order.
	Index []nvm.PageID
	// Scoped reports that the page checks were carried over from the
	// file's last clean walk (Env implements IndexFacts and vouched for
	// the chain): no index page was read, Pages and Index are empty and
	// the page set the controller recorded then stands. The dirent and
	// inode checks (I1, I4, size) ran as always.
	Scoped bool
	// Children lists the live entries of a directory (empty for regular
	// files).
	Children []ChildRef
	// Inode is the decoded inode of the checked file.
	Inode core.Inode
	// Truncated reports that the violation list hit its cap
	// (maxViolations): adversarially corrupted state can manufacture a
	// violation per dirent slot, and the report must stay bounded no
	// matter what the bytes say.
	Truncated bool

	// buf stages the dirent read (see core.ReadDirentInto); keeping it
	// in the report means the hot verification path does no per-call
	// buffer allocation.
	buf [core.DirentSize]byte
	// seen is the walk's visited-page bitset (I2: no page referenced
	// twice), one bit per device page, reused across verifications.
	seen []uint64
}

// maxViolations bounds a report's violation list. One corrupt page can
// produce at most a few violations per slot; anything past the cap adds
// no diagnostic value and only lets an adversary inflate the trusted
// side's memory use.
const maxViolations = 256

// OK reports whether the file passed every check.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Dirent returns the checked file's dirent slot as the verification read
// it (inode and name); it is overwritten by the report's next use.
func (r *Report) Dirent() *[core.DirentSize]byte { return &r.buf }

// Verifier checks files against the shared core-state definition. It is
// a standalone trusted component: it holds direct (unchecked) access to
// the device and is invoked by the kernel controller.
type Verifier struct {
	mem core.Mem
}

// New creates a verifier with trusted access to the device.
func New(dev *nvm.Device) *Verifier {
	return &Verifier{mem: core.Direct(dev, 0)}
}

// NewWithMem creates a verifier over an arbitrary Mem (tests).
func NewWithMem(m core.Mem) *Verifier { return &Verifier{mem: m} }

func (r *Report) addf(inv, format string, args ...any) {
	if len(r.Violations) >= maxViolations {
		r.Truncated = true
		return
	}
	r.Violations = append(r.Violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// VerifyFile checks the file whose inode sits at loc. isRoot relaxes the
// name check for the root directory (whose dirent has no name).
func (v *Verifier) VerifyFile(env Env, ino core.Ino, loc core.FileLoc, isRoot bool) (*Report, error) {
	r := &Report{}
	if err := v.VerifyFileInto(r, env, ino, loc, isRoot); err != nil {
		return nil, err
	}
	return r, nil
}

// VerifyFileInto is VerifyFile writing into a caller-owned report — the
// batch-verification form: a drainer checking a stream of small files
// reuses one report instead of allocating per file. The report is fully
// reset; Violations, Pages and Index reuse their backing arrays, Children is
// detached (callers retain it as the directory's verified child list).
func (v *Verifier) VerifyFileInto(r *Report, env Env, ino core.Ino, loc core.FileLoc, isRoot bool) error {
	r.Ino = ino
	r.Violations = r.Violations[:0]
	r.Pages = r.Pages[:0]
	r.Index = r.Index[:0]
	r.Scoped = false
	r.Children = nil
	r.Inode = core.Inode{}
	r.Truncated = false
	defer func() {
		if telemetry.On() {
			mReports.IncOn(int(ino))
			if n := len(r.Violations); n > 0 {
				mBadReports.IncOn(int(ino))
				mViolations.AddOn(int(ino), int64(n))
			}
		}
	}()

	// One media access covers the whole dirent: inode and name together
	// (the slot is self-contained, and two extra reads per verification
	// would double the charged boundary cost of every small op).
	in, name, nameErr := core.ReadDirentInto(v.mem, loc.Page, loc.Slot, &r.buf)
	if nameErr != nil && !errors.Is(nameErr, core.ErrBadNameLen) {
		// Unreadable slot bytes are a verification failure, not a
		// verifier failure: the caller must see a Report (and roll the
		// file back), whatever is in the slot.
		r.addf("I1", "unreadable inode at page %d slot %d: %v", loc.Page, loc.Slot, nameErr)
		return nil
	}
	r.Inode = in

	// ---- I1: inode field validity -------------------------------------
	if in.Ino != ino {
		r.addf("I1", "inode number %d does not match expected %d", in.Ino, ino)
	}
	if in.Type != core.TypeReg && in.Type != core.TypeDir {
		r.addf("I1", "invalid file type %d", in.Type)
		return nil // nothing further can be checked sensibly
	}
	if in.Mode > 0o7777 {
		r.addf("I1", "invalid mode %#o", in.Mode)
	}
	if nameErr != nil {
		r.addf("I1", "unreadable name: %v", nameErr)
	} else if !isRoot {
		if nerr := core.ValidateNameBytes(name); nerr != nil {
			r.addf("I1", "invalid name: %v", nerr)
		}
	}
	if in.Size > env.TotalPages()*nvm.PageSize {
		r.addf("I1", "size %d exceeds device capacity", in.Size)
	}

	// ---- I4: permission fields vs shadow table ------------------------
	v.checkShadow(env, r, &in, "file")

	// ---- I2: page validity of the index chain -------------------------
	if in.Type == core.TypeReg {
		// Verification scoped by dirty metadata: pages nobody stored to
		// since their last clean walk keep the facts that walk proved.
		if f, ok := env.(IndexFacts); ok && f.IndexUnchanged(in.Head) {
			r.Scoped = true
			return nil
		}
	}
	var blocks map[uint64]nvm.PageID // only a directory's content checks read it
	if in.Type == core.TypeDir {
		blocks = make(map[uint64]nvm.PageID)
	}
	v.checkPages(env, r, in.Head, blocks)

	// ---- directory content checks (I1 names, I2 inos, I3 tree) --------
	if in.Type == core.TypeDir {
		v.checkDirectory(env, r, blocks)
	}
	return nil
}

// checkShadow compares an inode's cached permission fields against the
// controller's ground truth (I4). For files the controller has never
// seen (fresh creates), the creator's credentials are the ground truth.
func (v *Verifier) checkShadow(env Env, r *Report, in *core.Inode, what string) {
	if sh, ok := env.Shadow(in.Ino); ok {
		if in.Mode != sh.Mode || in.UID != sh.UID || in.GID != sh.GID {
			r.addf("I4", "%s %d permission fields (mode %#o uid %d gid %d) diverge from shadow inode (mode %#o uid %d gid %d)",
				what, in.Ino, in.Mode, in.UID, in.GID, sh.Mode, sh.UID, sh.GID)
		}
		if sh.Type != 0 && in.Type != sh.Type {
			r.addf("I1", "%s %d type %v diverges from recorded type %v", what, in.Ino, in.Type, sh.Type)
		}
		return
	}
	uid, gid := env.CredFor(in.Ino)
	if in.UID != uid || in.GID != gid {
		r.addf("I4", "new %s %d claims uid %d gid %d but creator is uid %d gid %d",
			what, in.Ino, in.UID, in.GID, uid, gid)
	}
}

// checkPages walks the index chain, enforcing I2. For a directory it
// also fills blocks, the live (block → data page) mapping the content
// checks read; a regular file passes nil.
func (v *Verifier) checkPages(env Env, r *Report, head nvm.PageID, blocks map[uint64]nvm.PageID) {
	if head == nvm.NilPage {
		return // empty file: no chain, no bookkeeping to touch
	}
	total := env.TotalPages()
	if words := int((total + 63) / 64); len(r.seen) < words {
		r.seen = make([]uint64, words)
	} else {
		clear(r.seen)
	}
	seen := r.seen

	checkPage := func(p nvm.PageID, kind string) bool {
		if uint64(p) >= total {
			r.addf("I2", "%s page %d beyond device (%d pages)", kind, p, total)
			return false
		}
		if p < core.FirstFilePage {
			r.addf("I2", "%s page %d points into reserved pages", kind, p)
			return false
		}
		if seen[p/64]&(1<<(p%64)) != 0 {
			r.addf("I2", "page %d referenced twice within the file", p)
			return false
		}
		seen[p/64] |= 1 << (p % 64)
		if !env.PageInFile(p) && !env.PageAllocated(p) {
			if owner, ok := env.PageOwner(p); ok {
				r.addf("I2", "%s page %d belongs to file %d", kind, p, owner)
			} else {
				r.addf("I2", "%s page %d was never allocated to this LibFS", kind, p)
			}
			return false
		}
		r.Pages = append(r.Pages, p)
		return true
	}

	maxPages := int(total) // the seen-set already catches cycles; this bounds runaway chains
	err := core.WalkFile(v.mem, head, maxPages,
		func(p nvm.PageID) bool {
			if !checkPage(p, "index") {
				return false
			}
			r.Index = append(r.Index, p)
			return true
		},
		func(block uint64, p nvm.PageID) bool {
			if checkPage(p, "data") && blocks != nil {
				blocks[block] = p
			}
			return true
		})
	if err != nil {
		r.addf("I2", "index chain walk failed: %v", err)
	}
}

// checkDirectory validates every live dirent slot (I1 names, I1/I4 child
// inode fields, I2 child ino provenance) and the tree invariant (I3).
func (v *Verifier) checkDirectory(env Env, r *Report, blocks map[uint64]nvm.PageID) {
	names := make(map[string]bool)
	children := make(map[core.Ino]bool)
	for _, p := range sortedPages(blocks) {
		dp, err := core.ReadDirPage(v.mem, p)
		if err != nil {
			r.addf("I1", "unreadable directory page %d: %v", p, err)
			continue
		}
		for slot := 0; slot < core.SlotsPerDirPage; slot++ {
			if dp.SlotIno(slot) == 0 {
				continue
			}
			child := dp.SlotInode(slot)
			name, err := dp.SlotName(slot)
			if err != nil {
				r.addf("I1", "unreadable dirent name at page %d slot %d: %v", p, slot, err)
				continue
			}
			if nerr := core.ValidateName(name); nerr != nil {
				r.addf("I1", "dirent %d: %v", child.Ino, nerr)
			}
			if names[name] {
				r.addf("I1", "duplicate name %q in directory", name)
			}
			names[name] = true
			if child.Type != core.TypeReg && child.Type != core.TypeDir {
				r.addf("I1", "dirent %q has invalid type %d", name, child.Type)
			}
			if children[child.Ino] {
				r.addf("I2", "inode %d referenced by two entries of this directory", child.Ino)
			}
			children[child.Ino] = true
			if child.Ino == r.Ino {
				r.addf("I2", "directory contains itself (inode %d)", child.Ino)
			}
			if !env.InoKnown(child.Ino) && !env.InoAllocated(child.Ino) {
				r.addf("I2", "inode number %d was never allocated by the controller", child.Ino)
			}
			v.checkShadow(env, r, &child, "child")
			r.Children = append(r.Children, ChildRef{
				Ino:   child.Ino,
				Name:  name,
				Loc:   core.FileLoc{Page: p, Slot: slot},
				Inode: child,
			})
		}
	}

	// ---- I3: deleted child directories must be unmapped and empty -----
	if prev, ok := env.CheckpointChildren(); ok {
		for _, pc := range prev {
			if pc.Inode.Type != core.TypeDir {
				continue
			}
			if children[pc.Ino] {
				continue
			}
			if !env.DirDeletedOK(pc.Ino) {
				r.addf("I3", "directory %d (%q) was removed while mapped or non-empty — subtree disconnected",
					pc.Ino, pc.Name)
			}
		}
	}
}

// sortedPages returns the directory data pages in block order so the
// Children list (and duplicate detection) is deterministic. Sparse sort,
// not a dense 0..max scan: block numbers come from the walk and are
// bounded today, but the verifier must not let any input-derived number
// choose its iteration count.
func sortedPages(blocks map[uint64]nvm.PageID) []nvm.PageID {
	bs := make([]uint64, 0, len(blocks))
	for b := range blocks {
		bs = append(bs, b)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	out := make([]nvm.PageID, 0, len(bs))
	for _, b := range bs {
		out = append(out, blocks[b])
	}
	return out
}
