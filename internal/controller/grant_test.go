package controller

import (
	"errors"
	"slices"
	"testing"
	"time"

	"trio/internal/core"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// grantStep is one FuzzGrantOwnership record: an operation, the session
// that makes it, and two operand bytes.
const grantStep = 4

const (
	opMap = iota
	opUnmap
	opScribble
	opFree
	opAlloc
	opClose
	grantOps
)

// grantStepRec builds one step record.
func grantStepRec(op, sess, x, y byte) []byte { return []byte{op, sess, x, y} }

// FuzzGrantOwnership holds every grant to the one grant rule
// (clipGrantLocked, DESIGN.md §5a) from the outside: three sessions in
// two trust groups map and unmap one shared file, store index entries
// naming any page they like through whatever they have mapped, free pages
// and allocate them, and close, a fresh session of the same group taking
// the closed one's place, in any order. A map another group's write
// holders make wait sits out their short lease and revokes them all.
// After every step, each page a session can reach is the dirent page of a
// file it maps, a page owned by such a file, or in the pool or parked set
// of a session of its own trust group — a group's reach, nothing beyond —
// and no two trust groups hold write mappings of one file.
func FuzzGrantOwnership(f *testing.F) {
	// The collusion probe: a holds the file, scribbles an index entry
	// naming b's fresh pool page, and its co-member a2 maps the file for
	// reading, then — after an unmap — for writing.
	f.Add(append(append(append(append(append(
		grantStepRec(opAlloc, 2, 0, 0),
		grantStepRec(opMap, 0, 1, 0)...),
		grantStepRec(opScribble, 0, 3, 7)...),
		grantStepRec(opMap, 1, 0, 0)...),
		grantStepRec(opUnmap, 1, 0, 0)...),
		grantStepRec(opMap, 1, 1, 0)...))
	// A legitimate co-writer: a grows the file from its own pool, a2 maps.
	f.Add(append(append(append(append(
		grantStepRec(opMap, 0, 1, 0),
		grantStepRec(opAlloc, 0, 0, 0)...),
		grantStepRec(opScribble, 0, 9, 7)...),
		grantStepRec(opMap, 1, 1, 0)...),
		grantStepRec(opUnmap, 0, 0, 0)...))
	// A dangling free: a truncates a data page b then allocates.
	f.Add(append(append(append(
		grantStepRec(opMap, 0, 1, 0),
		grantStepRec(opFree, 0, 0, 3)...),
		grantStepRec(opAlloc, 2, 0, 0)...),
		grantStepRec(opUnmap, 0, 0, 0)...))
	// Found by this target before the grant rule, in under a second: a
	// holds the file and frees one of its data pages with the index entry
	// left in place; a2's read map walked the index and was granted the
	// page, by then the allocator's.
	f.Add([]byte("00103000300001003000"))
	// Found by it on the way: b's dangling free quarantines the file to b,
	// the freed page comes back into b's pool, b's map of its quarantined
	// file takes it into the mapping, and b frees it from the pool again:
	// a free must not hand the allocator a page a mapping still holds.
	f.Add([]byte(`4000400040000210320"40001200400040004000400040004000400040004000400040004000400040004000400040004200400040000200320B`))
	// Stacked writers: a releases while a2 still holds the file
	// write-mapped, and b's write map must wait a2 out, not map beside it.
	f.Add(append(append(append(
		grantStepRec(opMap, 0, 1, 0),
		grantStepRec(opMap, 1, 1, 0)...),
		grantStepRec(opUnmap, 0, 0, 0)...),
		grantStepRec(opMap, 2, 1, 0)...))
	// A parked page's teardown: a names a fresh pool page in the index,
	// a2's grant takes it in, a names the old page again and closes, and b
	// allocates: a2 must not reach the page b got.
	f.Add(append(append(append(append(append(append(
		grantStepRec(opMap, 0, 1, 0),
		grantStepRec(opAlloc, 0, 0, 0)...),
		grantStepRec(opScribble, 0, 9, 7)...),
		grantStepRec(opMap, 1, 0, 0)...),
		grantStepRec(opScribble, 0, 9, 5)...),
		grantStepRec(opClose, 0, 0, 0)...),
		grantStepRec(opAlloc, 2, 0, 0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newScopedWorld(t)
		c := w.c
		c.opts.LeaseTime, c.opts.RecallTimeout = 200*time.Microsecond, 200*time.Microsecond
		sess := []*Session{w.a, c.Register(1000, 1000, 0, w.a.Group()), w.b}
		// Pages a step may name: the file's, and any a session allocates.
		cand := append([]nvm.PageID(nil), w.targets...)
		index := w.targets[1:3]
		for step := 0; len(data) >= grantStep; step, data = step+1, data[grantStep:] {
			i := int(data[1]) % len(sess)
			s := sess[i]
			x, y := int(data[2]), int(data[3])
			var err error
			switch data[0] % grantOps {
			case opMap:
				_, err = s.MapFile(w.ino, w.loc, x&1 == 1)
				if errors.Is(err, ErrQuarantined) || errors.Is(err, ErrCorrupt) {
					err = nil
				}
			case opUnmap:
				if err = s.UnmapFile(w.ino); errors.Is(err, ErrBadRequest) || errors.Is(err, ErrRevoked) {
					err = nil
				}
			case opScribble:
				// Through the session's own address space: a store it may not
				// make faults, which is the MMU's business, not the grant's.
				_ = core.SetIndexEntry(s.AddressSpace(), index[x>>3&1], x&7, cand[y%len(cand)])
			case opFree:
				_ = s.FreePages([]nvm.PageID{cand[y%len(cand)]})
			case opAlloc:
				pages, aerr := s.AllocPages(0, 1)
				if aerr == nil {
					cand = append(cand, pages...)
				}
			case opClose:
				err = s.Close()
				sess[i] = c.Register(1000, 1000, 0, s.Group())
			}
			if err != nil {
				t.Fatalf("step %d (op %d, session %d): %v", step, data[0]%grantOps, s.ID(), err)
			}
			checkGrantReach(t, c, sess, step)
		}
	})
}

// checkGrantReach is FuzzGrantOwnership's invariant, read under lockAll.
// The superblock and the checksum table, mapped read-only into every
// session at registration, are nobody's file and outside it. Exclusivity
// is read from the sessions' own mappings; a file's holder set must be
// exactly those.
func checkGrantReach(t *testing.T, c *Controller, sess []*Session, step int) {
	t.Helper()
	c.lockAll()
	defer c.unlockAll()
	c.files.forEach(func(ino core.Ino, fs *fileState) bool {
		var writers GroupID
		n := 0
		for _, o := range c.libfses {
			m := o.mapped[ino]
			switch {
			case m == nil:
				continue
			case !slices.Contains(fs.holders, m):
				t.Fatalf("step %d: session %d maps ino %d outside its holder set", step, o.id, ino)
			case m.write && writers != 0 && writers != o.group:
				t.Fatalf("step %d: groups %d and %d both write-map ino %d", step, writers, o.group, ino)
			case m.write:
				writers = o.group
			}
			n++
		}
		if n != len(fs.holders) {
			t.Fatalf("step %d: ino %d has %d holders, %d sessions map it", step, ino, len(fs.holders), n)
		}
		return true
	})
	total := c.dev.NumPages()
	for _, s := range sess {
		ls := s.ls
		for p := nvm.PageID(1); p < core.ChecksumBase(total); p++ {
			perm := ls.as.PermOf(p)
			if perm == mmu.PermNone {
				continue
			}
			ok := false
			for ino := range ls.mapped {
				if fs, _ := c.files.get(ino); fs != nil && (fs.loc.Page == p || c.pageOwner[p] == ino) {
					ok = true
				}
			}
			for _, o := range c.libfses {
				if o.group == ls.group && o.pooled(p) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("step %d: session %d (group %d) maps page %d %v: not its files', not its group's (owner ino %d)",
					step, ls.id, ls.group, p, perm, c.pageOwner[p])
			}
		}
	}
}
