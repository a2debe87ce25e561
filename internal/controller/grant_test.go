package controller

import (
	"errors"
	"testing"

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
	grantOps
)

// grantStepRec builds one step record.
func grantStepRec(op, sess, x, y byte) []byte { return []byte{op, sess, x, y} }

// FuzzGrantOwnership holds every grant to the one grant rule
// (clipGrantLocked, DESIGN.md §5a) from the outside: three sessions in
// two trust groups map and unmap one shared file, store index entries
// naming any page they like through whatever they have mapped, free pages
// and allocate them, in any order. After every step, each page a session
// can reach is the dirent page of a file it maps, a page owned by such a
// file, or in the pool or parked set of a session of its own trust group
// — a group's reach, nothing beyond.
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
	f.Add([]byte("20100000000021000000"))
	// Found by it on the way: b's dangling free quarantines the file to b,
	// the freed page comes back into b's pool, b's map of its quarantined
	// file takes it into the mapping, and b frees it from the pool again:
	// a free must not hand the allocator a page a mapping still holds.
	f.Add([]byte(`1000100010002210020"10003200100010001000100010001000100010001000100010001000100010001000100010001200100010002200020B`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newScopedWorld(t)
		c := w.c
		sess := []*Session{w.a, c.Register(1000, 1000, 0, w.a.Group()), w.b}
		// Pages a step may name: the file's, and any a session allocates.
		cand := append([]nvm.PageID(nil), w.targets...)
		index := w.targets[1:3]
		for step := 0; len(data) >= grantStep; step, data = step+1, data[grantStep:] {
			s := sess[int(data[1])%len(sess)]
			x, y := int(data[2]), int(data[3])
			var err error
			switch data[0] % grantOps {
			case opMap:
				if grantWouldWait(c, s, w.ino) {
					continue // the fuzz never sits out a lease
				}
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
			}
			if err != nil {
				t.Fatalf("step %d (op %d, session %d): %v", step, data[0]%grantOps, s.ID(), err)
			}
			checkGrantReach(t, c, sess, step)
		}
	})
}

// grantWouldWait reports whether s's map of ino would wait out a foreign
// group's write lease — any session of another group holding the file
// write-mapped. (Not fs.writer alone: that names the last stacked writer
// of a group, and clears when it releases while a co-writer holds on.)
func grantWouldWait(c *Controller, s *Session, ino core.Ino) bool {
	c.lockAll()
	defer c.unlockAll()
	for _, o := range c.libfses {
		if m := o.mapped[ino]; m != nil && m.write && o.group != s.ls.group {
			return true
		}
	}
	return false
}

// checkGrantReach is FuzzGrantOwnership's invariant, read under lockAll.
// The superblock and the checksum table, mapped read-only into every
// session at registration, are nobody's file and outside it.
func checkGrantReach(t *testing.T, c *Controller, sess []*Session, step int) {
	t.Helper()
	c.lockAll()
	defer c.unlockAll()
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
				if o.group == ls.group && (o.allocPages[p] || o.parked[p]) {
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
