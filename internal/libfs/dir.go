package libfs

import (
	"errors"
	"sync/atomic"
	"time"

	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/mmu"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// claimSlot takes a free dirent slot in the directory, growing the
// directory by one data page when every page is full. Different CPUs
// prefer different logging tails so concurrent creates in one directory
// spread across pages (§4.2).
func (fs *FS) claimSlot(cpu int, dir *node) (nvm.PageID, int, error) {
	dir.tailsMu.Lock()
	if len(dir.tails) > 0 {
		t := dir.tails[cpu%len(dir.tails)]
		t.mu.Lock()
		if len(t.free) > 0 {
			slot := t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
			if len(t.free) == 0 {
				for i, x := range dir.tails {
					if x == t {
						dir.tails = append(dir.tails[:i], dir.tails[i+1:]...)
						break
					}
				}
			}
			t.mu.Unlock()
			dir.tailsMu.Unlock()
			return t.page, slot, nil
		}
		t.mu.Unlock()
		// Stale empty tail; drop it and retry via growth below.
		for i, x := range dir.tails {
			if x == t {
				dir.tails = append(dir.tails[:i], dir.tails[i+1:]...)
				break
			}
		}
	}
	dir.tailsMu.Unlock()

	// Growth path: serialize on the index tail (§4.2).
	dir.idxTail.Lock()
	defer dir.idxTail.Unlock()
	// Someone may have grown while we waited.
	dir.tailsMu.Lock()
	if len(dir.tails) > 0 {
		t := dir.tails[len(dir.tails)-1]
		t.mu.Lock()
		if len(t.free) > 0 {
			slot := t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
			if len(t.free) == 0 {
				dir.tails = dir.tails[:len(dir.tails)-1]
			}
			t.mu.Unlock()
			dir.tailsMu.Unlock()
			return t.page, slot, nil
		}
		t.mu.Unlock()
		dir.tails = dir.tails[:len(dir.tails)-1]
	}
	dir.tailsMu.Unlock()

	page, err := fs.allocPage(cpu)
	if err != nil {
		return 0, 0, err
	}
	var zeros [nvm.PageSize]byte
	if err := fs.as.Write(page, 0, zeros[:]); err != nil {
		return 0, 0, err
	}
	if err := fs.persist(page, 0, nvm.PageSize); err != nil {
		return 0, 0, err
	}
	if err := fs.linkBlockLocked(cpu, dir, uint64(dir.dirBlocks), page); err != nil {
		return 0, 0, err
	}
	dir.dirBlocks++
	if err := core.UpdateInodeSizeMtime(fs.cmem, dir.loc(),
		uint64(dir.dirBlocks)*nvm.PageSize, uint64(time.Now().UnixNano())); err != nil {
		return 0, 0, err
	}
	free := make([]int, 0, core.SlotsPerDirPage-1)
	for s := core.SlotsPerDirPage - 1; s >= 1; s-- {
		free = append(free, s)
	}
	dir.tailsMu.Lock()
	dir.tails = append(dir.tails, &pageTail{page: page, free: free})
	dir.tailsMu.Unlock()
	return page, 0, nil
}

// releaseSlot returns a retired dirent slot to the logging tails.
func (dir *node) releaseSlot(page nvm.PageID, slot int) {
	dir.tailsMu.Lock()
	defer dir.tailsMu.Unlock()
	for _, t := range dir.tails {
		if t.page == page {
			t.mu.Lock()
			t.free = append(t.free, slot)
			t.mu.Unlock()
			return
		}
	}
	dir.tails = append(dir.tails, &pageTail{page: page, free: []int{slot}})
}

// createEntry installs a new file or directory under parent. The commit
// protocol (§4.4): body and name persist first, a fence, then the
// 8-byte inode-number store publishes the entry atomically.
func (fs *FS) createEntry(cpu int, parent *node, name string, ftype core.FileType, mode uint16) (dirEntry, error) {
	if err := core.ValidateName(name); err != nil {
		return dirEntry{}, fsapi.ErrInval
	}
	var entry dirEntry
	err := fs.withMapped(parent, true, func() error {
		if _, exists := parent.ht.Get(name); exists {
			return fsapi.ErrExist
		}
		page, slot, err := fs.claimSlot(cpu, parent)
		if err != nil {
			return err
		}
		ino, err := fs.allocIno(cpu)
		if err != nil {
			parent.releaseSlot(page, slot)
			return err
		}
		uid, gid := fs.sess.Cred()
		now := uint64(time.Now().UnixNano())
		in := core.Inode{
			Ino: ino, Type: ftype, Mode: mode, UID: uid, GID: gid,
			Mtime: now, Ctime: now, Atime: now,
		}
		off := core.SlotOffset(slot)
		if err := fs.writeInodeBody(page, off, &in); err != nil {
			parent.releaseSlot(page, slot)
			return err
		}
		if err := fs.writeDirentName(page, slot, name); err != nil {
			parent.releaseSlot(page, slot)
			return err
		}
		fs.as.Fence()
		entry = dirEntry{ino: ino, loc: core.FileLoc{Page: page, Slot: slot}, ftype: ftype}
		// Reserve the name in the hash table before the core-state
		// commit so a concurrent create of the same name loses here,
		// with the slot still uncommitted.
		if !parent.ht.PutIfAbsent(name, entry) {
			parent.releaseSlot(page, slot)
			return fsapi.ErrExist
		}
		if err := core.CommitDirentIno(fs.cmem, page, slot, ino); err != nil {
			parent.ht.Delete(name)
			parent.releaseSlot(page, slot)
			return err
		}
		return nil
	})
	return entry, err
}

// Create implements fsapi.Client: O_CREAT|O_TRUNC semantics.
func (c *Client) Create(path string, mode uint16) (fsapi.File, error) {
	sp := telemetry.StartSpan(c.cpu, "libfs.Create", "libfs")
	defer sp.End()
	mNamespace.IncOn(c.cpu)
	parent, name, err := c.fs.resolveParent(path)
	if err != nil {
		return nil, ioErr(err)
	}
	entry, err := c.fs.createEntry(c.cpu, parent, name, core.TypeReg, mode)
	if err == nil {
		n := c.fs.nodeFor(entry)
		// The creator accesses the new file through its parent mapping
		// and allocation pool: no MapFile needed (§4.2).
		n.mapMu.Lock()
		n.setFtype(core.TypeReg)
		n.radix = c.fs.freshRadix()
		n.chain = nil
		atomic.StoreInt64(&n.size, 0)
		n.mapState.Store(2)
		n.mapMu.Unlock()
		return c.openHandle(n, true), nil
	}
	if !errors.Is(err, fsapi.ErrExist) {
		return nil, ioErr(err)
	}
	// Exists: open and truncate.
	f, oerr := c.Open(path, true)
	if oerr != nil {
		return nil, oerr
	}
	if terr := f.Truncate(0); terr != nil {
		f.Close()
		return nil, terr
	}
	return f, nil
}

// Mkdir implements fsapi.Client.
func (c *Client) Mkdir(path string, mode uint16) error {
	sp := telemetry.StartSpan(c.cpu, "libfs.Mkdir", "libfs")
	defer sp.End()
	mNamespace.IncOn(c.cpu)
	parent, name, err := c.fs.resolveParent(path)
	if err != nil {
		return ioErr(err)
	}
	entry, err := c.fs.createEntry(c.cpu, parent, name, core.TypeDir, mode)
	if err != nil {
		return ioErr(err)
	}
	n := c.fs.nodeFor(entry)
	n.mapMu.Lock()
	n.setFtype(core.TypeDir)
	n.ht = c.fs.freshDirMap()
	n.chain = nil
	n.dirBlocks = 0
	n.tails = nil
	n.mapState.Store(2)
	n.mapMu.Unlock()
	return nil
}

// filePages collects the index and data pages of a node by walking the
// core state; used by unlink to hand the page list to the controller.
func (fs *FS) filePages(n *node) ([]nvm.PageID, error) {
	in, err := fs.readDirentInode(n.loc())
	if err != nil {
		return nil, err
	}
	// Sized from the inode so a small file's list is one allocation (the
	// size is core state, not a promise: capped, and append grows the
	// rest); the list outlives the call (deferRemove keeps it).
	pages := make([]nvm.PageID, 0, min(in.Size/nvm.PageSize, 510)+2)
	err = core.WalkFile(fs.as, in.Head, int(fs.dev.NumPages()),
		func(p nvm.PageID) bool { pages = append(pages, p); return true },
		func(_ uint64, p nvm.PageID) bool { pages = append(pages, p); return true })
	return pages, err
}

// unlinkCommon removes a dirent after type checking.
func (c *Client) unlinkCommon(path string, wantDir bool) error {
	sp := telemetry.StartSpan(c.cpu, "libfs.Unlink", "libfs")
	defer sp.End()
	mNamespace.IncOn(c.cpu)
	fs := c.fs
	parent, name, err := fs.resolveParent(path)
	if err != nil {
		return ioErr(err)
	}
	return ioErr(fs.withMapped(parent, true, func() error {
		e, ok := parent.ht.Get(name)
		if !ok {
			return fsapi.ErrNotExist
		}
		if wantDir && e.ftype != core.TypeDir {
			return fsapi.ErrNotDir
		}
		if !wantDir && e.ftype == core.TypeDir {
			return fsapi.ErrIsDir
		}
		victim := fs.nodeFor(e)
		victim.ilock.Lock()
		defer victim.ilock.Unlock()

		// Gather the victim's pages. Its pages may not be mapped in our
		// address space (file created elsewhere, never opened) — map it
		// read-only in that case.
		pages, perr := fs.filePages(victim)
		if perr != nil {
			if !isFault(perr) {
				return perr
			}
			if err := fs.ensureMapped(victim, false); err != nil {
				return err
			}
			pages, perr = fs.filePages(victim)
			if perr != nil {
				return perr
			}
		}
		if wantDir {
			// Reject non-empty directories in userspace first; the
			// controller re-checks (I3) when it releases resources.
			victim.auxMu.RLock()
			nonEmpty := victim.ht != nil && victim.ht.Len() > 0
			victim.auxMu.RUnlock()
			if nonEmpty {
				return fsapi.ErrNotEmpty
			}
			if live, lerr := fs.dirHasLiveEntry(victim, pages); lerr != nil {
				return lerr
			} else if live {
				return fsapi.ErrNotEmpty
			}
		}
		// The atomic retire: ino word → 0.
		if !parent.ht.Delete(name) {
			return fsapi.ErrNotExist
		}
		if err := core.CommitDirentIno(fs.cmem, e.loc.Page, e.loc.Slot, 0); err != nil {
			parent.ht.Put(name, e)
			return err
		}
		parent.releaseSlot(e.loc.Page, e.loc.Slot)
		if wantDir {
			// Directory removal stays synchronous: the controller must
			// confirm emptiness (I3) before resources are reclaimed.
			if err := fs.sess.RemoveFile(e.ino, pages); err != nil {
				return mapControllerErr(err)
			}
		} else if err := fs.deferRemove(c.cpu, e.ino, pages); err != nil {
			return mapControllerErr(err)
		}
		fs.dropNode(e.ino)
		return nil
	}))
}

func (fs *FS) dirHasLiveEntry(dir *node, pages []nvm.PageID) (bool, error) {
	in, err := fs.readDirentInode(dir.loc())
	if err != nil {
		return false, err
	}
	live := false
	err = core.WalkFile(fs.as, in.Head, int(fs.dev.NumPages()), nil,
		func(_ uint64, p nvm.PageID) bool {
			dp, derr := core.ReadDirPage(fs.as, p)
			if derr != nil {
				err = derr
				return false
			}
			for slot := 0; slot < core.SlotsPerDirPage; slot++ {
				if dp.SlotIno(slot) != 0 {
					live = true
					return false
				}
			}
			return true
		})
	return live, err
}

// Unlink implements fsapi.Client.
func (c *Client) Unlink(path string) error { return c.unlinkCommon(path, false) }

// Rmdir implements fsapi.Client.
func (c *Client) Rmdir(path string) error { return c.unlinkCommon(path, true) }

// Rename implements fsapi.Client (§4.4: the one operation needing the
// undo journal). Same-directory and cross-directory renames are
// supported; an existing regular-file target is replaced.
func (c *Client) Rename(oldPath, newPath string) error {
	fs := c.fs
	srcParent, oldName, err := fs.resolveParent(oldPath)
	if err != nil {
		return ioErr(err)
	}
	dstParent, newName, err := fs.resolveParent(newPath)
	if err != nil {
		return ioErr(err)
	}
	if err := core.ValidateName(newName); err != nil {
		return fsapi.ErrInval
	}

	// Lock directories in ino order to avoid deadlock.
	first, second := srcParent, dstParent
	if first != second && first.ino > second.ino {
		first, second = second, first
	}
	first.ilock.Lock()
	defer first.ilock.Unlock()
	if second != first {
		second.ilock.Lock()
		defer second.ilock.Unlock()
	}

	body := func() error {
		oldE, ok := srcParent.ht.Get(oldName)
		if !ok {
			return fsapi.ErrNotExist
		}
		var target *dirEntry
		if te, exists := dstParent.ht.Get(newName); exists {
			if te.ino == oldE.ino {
				return nil // rename to itself
			}
			if te.ftype == core.TypeDir {
				return fsapi.ErrExist
			}
			target = &te
		}
		// Claim the destination slot before journaling (growth is
		// independently crash-safe).
		dstPage, dstSlot, err := fs.claimSlot(c.cpu, dstParent)
		if err != nil {
			return err
		}

		jr, err := fs.journalFor(c.cpu)
		if err != nil {
			return err
		}
		// Only the three 8-byte commit words need undo records: a
		// slot's body is dead bytes until its ino word is set
		// (§4.4). Their pre-images are known, so no journal reads.
		tx := jr.Begin()
		if err := tx.LogUndoWord(oldE.loc.Page, core.SlotOffset(oldE.loc.Slot), uint64(oldE.ino)); err != nil {
			return err
		}
		if err := tx.LogUndoWord(dstPage, core.SlotOffset(dstSlot), 0); err != nil {
			return err
		}
		if target != nil {
			if err := tx.LogUndoWord(target.loc.Page, core.SlotOffset(target.loc.Slot), uint64(target.ino)); err != nil {
				return err
			}
		}
		if err := tx.Seal(); err != nil {
			return err
		}

		// Copy the dirent (inode + name) into the new slot, commit
		// its ino, then retire the old slot (and the target's).
		var slotImg [core.DirentSize]byte
		if err := fs.as.Read(oldE.loc.Page, core.SlotOffset(oldE.loc.Slot), slotImg[:]); err != nil {
			return err
		}
		if err := fs.as.Write(dstPage, core.SlotOffset(dstSlot)+8, slotImg[8:]); err != nil {
			return err
		}
		if err := fs.persist(dstPage, core.SlotOffset(dstSlot)+8, core.DirentSize-8); err != nil {
			return err
		}
		// New name overwrites the copied one.
		if err := fs.writeDirentName(dstPage, dstSlot, newName); err != nil {
			return err
		}
		fs.as.Fence()
		if err := core.CommitDirentIno(fs.cmem, dstPage, dstSlot, oldE.ino); err != nil {
			return err
		}
		if err := core.CommitDirentIno(fs.cmem, oldE.loc.Page, oldE.loc.Slot, 0); err != nil {
			return err
		}
		var targetPages []nvm.PageID
		if target != nil {
			tn := fs.nodeFor(*target)
			targetPages, _ = fs.filePages(tn)
			if err := core.CommitDirentIno(fs.cmem, target.loc.Page, target.loc.Slot, 0); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}

		// Auxiliary-state updates.
		newE := dirEntry{ino: oldE.ino, loc: core.FileLoc{Page: dstPage, Slot: dstSlot}, ftype: oldE.ftype}
		dstParent.ht.Put(newName, newE)
		srcParent.ht.Delete(oldName)
		srcParent.releaseSlot(oldE.loc.Page, oldE.loc.Slot)
		fs.nodeFor(newE) // refresh the moved node's location
		if target != nil {
			dstParent.releaseSlot(target.loc.Page, target.loc.Slot)
			if err := fs.deferRemove(c.cpu, target.ino, targetPages); err != nil {
				return mapControllerErr(err)
			}
			fs.dropNode(target.ino)
		}
		return nil
	}
	// Same-directory renames must not nest withMapped on one node (the
	// aux read lock is not re-entrant).
	if srcParent == dstParent {
		return ioErr(fs.withMapped(srcParent, true, body))
	}
	return ioErr(fs.withMapped(srcParent, true, func() error {
		return fs.withMapped(dstParent, true, body)
	}))
}

// Stat implements fsapi.Client. As the paper notes (§4.1), stat needs
// only the parent directory's read permission: the inode is co-located
// with the dirent.
func (c *Client) Stat(path string) (fsapi.FileInfo, error) {
	fs := c.fs
	dir, name := fsapi.SplitLast(path)
	if name == "" {
		// Root.
		var info fsapi.FileInfo
		err := fs.withMapped(fs.root, false, func() error {
			in, err := fs.readDirentInode(fs.root.loc())
			if err != nil {
				return err
			}
			info = fsapi.FileInfo{Name: "/", Ino: uint64(in.Ino), Size: int64(in.Size), Mode: in.Mode, IsDir: true}
			return nil
		})
		return info, ioErr(err)
	}
	parent, err := fs.resolve(dir)
	if err != nil {
		return fsapi.FileInfo{}, ioErr(err)
	}
	var info fsapi.FileInfo
	err = fs.withMapped(parent, false, func() error {
		e, ok := parent.ht.Get(name)
		if !ok {
			return fsapi.ErrNotExist
		}
		in, rerr := fs.readDirentInode(e.loc)
		if rerr != nil {
			return rerr
		}
		info = fsapi.FileInfo{
			Name: name, Ino: uint64(in.Ino), Size: int64(in.Size),
			Mode: in.Mode, IsDir: in.Type == core.TypeDir,
		}
		return nil
	})
	return info, ioErr(err)
}

// ReadDir implements fsapi.Client: enumerate through the private hash
// table ("." and ".." are synthesized auxiliary state, §4.1 — omitted
// from the listing like Go's os.ReadDir does).
func (c *Client) ReadDir(path string) ([]string, error) {
	fs := c.fs
	dir, err := fs.resolve(path)
	if err != nil {
		return nil, ioErr(err)
	}
	if dir.ftype() != core.TypeDir {
		return nil, fsapi.ErrNotDir
	}
	var names []string
	err = fs.withMapped(dir, false, func() error {
		names = names[:0]
		dir.ht.Range(func(name string, _ dirEntry) bool {
			names = append(names, name)
			return true
		})
		return nil
	})
	return names, ioErr(err)
}

// Chmod changes permission bits through the controller (I4: the shadow
// inode table is the ground truth, §4.3).
func (c *Client) Chmod(path string, mode uint16) error {
	n, err := c.fs.resolve(path)
	if err != nil {
		return ioErr(err)
	}
	return ioErr(mapControllerErr(c.fs.sess.Chmod(n.ino, mode)))
}

func isFault(err error) bool { return errors.Is(err, mmu.ErrFault) }
