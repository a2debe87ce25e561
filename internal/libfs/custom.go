package libfs

import (
	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/mmu"
	"trio/internal/nvm"
)

// Hooks is ArckFS's customization surface (paper §5): everything a
// customized LibFS needs to implement its own interfaces, index
// structures, and concurrency control on top of the same core state —
// without touching the trusted entities. KVFS and FPFS are built
// exclusively on this surface.
//
// This is the Trio argument made concrete: the hooks only expose core-
// state manipulation and resource plumbing; what a customized LibFS
// builds above them (fixed-array indexes, global path tables, get/set
// interfaces, single spinlocks) is private auxiliary state, invisible
// to the controller and the verifier.
type Hooks struct {
	fs *FS
}

// Hooks returns the customization surface of this LibFS instance.
func (fs *FS) Hooks() Hooks { return Hooks{fs: fs} }

// Entry identifies a file in the core state.
type Entry struct {
	Ino   core.Ino
	Loc   core.FileLoc
	IsDir bool
}

// DirRef is an opaque handle to a directory's auxiliary state.
type DirRef struct {
	n *node
}

// AddressSpace exposes the MMU-checked view of NVM.
func (h Hooks) AddressSpace() *mmu.AddressSpace { return h.fs.as }

// IOErr translates device-level faults into fsapi.ErrIO the same way
// ArckFS's client boundary does; customized LibFSes apply it at their
// own API boundaries.
func IOErr(err error) error { return ioErr(err) }

// Mem returns the MMU-checked accessor for the calling thread's NUMA
// node; customized LibFSes use it for their data paths.
func (h Hooks) Mem(cpu int) *mmu.View { return h.fs.mem(cpu) }

// Device exposes the device geometry (page/node math).
func (h Hooks) Device() *nvm.Device { return h.fs.dev }

// ResolveDir resolves a directory path using ArckFS's generic walk.
func (h Hooks) ResolveDir(path string) (*DirRef, error) {
	n, err := h.fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if n.ftype() != core.TypeDir {
		return nil, fsapi.ErrNotDir
	}
	return &DirRef{n: n}, nil
}

// EnsureWritable maps the directory for writing (building ArckFS's
// directory aux state, which the customized LibFS may ignore).
func (h Hooks) EnsureWritable(d *DirRef) error {
	return h.fs.ensureMapped(d.n, true)
}

// Lookup finds name in the directory.
func (h Hooks) Lookup(d *DirRef, name string) (Entry, bool, error) {
	var e dirEntry
	var ok bool
	err := h.fs.withMapped(d.n, false, func() error {
		e, ok = d.n.ht.Get(name)
		return nil
	})
	if err != nil || !ok {
		return Entry{}, false, err
	}
	return Entry{Ino: e.ino, Loc: e.loc, IsDir: e.ftype == core.TypeDir}, true, nil
}

// CreateEntry creates a file in the directory through ArckFS's commit
// protocol and returns its location.
func (h Hooks) CreateEntry(cpu int, d *DirRef, name string, mode uint16) (Entry, error) {
	e, err := h.fs.createEntry(cpu, d.n, name, core.TypeReg, mode)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Ino: e.ino, Loc: e.loc}, nil
}

// RemoveEntry unlinks a regular file by name.
func (h Hooks) RemoveEntry(cpu int, d *DirRef, name string) error {
	return h.fs.withMapped(d.n, true, func() error {
		e, ok := d.n.ht.Get(name)
		if !ok {
			return fsapi.ErrNotExist
		}
		if e.ftype == core.TypeDir {
			return fsapi.ErrIsDir
		}
		victim := h.fs.nodeFor(e)
		victim.ilock.Lock()
		defer victim.ilock.Unlock()
		pages, perr := h.fs.victimPages(victim)
		if perr != nil {
			return perr
		}
		if !d.n.ht.Delete(name) {
			return fsapi.ErrNotExist
		}
		if err := core.CommitDirentIno(h.fs.as, e.loc.Page, e.loc.Slot, 0); err != nil {
			d.n.ht.Put(name, e)
			return err
		}
		d.n.releaseSlot(e.loc.Page, e.loc.Slot)
		if err := h.fs.deferRemove(cpu%h.fs.cfg.CPUs, e.ino, pages); err != nil {
			return mapControllerErr(err)
		}
		h.fs.dropNode(e.ino)
		return nil
	})
}

// RangeEntries iterates the directory's entries.
func (h Hooks) RangeEntries(d *DirRef, fn func(name string, e Entry) bool) error {
	return h.fs.withMapped(d.n, false, func() error {
		d.n.ht.Range(func(name string, e dirEntry) bool {
			return fn(name, Entry{Ino: e.ino, Loc: e.loc, IsDir: e.ftype == core.TypeDir})
		})
		return nil
	})
}

// AllocPage hands out one NVM page from the per-CPU cache.
func (h Hooks) AllocPage(cpu int) (nvm.PageID, error) { return h.fs.allocPage(cpu) }

// FreePages returns pages to the per-CPU cache / controller.
func (h Hooks) FreePages(cpu int, pages []nvm.PageID) error { return h.fs.freePages(cpu, pages) }

// ReadInode reads the inode at an entry's location.
func (h Hooks) ReadInode(e Entry) (core.Inode, error) {
	return h.fs.readDirentInode(e.Loc)
}

// SetInodeSize commits a new size for the file at e.
func (h Hooks) SetInodeSize(e Entry, size, mtime uint64) error {
	return core.UpdateInodeSizeMtime(h.fs.as, e.Loc, size, mtime)
}

// SetInodeHead commits a new head index page for the file at e.
func (h Hooks) SetInodeHead(e Entry, head nvm.PageID) error {
	return core.UpdateInodeHead(h.fs.as, e.Loc, head)
}

// OpenCreated opens a handle on a file this LibFS just created through
// CreateEntry: the creator initializes fresh auxiliary state directly —
// its pool pages already grant it write access, so no controller map
// (and hence no adoption/verification round trip) is needed, exactly as
// in the generic create path (§4.2).
func (h Hooks) OpenCreated(cpu int, e Entry) (fsapi.File, error) {
	n := h.fs.nodeFor(dirEntry{ino: e.Ino, loc: e.Loc, ftype: core.TypeReg})
	n.mapMu.Lock()
	if n.mapState.Load() == 0 {
		n.setFtype(core.TypeReg)
		n.radix = h.fs.freshRadix()
		n.chain = nil
		n.mapState.Store(2)
	}
	n.mapMu.Unlock()
	c := &Client{fs: h.fs, cpu: cpu % h.fs.cfg.CPUs}
	return c.openHandle(n, true), nil
}

// MapEntry maps the regular file at e into this LibFS through the
// controller, granting the MMU permissions a customized LibFS needs to
// rebuild its own index from the raw core state. Customized LibFSes
// must use it before touching a file's pages directly: after a crash,
// the controller's recovery pass drops every pre-crash mapping, so the
// creator's implicit pool-page permissions are gone.
func (h Hooks) MapEntry(e Entry, write bool) error {
	if e.IsDir {
		return fsapi.ErrIsDir
	}
	n := h.fs.nodeFor(dirEntry{ino: e.Ino, loc: e.Loc, ftype: core.TypeReg})
	return h.fs.ensureMapped(n, write)
}

// OpenEntry opens a file handle directly from an Entry, skipping the
// per-component path walk — the primitive FPFS's full-path index needs
// to turn one hash lookup into an open file.
func (h Hooks) OpenEntry(cpu int, e Entry, write bool) (fsapi.File, error) {
	if e.IsDir {
		return nil, fsapi.ErrIsDir
	}
	n := h.fs.nodeFor(dirEntry{ino: e.Ino, loc: e.Loc, ftype: core.TypeReg})
	if err := h.fs.ensureMapped(n, write); err != nil {
		return nil, err
	}
	c := &Client{fs: h.fs, cpu: cpu % h.fs.cfg.CPUs}
	return c.openHandle(n, write), nil
}

// NodeEntry returns the Entry of an already-resolved generic node (used
// by customized LibFSes that fall back to the generic walk once and
// then cache).
func (h Hooks) NodeEntry(path string) (Entry, error) {
	n, err := h.fs.resolve(path)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Ino: n.ino, Loc: n.loc(), IsDir: n.ftype() == core.TypeDir}, nil
}
