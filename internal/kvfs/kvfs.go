// Package kvfs is the first customized LibFS of the paper (§5): a
// key-value-style file system for applications that churn through many
// small files (mail spools, small-object HPC workloads). It is built
// entirely on ArckFS's customization hooks — same core state, same
// controller, same verifier — and changes three things:
//
//   - Interface: Get and Set operate on whole small files by name, so
//     there are no file descriptors to allocate, look up and release.
//   - Index: files are capped at MaxValueSize (32 KiB = 8 pages), so a
//     fixed-size page array replaces the radix tree.
//   - Concurrency: one spinlock per file replaces the readers-writer
//     inode lock + range lock pair; with many small files, contention
//     on one file is unlikely and the uncontended path is what matters.
//
// Everything else — create commit protocol, page allocation, crash
// consistency of metadata — is inherited from ArckFS.
package kvfs

import (
	"fmt"
	"time"

	"trio/internal/core"
	"trio/internal/fsapi"
	"trio/internal/index"
	"trio/internal/libfs"
	"trio/internal/locks"
	"trio/internal/nvm"
)

// MaxValueSize is the largest file KVFS handles (8 data pages).
const MaxValueSize = 32 << 10

const maxPages = MaxValueSize / nvm.PageSize

// FS is a KVFS instance rooted at one directory of the shared tree.
type FS struct {
	arck  *libfs.FS
	hooks libfs.Hooks
	dir   *libfs.DirRef

	// vals is KVFS's private auxiliary state: key → small-file state.
	vals *index.Map[*kvnode]
}

// kvnode is the fixed-array auxiliary state of one small file.
type kvnode struct {
	entry libfs.Entry
	lock  locks.SpinLock
	idx   nvm.PageID // the single index page
	pages [maxPages]nvm.PageID
	size  int
}

// New mounts KVFS over an ArckFS instance, rooted at dir (created when
// missing).
func New(arck *libfs.FS, dir string) (*FS, error) {
	c := arck.NewClient(0)
	if err := c.Mkdir(dir, 0o755); err != nil && err != fsapi.ErrExist {
		if _, serr := c.Stat(dir); serr != nil {
			return nil, err
		}
	}
	h := arck.Hooks()
	d, err := h.ResolveDir(dir)
	if err != nil {
		return nil, err
	}
	if err := h.EnsureWritable(d); err != nil {
		return nil, err
	}
	return &FS{arck: arck, hooks: h, dir: d, vals: index.NewMap[*kvnode]()}, nil
}

// Name identifies the customization.
func (fs *FS) Name() string { return "kvfs" }

// node returns (building if needed) the kvnode for key, creating the
// backing file when create is set.
func (fs *FS) node(cpu int, key string, create bool) (*kvnode, error) {
	if n, ok := fs.vals.Get(key); ok {
		return n, nil
	}
	e, ok, err := fs.hooks.Lookup(fs.dir, key)
	if err != nil {
		return nil, err
	}
	if !ok {
		if !create {
			return nil, fsapi.ErrNotExist
		}
		e, err = fs.hooks.CreateEntry(cpu, fs.dir, key, 0o644)
		if err == fsapi.ErrExist {
			// Lost a create race (or the file predates this mount):
			// fall through to the rebuild path below.
			var ok2 bool
			e, ok2, err = fs.hooks.Lookup(fs.dir, key)
			if err != nil || !ok2 {
				return nil, fsapi.ErrNotExist
			}
		} else if err != nil {
			return nil, err
		} else {
			n := &kvnode{entry: e}
			if !fs.vals.PutIfAbsent(key, n) {
				if cur, ok2 := fs.vals.Get(key); ok2 {
					return cur, nil
				}
			}
			return n, nil
		}
	}
	// Existing file: rebuild the fixed-array aux from the core state.
	in, err := fs.hooks.ReadInode(e)
	if err != nil {
		return nil, err
	}
	if in.Size > MaxValueSize {
		return nil, fmt.Errorf("kvfs: %q is %d bytes, beyond the small-file cap", key, in.Size)
	}
	// Map the file before reading its pages: after a crash the
	// controller's recovery pass revoked every mapping, so the rebuild
	// cannot rely on leftover creator permissions. Write access up
	// front, since Set mutates values in place.
	if err := fs.hooks.MapEntry(e, true); err != nil {
		return nil, err
	}
	n := &kvnode{entry: e, idx: in.Head, size: int(in.Size)}
	if in.Head != nvm.NilPage {
		as := fs.hooks.AddressSpace()
		for i := 0; i < maxPages; i++ {
			p, err := core.IndexEntry(as, in.Head, i)
			if err != nil {
				return nil, err
			}
			n.pages[i] = p
		}
	}
	fs.vals.Put(key, n)
	return n, nil
}

// Set writes the whole value of key, creating the file when absent.
// It always writes from offset zero (§5: "the get and set APIs always
// operate from the beginning of a file").
func (fs *FS) Set(cpu int, key string, val []byte) error {
	if len(val) > MaxValueSize {
		return fmt.Errorf("kvfs: value of %q is %d bytes (max %d)", key, len(val), MaxValueSize)
	}
	// The inode lives in the directory's dirent page; make sure this
	// LibFS holds a writable mapping of it (a post-crash remount starts
	// with none).
	if err := fs.hooks.EnsureWritable(fs.dir); err != nil {
		return libfs.IOErr(err)
	}
	n, err := fs.node(cpu, key, true)
	if err != nil {
		return libfs.IOErr(err)
	}
	n.lock.Lock()
	defer n.lock.Unlock()
	return libfs.IOErr(fs.setLocked(cpu, n, val))
}

// setLocked is Set's body with n.lock held; device faults propagate
// raw and are mapped to fsapi.ErrIO at the API boundary above.
func (fs *FS) setLocked(cpu int, n *kvnode, val []byte) error {
	as := fs.hooks.AddressSpace()
	mem := fs.hooks.Mem(cpu)
	need := (len(val) + nvm.PageSize - 1) / nvm.PageSize
	if need > 0 && n.idx == nvm.NilPage {
		ip, err := fs.hooks.AllocPage(cpu)
		if err != nil {
			return err
		}
		var zeros [nvm.PageSize]byte
		if err := as.Write(ip, 0, zeros[:]); err != nil {
			return err
		}
		if err := as.Persist(ip, 0, nvm.PageSize); err != nil {
			return err
		}
		if err := fs.hooks.SetInodeHead(n.entry, ip); err != nil {
			return err
		}
		n.idx = ip
	}
	for i := 0; i < need; i++ {
		if n.pages[i] != nvm.NilPage {
			continue
		}
		p, err := fs.hooks.AllocPage(cpu)
		if err != nil {
			return err
		}
		if err := core.SetIndexEntry(as, n.idx, i, p); err != nil {
			return err
		}
		n.pages[i] = p
	}
	for i := 0; i < need; i++ {
		lo := i * nvm.PageSize
		hi := lo + nvm.PageSize
		if hi > len(val) {
			hi = len(val)
		}
		if err := mem.Write(n.pages[i], 0, val[lo:hi]); err != nil {
			return err
		}
		if err := mem.Persist(n.pages[i], 0, hi-lo); err != nil {
			return err
		}
	}
	as.Fence()
	if err := fs.hooks.SetInodeSize(n.entry, uint64(len(val)), uint64(time.Now().UnixNano())); err != nil {
		return err
	}
	n.size = len(val)
	return nil
}

// Get reads the whole value of key into buf and returns its length.
func (fs *FS) Get(cpu int, key string, buf []byte) (int, error) {
	n, err := fs.node(cpu, key, false)
	if err != nil {
		return 0, libfs.IOErr(err)
	}
	mem := fs.hooks.Mem(cpu)
	n.lock.Lock()
	defer n.lock.Unlock()
	size := n.size
	if size > len(buf) {
		size = len(buf)
	}
	for off := 0; off < size; off += nvm.PageSize {
		hi := off + nvm.PageSize
		if hi > size {
			hi = size
		}
		p := n.pages[off/nvm.PageSize]
		if p == nvm.NilPage {
			for i := off; i < hi; i++ {
				buf[i] = 0
			}
			continue
		}
		if err := mem.Read(p, 0, buf[off:hi]); err != nil {
			return 0, libfs.IOErr(err)
		}
	}
	return size, nil
}

// Delete removes key's file.
func (fs *FS) Delete(cpu int, key string) error {
	fs.vals.Delete(key)
	return libfs.IOErr(fs.hooks.RemoveEntry(cpu, fs.dir, key))
}

// Keys lists the store's keys (directory enumeration).
func (fs *FS) Keys() ([]string, error) {
	var out []string
	err := fs.hooks.RangeEntries(fs.dir, func(name string, _ libfs.Entry) bool {
		out = append(out, name)
		return true
	})
	return out, err
}
