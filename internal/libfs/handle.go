// Handle-addressed access (ISSUE 9): ArckFS's implementation of the
// fsapi.HandleClient extension. The LibFS already keeps an ino-indexed
// auxiliary table (fs.nodes, populated by every resolve/create on any
// client of this FS) and the controller keeps the authoritative
// ino→dirent registry, so resolving a handle is a map probe plus the
// normal map-and-build protocol — no path walk.
//
// Identity is verified through the core state before the handle is
// honored: the dirent slot the node points at must still carry the
// handle's ino. A recycled slot (unlink + create reusing the page/slot)
// therefore reads as fsapi.ErrStale, never as the wrong file. ArckFS
// inode numbers are monotone and never recycled, so generation 0 is the
// only generation ArckFS ever issues; any other generation is a foreign
// (path-fallback) handle and refuses here.
package libfs

import (
	"trio/internal/core"
	"trio/internal/fsapi"
)

// handleNode resolves a handle to its cached node, or nil.
func (fs *FS) handleNode(h fsapi.Handle) *node {
	if h.Gen != 0 {
		return nil // ArckFS handles always carry generation 0
	}
	fs.nodeMu.Lock()
	n := fs.nodes[core.Ino(h.Ino)]
	fs.nodeMu.Unlock()
	return n
}

// OpenByHandle implements fsapi.HandleClient.
func (c *Client) OpenByHandle(h fsapi.Handle, write bool) (fsapi.File, error) {
	fs := c.fs
	n := fs.handleNode(h)
	if n == nil {
		return nil, fsapi.ErrStale
	}
	if n.ftype() == core.TypeDir {
		return nil, fsapi.ErrIsDir
	}
	// Map (the grant covers the dirent page) and verify the slot still
	// commits this ino before handing out a fd.
	err := fs.withMapped(n, write, func() error {
		in, rerr := fs.readDirentInode(n.loc())
		if rerr != nil {
			return rerr
		}
		if uint64(in.Ino) != h.Ino {
			return fsapi.ErrStale
		}
		return nil
	})
	if err != nil {
		return nil, ioErr(err)
	}
	return c.openHandle(n, write), nil
}

// StatByHandle implements fsapi.HandleClient. Name is empty: a handle
// names an inode, not a dirent.
func (c *Client) StatByHandle(h fsapi.Handle) (fsapi.FileInfo, error) {
	fs := c.fs
	n := fs.handleNode(h)
	if n == nil {
		return fsapi.FileInfo{}, fsapi.ErrStale
	}
	var info fsapi.FileInfo
	err := fs.withMapped(n, false, func() error {
		in, rerr := fs.readDirentInode(n.loc())
		if rerr != nil {
			return rerr
		}
		if uint64(in.Ino) != h.Ino {
			return fsapi.ErrStale
		}
		info = fsapi.FileInfo{
			Ino: uint64(in.Ino), Size: int64(in.Size),
			Mode: in.Mode, IsDir: in.Type == core.TypeDir,
		}
		return nil
	})
	return info, ioErr(err)
}
