// The fsapi adapter over the wire client.
//
// Session (session.go) is the one implementation of the client side of
// the protocol; Client/wireFile put fsapi's path-and-file surface on
// it: path-addressed calls walk the path one LOOKUP per component from
// the root handle, and File methods map straight onto handle-addressed
// READ/WRITE/APPEND. This adapter is what the loopback conformance run
// pushes through internal/fstest — so the suite that proves the wire
// preserves in-process semantics runs over the client that reconnects
// and retransmits, not over a simpler sibling of it.
//
// fsapi calls carry no context, so every RPC here passes
// context.Background(): the session's CallTimeout bounds it.
package serve

import (
	"context"
	"fmt"
	"sync"

	"trio/internal/fsapi"
)

// maxIO caps one data frame's payload so client-side chunking keeps
// every frame under MaxFrame with headroom for headers.
const maxIO = 1 << 20

// Client adapts a Session to fsapi.Client: path calls walk component by
// component from the root handle, exactly the walk an NFS client's
// lookup cache would amortize.
type Client struct {
	sess *Session
}

// NewClient returns an fsapi.Client over sess.
func NewClient(sess *Session) *Client { return &Client{sess: sess} }

var _ fsapi.Client = (*Client)(nil)

// walk resolves dir components from the root.
func (c *Client) walk(parts []string) (fsapi.Handle, error) {
	h := c.sess.Root()
	for _, p := range parts {
		nh, _, err := c.sess.Lookup(context.Background(), h, p)
		if err != nil {
			return fsapi.Handle{}, err
		}
		h = nh
	}
	return h, nil
}

// splitForWire splits a path and vets every component, so a hostile
// path fails client-side identically to server-side.
func splitForWire(path string) (dir []string, name string, err error) {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return nil, "", fsapi.ErrInval
	}
	for _, p := range parts {
		if err := CheckName([]byte(p)); err != nil {
			return nil, "", err
		}
	}
	return parts[:len(parts)-1], parts[len(parts)-1], nil
}

// parent vets path and resolves its directory: the handle the final
// component is looked up, made or removed under.
func (c *Client) parent(path string) (fsapi.Handle, string, error) {
	dir, name, err := splitForWire(path)
	if err != nil {
		return fsapi.Handle{}, "", err
	}
	dh, err := c.walk(dir)
	return dh, name, err
}

// Create implements fsapi.Client.
func (c *Client) Create(path string, mode uint16) (fsapi.File, error) {
	dh, name, err := c.parent(path)
	if err != nil {
		return nil, err
	}
	h, a, err := c.sess.Create(context.Background(), dh, name, mode)
	if err != nil {
		return nil, err
	}
	return &wireFile{sess: c.sess, h: h, size: a.Size, writable: true}, nil
}

// Open implements fsapi.Client.
func (c *Client) Open(path string, write bool) (fsapi.File, error) {
	dh, name, err := c.parent(path)
	if err != nil {
		return nil, err
	}
	h, a, err := c.sess.Lookup(context.Background(), dh, name)
	if err != nil {
		return nil, err
	}
	if a.IsDir {
		return nil, fsapi.ErrIsDir
	}
	return &wireFile{sess: c.sess, h: h, size: a.Size, writable: write}, nil
}

// Mkdir implements fsapi.Client.
func (c *Client) Mkdir(path string, mode uint16) error {
	dh, name, err := c.parent(path)
	if err != nil {
		return err
	}
	_, _, err = c.sess.Mkdir(context.Background(), dh, name, mode)
	return err
}

// Unlink implements fsapi.Client.
func (c *Client) Unlink(path string) error {
	dh, name, err := c.parent(path)
	if err != nil {
		return err
	}
	return c.sess.Remove(context.Background(), dh, name)
}

// Rmdir implements fsapi.Client.
func (c *Client) Rmdir(path string) error {
	dh, name, err := c.parent(path)
	if err != nil {
		return err
	}
	return c.sess.Rmdir(context.Background(), dh, name)
}

// Rename implements fsapi.Client. Both paths are vetted before either
// is walked, so a hostile destination costs no RPC.
func (c *Client) Rename(oldPath, newPath string) error {
	fromDir, fromName, err := splitForWire(oldPath)
	if err != nil {
		return err
	}
	toDir, toName, err := splitForWire(newPath)
	if err != nil {
		return err
	}
	fh, err := c.walk(fromDir)
	if err != nil {
		return err
	}
	th, err := c.walk(toDir)
	if err != nil {
		return err
	}
	return c.sess.Rename(context.Background(), fh, fromName, th, toName)
}

// Stat implements fsapi.Client. The root answers from the handshake.
func (c *Client) Stat(path string) (fsapi.FileInfo, error) {
	if len(fsapi.SplitPath(path)) == 0 {
		root, attr := c.sess.rootInfo()
		return attr.Info("/", root), nil
	}
	dh, name, err := c.parent(path)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	h, a, err := c.sess.Lookup(context.Background(), dh, name)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	return a.Info(name, h), nil
}

// ReadDir implements fsapi.Client.
func (c *Client) ReadDir(path string) ([]string, error) {
	parts := fsapi.SplitPath(path)
	for _, p := range parts {
		if err := CheckName([]byte(p)); err != nil {
			return nil, err
		}
	}
	h, err := c.walk(parts)
	if err != nil {
		return nil, err
	}
	return c.sess.Readdir(context.Background(), h)
}

// wireFile is an fsapi.File over a handle. The server keeps no open
// state for it: every method is a stateless handle-addressed RPC, and
// Close is purely local.
type wireFile struct {
	sess     *Session
	h        fsapi.Handle
	writable bool

	mu   sync.Mutex
	size int64
}

var _ fsapi.File = (*wireFile)(nil)

func (f *wireFile) noteSize(end int64) {
	f.mu.Lock()
	if end > f.size {
		f.size = end
	}
	f.mu.Unlock()
}

// ReadAt implements fsapi.File, chunking big reads under maxIO.
func (f *wireFile) ReadAt(b []byte, off int64) (int, error) {
	total := 0
	for total < len(b) {
		n := len(b) - total
		if n > maxIO {
			n = maxIO
		}
		cnt, err := f.sess.Read(context.Background(), f.h, off+int64(total), b[total:total+n])
		if err != nil {
			return total, err
		}
		total += cnt
		if cnt < n {
			break // EOF short read: fsapi contract returns count, nil
		}
	}
	return total, nil
}

// WriteAt implements fsapi.File.
func (f *wireFile) WriteAt(b []byte, off int64) (int, error) {
	if !f.writable {
		return 0, fsapi.ErrPerm
	}
	total := 0
	for total < len(b) {
		n := len(b) - total
		if n > maxIO {
			n = maxIO
		}
		cnt, err := f.sess.Write(context.Background(), f.h, off+int64(total), b[total:total+n])
		total += cnt
		if err != nil {
			return total, err
		}
		if cnt < n {
			return total, fsapi.ErrIO
		}
	}
	f.noteSize(off + int64(total))
	return total, nil
}

// Append implements fsapi.File. Chunked appends would interleave under
// concurrency, so oversized appends are refused rather than torn.
func (f *wireFile) Append(b []byte) (int64, error) {
	if !f.writable {
		return 0, fsapi.ErrPerm
	}
	if len(b) > maxIO {
		return 0, fmt.Errorf("%w: append larger than %d", fsapi.ErrInval, maxIO)
	}
	at, err := f.sess.Append(context.Background(), f.h, b)
	if err != nil {
		return 0, err
	}
	f.noteSize(at + int64(len(b)))
	return at, nil
}

// Truncate implements fsapi.File.
func (f *wireFile) Truncate(size int64) error {
	if !f.writable {
		return fsapi.ErrPerm
	}
	if err := f.sess.Setattr(context.Background(), f.h, size); err != nil {
		return err
	}
	f.mu.Lock()
	f.size = size
	f.mu.Unlock()
	return nil
}

// Size implements fsapi.File. The authoritative size lives server-side
// (another client may have grown the file), so ask; fall back to the
// local shadow only if the wire fails (Size has no error to return).
func (f *wireFile) Size() int64 {
	if a, err := f.sess.Getattr(context.Background(), f.h); err == nil {
		f.mu.Lock()
		f.size = a.Size
		f.mu.Unlock()
		return a.Size
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Sync implements fsapi.File.
func (f *wireFile) Sync() error {
	if !f.writable {
		return nil
	}
	return f.sess.Commit(context.Background(), f.h)
}

// Close implements fsapi.File. Stateless protocol: nothing to release
// server-side.
func (f *wireFile) Close() error { return nil }
