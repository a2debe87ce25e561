// Package fsapi defines the file-system interface shared by ArckFS, the
// customized LibFSes and every baseline file system in this repository,
// so that the workload generators, the benchmark harness and the
// mini-LevelDB run unchanged on any of them.
//
// The interface is deliberately POSIX-shaped but handle-based (no global
// file-descriptor table at this layer): each worker thread obtains a
// Client bound to its CPU, mirroring how the paper's evaluation pins
// fio/FxMark/Filebench threads.
package fsapi

import "errors"

// Errors shared across implementations.
var (
	ErrNotExist = errors.New("fsapi: no such file or directory")
	ErrExist    = errors.New("fsapi: file exists")
	ErrIsDir    = errors.New("fsapi: is a directory")
	ErrNotDir   = errors.New("fsapi: not a directory")
	ErrNotEmpty = errors.New("fsapi: directory not empty")
	ErrPerm     = errors.New("fsapi: permission denied")
	ErrInval    = errors.New("fsapi: invalid argument")
	ErrNoSpace  = errors.New("fsapi: no space left on device")
	// ErrIO is how device-level faults (media errors, exhausted
	// transient-busy retries, a frozen crashed device) surface through
	// the file-system API: as an error, never a panic.
	ErrIO = errors.New("fsapi: input/output error")
	// ErrCorrupt is returned instead of data whose end-to-end checksum
	// disagrees with the media: the scrubber quarantined the file, or a
	// read-path CRC verification failed. Corrupt bytes are never
	// silently served.
	ErrCorrupt = errors.New("fsapi: data failed integrity check")
)

// FileInfo is the stat(2) result.
type FileInfo struct {
	Name  string
	Ino   uint64
	Size  int64
	Mode  uint16
	IsDir bool
}

// File is an open file handle.
type File interface {
	// ReadAt reads len(b) bytes at offset off; short reads at EOF
	// return the count with a nil error (n==0 at/after EOF).
	ReadAt(b []byte, off int64) (int, error)
	// WriteAt writes len(b) bytes at offset off, extending the file as
	// needed.
	WriteAt(b []byte, off int64) (int, error)
	// Append writes at the end of file and returns the offset the data
	// landed at.
	Append(b []byte) (int64, error)
	// Truncate sets the file size.
	Truncate(size int64) error
	// Size reports the current file size.
	Size() int64
	// Sync makes previous writes durable. (A no-op for synchronous
	// file systems like ArckFS.)
	Sync() error
	// Close releases the handle.
	Close() error
}

// Client is a per-thread handle to a file system.
type Client interface {
	// Create creates (or truncates, when it exists and overwrite is
	// true) a regular file and opens it for writing.
	Create(path string, mode uint16) (File, error)
	// Open opens an existing file. write requests a writable handle.
	Open(path string, write bool) (File, error)
	// Mkdir creates a directory.
	Mkdir(path string, mode uint16) error
	// Unlink removes a regular file.
	Unlink(path string) error
	// Rmdir removes an empty directory.
	Rmdir(path string) error
	// Rename moves/renames a file or directory.
	Rename(oldPath, newPath string) error
	// Stat returns file metadata.
	Stat(path string) (FileInfo, error)
	// ReadDir lists the names in a directory.
	ReadDir(path string) ([]string, error)
}

// FS is a mounted file system.
type FS interface {
	// Name identifies the implementation ("arckfs", "nova", ...).
	Name() string
	// NewClient returns a handle bound to the given CPU hint.
	NewClient(cpu int) Client
	// Close unmounts, releasing background resources.
	Close() error
}

// NextComponent returns the first component of a slash-separated path
// and what follows it; repeated slashes collapse, and an empty name
// means the path is exhausted. It is the one definition of path syntax:
// walking a path with it allocates nothing.
func NextComponent(path string) (name, rest string) {
	start := 0
	for start < len(path) && path[start] == '/' {
		start++
	}
	end := start
	for end < len(path) && path[end] != '/' {
		end++
	}
	return path[start:end], path[end:]
}

// SplitLast splits a path into its final component and the path of
// everything before it, without allocating. The name is empty for "/"
// (and ""), which has no final component.
func SplitLast(path string) (dir, name string) {
	end := len(path)
	for end > 0 && path[end-1] == '/' {
		end--
	}
	start := end
	for start > 0 && path[start-1] != '/' {
		start--
	}
	return path[:start], path[start:end]
}

// SplitPath breaks an absolute slash-separated path into components.
// "/" yields an empty slice; repeated slashes collapse.
func SplitPath(path string) []string {
	var out []string
	for name, rest := NextComponent(path); name != ""; name, rest = NextComponent(rest) {
		out = append(out, name)
	}
	return out
}

// SplitDir splits a path into (parent components, final name).
func SplitDir(path string) (dir []string, name string, err error) {
	parts := SplitPath(path)
	if len(parts) == 0 {
		return nil, "", ErrInval
	}
	return parts[:len(parts)-1], parts[len(parts)-1], nil
}
