// Package serve is trio-serve's protocol handler library (ISSUE 9): an
// NFSv3-flavored, handle-addressed RPC file protocol mapped onto
// fsapi. The design follows the paper's trust split one tier up — the
// wire is the third boundary, above the LibFS/controller one — and the
// classic NFS lessons below:
//
//   - Requests are STATELESS and handle-addressed: every operation
//     carries a stable file handle (fsapi.Handle packed into 64 bits,
//     ino + generation) or a (directory handle, name) pair. No
//     per-client fd table lives on the server, so a server restart or a
//     client reconnect invalidates nothing but the duplicate-request
//     cache.
//   - Connections are PIPELINED: a client may keep many requests in
//     flight on one connection; the server completes them out of order
//     (each reply carries the request's xid) and enforces a
//     per-connection in-flight cap as backpressure.
//   - Replies are BATCHED: whoever is writing a connection's replies
//     takes every completed small reply it can see into a single
//     transport write, so a deep pipeline pays one wakeup per batch, the
//     way the delegation rings amortize the trust boundary below; a
//     reply that carries a payload goes to the transport from the
//     buffer it was built in.
//   - Non-idempotent requests (create, remove, rename, append, ...)
//     are guarded by a duplicate-request cache keyed by (client id,
//     xid): a retry after a dropped reply replays the recorded verdict
//     instead of double-applying the operation.
//
// Wire format (all integers little-endian):
//
//	frame   := len:u32 payload          (len = len(payload), max MaxFrame)
//	payload := xid:u32 op:u8 body
//
// op is a Proc in requests and a Status in replies. Strings are
// u16-length-prefixed bytes; byte blobs are u32-length-prefixed;
// handles are the packed 64-bit form. The steady-state encode/decode
// path (READ/WRITE framing) is allocation-free — gated by
// BenchmarkServeCodec in CI — and a payload is copied once per boundary
// it crosses (rpc.go has the count, server.go and session.go the
// ownership rules; BenchmarkWireRPC16K's B/op gate guards it).
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"trio/internal/fsapi"
)

// Proc identifies a request's operation.
type Proc uint8

const (
	// ProcHello must open every connection: it carries the protocol
	// magic/version and the client's stable identity (the duplicate-
	// request-cache key), and returns the root handle + attributes.
	ProcHello Proc = iota
	ProcNull
	ProcGetattr
	ProcLookup
	ProcRead
	ProcWrite
	ProcAppend
	ProcCreate
	ProcMkdir
	ProcRemove
	ProcRmdir
	ProcRename
	ProcReaddir
	ProcSetattr
	ProcCommit
	procCount
)

// procNames indexes Proc for telemetry and errors.
var procNames = [procCount]string{
	"hello", "null", "getattr", "lookup", "read", "write", "append",
	"create", "mkdir", "remove", "rmdir", "rename", "readdir",
	"setattr", "commit",
}

// String returns the proc's wire name.
func (p Proc) String() string {
	if int(p) < len(procNames) {
		return procNames[p]
	}
	return fmt.Sprintf("proc%d", uint8(p))
}

// Status is a reply's verdict, the wire form of the fsapi error set.
type Status uint8

const (
	StatusOK Status = iota
	StatusNotExist
	StatusExist
	StatusIsDir
	StatusNotDir
	StatusNotEmpty
	StatusPerm
	StatusInval
	StatusNoSpace
	StatusIO
	StatusCorrupt
	StatusStale
	StatusBadProc
	// StatusBusy is overload shedding: the server's in-flight budget
	// is exhausted (or it is draining) and the request was NOT
	// executed. Always safe to retry after a backoff — the verdict is
	// issued before dispatch and never recorded in the DRC.
	StatusBusy
)

// ErrBusy is StatusBusy's client-side form: the server shed the
// request before executing it. Retry after a backoff (Session does
// this automatically).
var ErrBusy = errors.New("serve: server busy (request shed, retry)")

// ErrDeadline reports a per-call deadline that expired while the
// request was in flight. The request MAY have executed server-side;
// retrying it through the same Session with the same xid is safe (the
// duplicate-request cache deduplicates), re-issuing it as a NEW call
// may double-apply non-idempotent operations.
var ErrDeadline = errors.New("serve: call deadline exceeded")

// ErrSessionClosed reports a call issued against (or failed by) a
// closed or broken-for-good Session.
var ErrSessionClosed = errors.New("serve: session closed")

// Retryable reports whether an error is a transient serving failure
// the caller may retry: overload shedding, an expired call deadline,
// or a torn transport. Application verdicts (ErrNotExist, ErrExist,
// ...) are never retryable.
func Retryable(err error) bool {
	return errors.Is(err, ErrBusy) || errors.Is(err, ErrDeadline)
}

// statusErrs maps each non-OK status to its canonical fsapi error, so
// errors.Is works identically on both sides of the wire.
var statusErrs = map[Status]error{
	StatusNotExist: fsapi.ErrNotExist,
	StatusExist:    fsapi.ErrExist,
	StatusIsDir:    fsapi.ErrIsDir,
	StatusNotDir:   fsapi.ErrNotDir,
	StatusNotEmpty: fsapi.ErrNotEmpty,
	StatusPerm:     fsapi.ErrPerm,
	StatusInval:    fsapi.ErrInval,
	StatusNoSpace:  fsapi.ErrNoSpace,
	StatusIO:       fsapi.ErrIO,
	StatusCorrupt:  fsapi.ErrCorrupt,
	StatusStale:    fsapi.ErrStale,
	StatusBusy:     ErrBusy,
}

// StatusOf classifies an fsapi error for the wire. Unrecognized errors
// travel as StatusIO: the client sees a typed I/O failure, never a
// silent success.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, fsapi.ErrStale):
		return StatusStale
	case errors.Is(err, fsapi.ErrNotExist):
		return StatusNotExist
	case errors.Is(err, fsapi.ErrExist):
		return StatusExist
	case errors.Is(err, fsapi.ErrIsDir):
		return StatusIsDir
	case errors.Is(err, fsapi.ErrNotDir):
		return StatusNotDir
	case errors.Is(err, fsapi.ErrNotEmpty):
		return StatusNotEmpty
	case errors.Is(err, fsapi.ErrPerm):
		return StatusPerm
	case errors.Is(err, fsapi.ErrInval):
		return StatusInval
	case errors.Is(err, fsapi.ErrNoSpace):
		return StatusNoSpace
	case errors.Is(err, fsapi.ErrCorrupt):
		return StatusCorrupt
	case errors.Is(err, ErrBusy):
		return StatusBusy
	default:
		return StatusIO
	}
}

// Err converts a status back into the canonical fsapi error (nil for
// StatusOK).
func (st Status) Err() error {
	if st == StatusOK {
		return nil
	}
	if err, ok := statusErrs[st]; ok {
		return err
	}
	return fmt.Errorf("%w: server status %d", fsapi.ErrIO, uint8(st))
}

// Protocol limits and constants.
const (
	// Magic/ProtoVersion open every connection inside ProcHello.
	// Version 2 added the READDIR continuation cookie (request carries
	// a start index, replies end with a next-cookie, 0 = complete).
	Magic        uint32 = 0x54524930 // "TRI0"
	ProtoVersion uint16 = 2

	// MaxFrame bounds one frame's payload; large I/O must fit (the
	// conformance suite streams 1 MiB files in 64 KiB chunks, the load
	// generator reads 128 KiB blocks).
	MaxFrame = 4 << 20

	// MaxName bounds one path component on the wire.
	MaxName = 255

	// frameHeader is the non-body payload size: xid + op byte.
	frameHeader = 5
)

// maxDirPayload caps the entry bytes one READDIR reply carries; bigger
// directories continue under the reply's next-cookie. Well under
// MaxFrame so a full page plus framing always fits. A variable, not a
// const, so tests can shrink it to exercise pagination without minting
// tens of thousands of entries.
var maxDirPayload = 1 << 20

// ErrBadFrame reports a malformed or oversized frame.
var ErrBadFrame = errors.New("serve: malformed frame")

// ---------------------------------------------------------------------
// frame building (append-style, allocation-free once the buffer has
// grown to its steady-state size)
// ---------------------------------------------------------------------

// BeginFrame appends a frame header for (xid, op) to buf and returns
// the extended buffer. op is a Proc on requests, a Status on replies.
// The 4-byte length field is a placeholder until EndFrame patches it,
// so multiple frames can be packed back to back in one buffer (reply
// batching) before a single transport write.
func BeginFrame(buf []byte, xid uint32, op uint8) []byte {
	buf = append(buf, 0, 0, 0, 0) // length, patched by EndFrame
	buf = binary.LittleEndian.AppendUint32(buf, xid)
	return append(buf, op)
}

// EndFrame patches the length of the frame that began at offset start.
func EndFrame(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// Field appenders.

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendHandle appends the packed 64-bit handle.
func AppendHandle(b []byte, h fsapi.Handle) []byte { return appendU64(b, h.Pack()) }

// AppendString appends a u16-length-prefixed string (or name bytes).
func AppendString(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendBytes appends a u32-length-prefixed blob.
func AppendBytes(b, blob []byte) []byte {
	b = appendU32(b, uint32(len(blob)))
	return append(b, blob...)
}

// Attr is the wire form of fsapi.FileInfo (no name: handles address
// inodes, names live in directories).
type Attr struct {
	Size  int64
	Mode  uint16
	IsDir bool
}

// Info adapts the attr (plus the handle it came with) to fsapi.FileInfo.
func (a Attr) Info(name string, h fsapi.Handle) fsapi.FileInfo {
	return fsapi.FileInfo{Name: name, Ino: h.Ino, Size: a.Size, Mode: a.Mode, IsDir: a.IsDir}
}

// AttrOf converts a stat result for the wire.
func AttrOf(info fsapi.FileInfo) Attr {
	return Attr{Size: info.Size, Mode: info.Mode, IsDir: info.IsDir}
}

// AppendAttr appends the 11-byte attr encoding.
func AppendAttr(b []byte, a Attr) []byte {
	b = appendU64(b, uint64(a.Size))
	b = appendU16(b, a.Mode)
	if a.IsDir {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---------------------------------------------------------------------
// frame reading / field decoding
// ---------------------------------------------------------------------

// Frame is one decoded payload. Body aliases the read buffer — it is
// valid until the next ReadFrame on the same buffer.
type Frame struct {
	Xid  uint32
	Op   uint8 // Proc in requests, Status in replies
	Body []byte
}

// ReadFrame reads one length-prefixed frame from r into buf (growing it
// as needed) and returns the parsed frame plus the (possibly regrown)
// buffer. io.EOF surfaces unchanged when the stream ends cleanly
// between frames.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The length header is read into the reusable buffer (not a local
	// array) so the whole steady-state path allocates nothing.
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, buf, io.EOF
		}
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n < frameHeader || n > MaxFrame {
		return Frame{}, buf, fmt.Errorf("%w: payload %d bytes", ErrBadFrame, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	return Frame{
		Xid:  binary.LittleEndian.Uint32(buf),
		Op:   buf[4],
		Body: buf[frameHeader:],
	}, buf, nil
}

// Dec is a cursor over a frame body. A decode past the end sets the
// sticky error; callers check Err once after pulling every field.
type Dec struct {
	b   []byte
	off int
	bad bool
}

// NewDec returns a cursor over body.
func NewDec(body []byte) Dec { return Dec{b: body} }

// Err reports whether any decode ran past the body.
func (d *Dec) Err() error {
	if d.bad {
		return ErrBadFrame
	}
	return nil
}

// Rest returns the undecoded tail of the body.
func (d *Dec) Rest() []byte { return d.b[d.off:] }

func (d *Dec) U16() uint16 {
	if d.off+2 > len(d.b) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *Dec) U32() uint32 {
	if d.off+4 > len(d.b) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *Dec) U64() uint64 {
	if d.off+8 > len(d.b) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// Handle decodes a packed handle.
func (d *Dec) Handle() fsapi.Handle { return fsapi.UnpackHandle(d.U64()) }

// Name decodes a u16-length-prefixed component as a byte view into the
// frame (no allocation; convert to string only past the sanitizer).
func (d *Dec) Name() []byte {
	n := int(d.U16())
	if d.bad || d.off+n > len(d.b) {
		d.bad = true
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// Bytes decodes a u32-length-prefixed blob as a view into the frame.
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	if d.bad || d.off+n > len(d.b) {
		d.bad = true
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// Attr decodes the 11-byte attr encoding.
func (d *Dec) Attr() Attr {
	size := int64(d.U64())
	mode := d.U16()
	isDir := false
	if d.off < len(d.b) {
		isDir = d.b[d.off] != 0
		d.off++
	} else {
		d.bad = true
	}
	return Attr{Size: size, Mode: mode, IsDir: isDir}
}
