// Request and reply body shapes of the typed RPCs, one helper per shape.
//
// Every enc* helper (and AppendHandle, the body of a request that names
// only a handle) appends one request's body to f, a frame whose
// reqHeader bytes Session.call patches once (length, xid, proc): f is
// the call's inline header array (scall.head) unless a name outgrows
// it. A WRITE or APPEND body ends in its payload, and that is not
// copied here: the helper appends the body up to it, and send copies
// the header and the caller's p into the session's one reused scratch
// frame and writes that, so no frame is allocated per call. The length
// field covers both, so the wire carries the bytes a contiguous frame
// would and every transmission is byte-identical to the first, which is
// exactly what the server's duplicate-request cache fingerprints. A
// reconnect retransmits a copy of both, taken while the call is still
// pending (Session.connectLoop). Replies are read by demux into space
// the call owns (scall.recv): the dec* helpers parse views nobody else
// writes, and a READ's payload never passes through here.
//
// Copies of a 16 KiB payload end to end over the loopback:
//
//	READ  (3): NVM → reply frame → transport ring → caller's p
//	WRITE (4): caller's p → session scratch frame → transport ring →
//	           server request buffer → NVM
package serve

import "trio/internal/fsapi"

// ---------------------------------------------------------------------
// request frames
// ---------------------------------------------------------------------

// reqHeader is what precedes a body on the wire: length + xid + op.
const reqHeader = 4 + frameHeader

// reqInline is the largest body without a name, encIO's. Such a
// request frame fits the call's inline header array.
const reqInline = 20

func encHello(f []byte, clientID uint64) []byte {
	f = appendU32(f, Magic)
	f = appendU16(f, ProtoVersion)
	return appendU64(f, clientID)
}

// encDirName is LOOKUP's, REMOVE's and RMDIR's body.
func encDirName(f []byte, dir fsapi.Handle, name string) []byte {
	f = AppendHandle(f, dir)
	return AppendString(f, name)
}

// encIO is READ's body (n: the count wanted) and WRITE's up to its
// payload (n: the payload's length prefix; the n bytes follow on the
// wire from the caller's buffer).
func encIO(f []byte, h fsapi.Handle, off int64, n int) []byte {
	f = AppendHandle(f, h)
	f = appendU64(f, uint64(off))
	return appendU32(f, uint32(n))
}

// encAppend is APPEND's body up to its payload, as encIO is WRITE's.
func encAppend(f []byte, h fsapi.Handle, n int) []byte {
	f = AppendHandle(f, h)
	return appendU32(f, uint32(n))
}

func encMakeNode(f []byte, dir fsapi.Handle, mode uint16, name string) []byte {
	f = AppendHandle(f, dir)
	f = appendU16(f, mode)
	return AppendString(f, name)
}

func encRename(f []byte, fromDir, toDir fsapi.Handle, fromName, toName string) []byte {
	f = AppendHandle(f, fromDir)
	f = AppendHandle(f, toDir)
	f = AppendString(f, fromName)
	return AppendString(f, toName)
}

func encReaddir(f []byte, h fsapi.Handle, cookie uint32) []byte {
	f = AppendHandle(f, h)
	return appendU32(f, cookie)
}

func encSetattr(f []byte, h fsapi.Handle, size int64) []byte {
	f = AppendHandle(f, h)
	return appendU64(f, uint64(size))
}

// ---------------------------------------------------------------------
// reply bodies
// ---------------------------------------------------------------------

func decAttr(rep reply) (Attr, error) {
	d := NewDec(rep.body)
	a := d.Attr()
	return a, d.Err()
}

func decHandleAttr(rep reply) (fsapi.Handle, Attr, error) {
	d := NewDec(rep.body)
	h, a := d.Handle(), d.Attr()
	return h, a, d.Err()
}

func decWrote(rep reply) (int, error) {
	d := NewDec(rep.body)
	n := int(d.U32())
	return n, d.Err()
}

func decAppendedAt(rep reply) (int64, error) {
	d := NewDec(rep.body)
	at := int64(d.U64())
	return at, d.Err()
}

// decDirPage appends one READDIR page's names to names and returns the
// continuation cookie (0 = listing complete).
func decDirPage(rep reply, names []string) ([]string, uint32, error) {
	d := NewDec(rep.body)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		names = append(names, string(d.Name()))
	}
	next := d.U32()
	return names, next, d.Err()
}
