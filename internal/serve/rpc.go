// Request and reply body shapes of the typed RPCs, one helper per shape.
//
// Every enc* helper returns a whole frame — reqHeader bytes Session.call
// patches once (length, xid, proc), then the body — in a slice it
// allocated for that one call. call keeps it as the retransmit unit and
// every transmission is one Write of it, so a retransmission is
// byte-identical to the original, which is exactly what the server's
// duplicate-request cache fingerprints. Replies are read by demux into
// space the call owns (scall.recv): the dec* helpers parse views nobody
// else writes, and a READ's payload never passes through here.
//
// Copies of a 16 KiB payload end to end over the loopback:
//
//	READ  (3): NVM → reply frame → transport ring → caller's p
//	WRITE (4): caller's p → retransmit unit → transport ring →
//	           server request buffer → NVM
package serve

import "trio/internal/fsapi"

// ---------------------------------------------------------------------
// request frames
// ---------------------------------------------------------------------

// reqHeader is what precedes a body on the wire: length + xid + op.
const reqHeader = 4 + frameHeader

// newReq returns an empty request frame with room for n body bytes.
func newReq(n int) []byte { return make([]byte, reqHeader, reqHeader+n) }

func encHello(clientID uint64) []byte {
	f := newReq(14)
	f = appendU32(f, Magic)
	f = appendU16(f, ProtoVersion)
	return appendU64(f, clientID)
}

func encHandle(h fsapi.Handle) []byte {
	return AppendHandle(newReq(8), h)
}

func encLookup(dir fsapi.Handle, name string) []byte {
	f := newReq(10 + len(name))
	f = AppendHandle(f, dir)
	return AppendString(f, name)
}

func encRead(h fsapi.Handle, off int64, n int) []byte {
	f := newReq(20)
	f = AppendHandle(f, h)
	f = appendU64(f, uint64(off))
	return appendU32(f, uint32(n))
}

func encWrite(h fsapi.Handle, off int64, p []byte) []byte {
	f := newReq(20 + len(p))
	f = AppendHandle(f, h)
	f = appendU64(f, uint64(off))
	return AppendBytes(f, p)
}

func encAppend(h fsapi.Handle, p []byte) []byte {
	f := newReq(12 + len(p))
	f = AppendHandle(f, h)
	return AppendBytes(f, p)
}

func encMakeNode(dir fsapi.Handle, mode uint16, name string) []byte {
	f := newReq(12 + len(name))
	f = AppendHandle(f, dir)
	f = appendU16(f, mode)
	return AppendString(f, name)
}

func encRemoveNode(dir fsapi.Handle, name string) []byte {
	f := newReq(10 + len(name))
	f = AppendHandle(f, dir)
	return AppendString(f, name)
}

func encRename(fromDir, toDir fsapi.Handle, fromName, toName string) []byte {
	f := newReq(20 + len(fromName) + len(toName))
	f = AppendHandle(f, fromDir)
	f = AppendHandle(f, toDir)
	f = AppendString(f, fromName)
	return AppendString(f, toName)
}

func encReaddir(h fsapi.Handle, cookie uint32) []byte {
	f := newReq(12)
	f = AppendHandle(f, h)
	return appendU32(f, cookie)
}

func encSetattr(h fsapi.Handle, size int64) []byte {
	f := newReq(16)
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
