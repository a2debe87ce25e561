// Request and reply body shapes of the typed RPCs, one helper per shape.
// Every enc* helper returns a slice it allocated for that one request;
// Session.call keeps it as the retransmit unit, so a retransmission is
// byte-identical to the original — which is exactly what the server's
// duplicate-request cache fingerprints.
package serve

import "trio/internal/fsapi"

// ---------------------------------------------------------------------
// request bodies
// ---------------------------------------------------------------------

func encHello(clientID uint64) []byte {
	body := make([]byte, 0, 16)
	body = appendU32(body, Magic)
	body = appendU16(body, ProtoVersion)
	return appendU64(body, clientID)
}

func encHandle(h fsapi.Handle) []byte {
	return AppendHandle(make([]byte, 0, 8), h)
}

func encLookup(dir fsapi.Handle, name string) []byte {
	body := make([]byte, 0, 16+len(name))
	body = AppendHandle(body, dir)
	return AppendString(body, name)
}

func encRead(h fsapi.Handle, off int64, n int) []byte {
	body := make([]byte, 0, 24)
	body = AppendHandle(body, h)
	body = appendU64(body, uint64(off))
	return appendU32(body, uint32(n))
}

func encWrite(h fsapi.Handle, off int64, p []byte) []byte {
	body := make([]byte, 0, 24+len(p))
	body = AppendHandle(body, h)
	body = appendU64(body, uint64(off))
	return AppendBytes(body, p)
}

func encAppend(h fsapi.Handle, p []byte) []byte {
	body := make([]byte, 0, 16+len(p))
	body = AppendHandle(body, h)
	return AppendBytes(body, p)
}

func encMakeNode(dir fsapi.Handle, mode uint16, name string) []byte {
	body := make([]byte, 0, 16+len(name))
	body = AppendHandle(body, dir)
	body = appendU16(body, mode)
	return AppendString(body, name)
}

func encRemoveNode(dir fsapi.Handle, name string) []byte {
	body := make([]byte, 0, 16+len(name))
	body = AppendHandle(body, dir)
	return AppendString(body, name)
}

func encRename(fromDir, toDir fsapi.Handle, fromName, toName string) []byte {
	body := make([]byte, 0, 24+len(fromName)+len(toName))
	body = AppendHandle(body, fromDir)
	body = AppendHandle(body, toDir)
	body = AppendString(body, fromName)
	return AppendString(body, toName)
}

func encReaddir(h fsapi.Handle, cookie uint32) []byte {
	body := make([]byte, 0, 12)
	body = AppendHandle(body, h)
	return appendU32(body, cookie)
}

func encSetattr(h fsapi.Handle, size int64) []byte {
	body := make([]byte, 0, 16)
	body = AppendHandle(body, h)
	return appendU64(body, uint64(size))
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

func decReadInto(rep reply, p []byte) (int, error) {
	d := NewDec(rep.body)
	data := d.Bytes()
	if err := d.Err(); err != nil {
		return 0, err
	}
	return copy(p, data), nil
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
