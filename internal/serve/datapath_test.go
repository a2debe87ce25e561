// Tests of the copy-once data path (ISSUE 19): who owns a payload
// buffer when, on both sides of the wire — READ replies sized without a
// fill, request frames handed to workers in place, payloads landed
// straight in the caller's buffer and what happens when the transport
// dies, the session closes or the peer lies in the middle of one.
package serve

import (
	"bytes"
	"testing"
)

// TestReadShortThroughRecycledBuffer: the server sizes a READ reply for
// the requested count without filling it, in a pooled buffer that last
// carried somebody else's bytes. A read that comes up short (past EOF)
// must answer exactly cnt bytes in a frame whose length field says so:
// nothing of the buffer's previous life may reach the wire.
func TestReadShortThroughRecycledBuffer(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{Workers: 1})
	defer lb.Close()
	srv := lb.Server()
	rc := dialRaw(t, srv, 801)
	defer rc.rw.Close()
	rootB := AppendHandle(nil, srv.Root())

	create := func(xid uint32, name string, content []byte) []byte {
		st, body := rc.rpc(xid, ProcCreate, append(appendU16(append([]byte{}, rootB...), 0o644), AppendString(nil, name)...))
		if st != StatusOK {
			t.Fatalf("create %s: %d", name, st)
		}
		d := NewDec(body)
		hB := AppendHandle(nil, d.Handle())
		if st, _ := rc.rpc(xid+1, ProcWrite, AppendBytes(appendU64(append([]byte{}, hB...), 0), content)); st != StatusOK {
			t.Fatalf("write %s: %d", name, st)
		}
		return hB
	}
	const block = 16 << 10
	secret := bytes.Repeat([]byte{'S'}, block)
	public := bytes.Repeat([]byte{'p'}, 100)
	secretH := create(10, "secret", secret)
	publicH := create(20, "public", public)
	readReq := func(hB []byte, off uint64, n uint32) []byte {
		return appendU32(appendU64(append([]byte{}, hB...), off), n)
	}

	for round := uint32(0); round < 8; round++ {
		// A full-size read of the other file leaves its bytes in the
		// reply buffer the pool hands out next; a spare poisoned buffer
		// covers a pool that dropped it.
		if st, body := rc.rpc(100+2*round, ProcRead, readReq(secretH, 0, block)); st != StatusOK || len(body) != 4+block {
			t.Fatalf("secret read: status %d, %d body bytes", st, len(body))
		}
		putBuf(append(getBuf(), secret...))

		st, body := rc.rpc(101+2*round, ProcRead, readReq(publicH, 50, block))
		if st != StatusOK {
			t.Fatalf("short read: %d", st)
		}
		d := NewDec(body)
		data := d.Bytes()
		if d.Err() != nil || len(d.Rest()) != 0 {
			t.Fatalf("short read body malformed: %d bytes, %d trailing", len(body), len(d.Rest()))
		}
		if len(body) != 4+50 || !bytes.Equal(data, public[50:]) {
			t.Fatalf("short read returned %d body bytes %q, want count + the file's last 50", len(body), data)
		}
	}
	// The stream is still frame-aligned: no stray bytes followed a reply.
	if st, _ := rc.rpc(999, ProcNull, nil); st != StatusOK {
		t.Fatalf("null after short reads: %d", st)
	}
}
