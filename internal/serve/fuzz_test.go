// Fuzz targets for the two parsers of untrusted bytes in this package
// (ROADMAP 1e): the server's frame reader + dispatcher, fed an arbitrary
// client byte stream, and the session's reply demux, fed an arbitrary
// server byte stream while a call is pending.
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"trio/internal/fsapi"
	"trio/internal/fsfactory"
)

// allocated reports the bytes the process has allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzServeFrame feeds ServeConn an arbitrary client byte stream over a
// duplex. Whatever arrives, the server never panics, every frame it
// emits is well formed and within MaxFrame, it hangs up rather than
// hanging, and what it allocates is bounded per frame received — a
// length or count field alone can size nothing past MaxFrame.
func FuzzServeFrame(f *testing.F) {
	root := fsapi.Handle{Ino: 1}
	file := fsapi.Handle{Ino: 2} // what the first CREATE in a fresh FS is likely to mint
	stream := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	hello := sealReq(encHello(7), 1, ProcHello)
	f.Add(hello)
	f.Add(stream(hello,
		sealReq(encHandle(root), 2, ProcGetattr),
		sealReq(encMakeNode(root, 0o644, "f"), 3, ProcCreate),
		sealReq(encWrite(file, 0, bytes.Repeat([]byte{7}, 300)), 4, ProcWrite),
		sealReq(encRead(file, 0, 16<<10), 5, ProcRead),
		sealReq(encRead(file, 100, MaxFrame-64), 6, ProcRead),
		sealReq(encAppend(file, []byte("tail")), 7, ProcAppend),
		sealReq(encReaddir(root, 0), 8, ProcReaddir),
		sealReq(encRename(root, root, "f", "g"), 9, ProcRename),
		sealReq(encSetattr(file, 10), 10, ProcSetattr),
		sealReq(encRemoveNode(root, "g"), 11, ProcRemove)))
	f.Add(stream(hello, sealReq(encLookup(root, "../x"), 2, ProcLookup), sealReq(newReq(0), 3, Proc(200))))
	f.Add(stream(hello, sealReq(encWrite(file, 0, make([]byte, 64)), 2, ProcWrite)[:40])) // truncated payload
	f.Add(stream(hello, []byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 4}))                   // 4 GiB length claim
	f.Add(stream(hello, []byte{0, 0, 64, 0, 1, 0, 0, 0, 4}))                              // 4 MiB claim, nothing behind it
	f.Add(sealReq(encHandle(root), 2, ProcGetattr))                                       // request before HELLO
	f.Add(stream(hello, hello, sealReq(encRead(root, 1<<62, 0xFFFFFFFF), 2, ProcRead)))

	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := fsfactory.New("arckfs", fsfactory.Config{Nodes: 1, PagesPerNode: 2048, CPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		srv, err := NewServer(inst, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		before := allocated()

		a, b := NewDuplex(loopbackBuf)
		served := make(chan struct{})
		go func() {
			srv.ServeConn(a)
			close(served)
		}()
		go func() {
			b.Write(data) // fails once the server has hung up on a bad frame
			// End of input, replies still readable: close only this
			// direction.
			b.(*half).wr.close()
		}()
		var buf []byte
		for {
			_, nbuf, err := ReadFrame(b, buf)
			if buf = nbuf; err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("server emitted a bad frame: %v", err)
				}
				break
			}
		}
		<-served
		b.Close()

		// Per frame: one request buffer and one reply buffer on the
		// server, one reply buffer here, each at most MaxFrame.
		frames := uint64(len(data)/reqHeader + 2)
		if got := allocated() - before; got > frames*3*MaxFrame {
			t.Fatalf("%d bytes allocated for a %d-byte stream (at most %d frames)", got, len(data), frames)
		}
	})
}

// FuzzSessionDemux feeds a session's demux an arbitrary server byte
// stream while one READ or GETATTR is pending (the stream's first xid is
// patched to the call's, so the fuzzer reaches the claimed-call paths).
// Whatever arrives: no panic, nothing written outside p — and nothing
// written to p at all once the call has returned — the call returns
// exactly once, and nothing is sized past MaxFrame by a length or count
// field.
func FuzzSessionDemux(f *testing.F) {
	payload := stamped(300)
	f.Add(readReply(0, 300, payload), true)
	f.Add(readReply(0, 100, payload), true)                                                  // trailing bytes
	f.Add(readReply(0, 0xFFFFFFFF, payload[:8]), true)                                       // count past the frame
	f.Add(readReply(0, 300, payload)[:reqHeader+4+150], true)                                // torn mid-payload
	f.Add(append(readReply(0, 300, payload), readReply(0, 300, make([]byte, 300))...), true) // answered twice
	f.Add(EndFrame(AppendAttr(BeginFrame(nil, 0, uint8(StatusOK)), Attr{Size: 9}), 0), false)
	f.Add(EndFrame(BeginFrame(nil, 0, uint8(StatusStale)), 0), true)
	f.Add(EndFrame(BeginFrame(nil, 0, uint8(StatusBusy)), 0), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0}, true) // 4 GiB length claim
	f.Add([]byte{0, 0, 64, 0, 0, 0, 0, 0, 0, 1, 2, 3}, false)  // 4 MiB claim, 3 bytes behind it
	f.Add([]byte{2, 0, 0, 0, 0, 0}, true)                      // undersized frame

	f.Fuzz(func(t *testing.T, data []byte, read bool) {
		redial, wait := scriptedRedial(t, func(srv io.ReadWriteCloser) {
			xid, _, _ := nextReq(t, srv)
			stream := append([]byte(nil), data...)
			if len(stream) >= 8 {
				binary.LittleEndian.PutUint32(stream[4:], xid)
			}
			srv.Write(stream)
		})
		opts := testSessionOptions(831)
		opts.RedialBudget = 1 // the stream is all there is: afterwards the session breaks
		sess, err := NewSession(redial, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := allocated()

		p, intact := guarded(256)
		ctx, written := context.Background(), len(p)
		if read {
			n, err := sess.Read(ctx, sess.Root(), 0, p)
			if n < 0 || n > len(p) {
				t.Fatalf("read returned n=%d for a %d-byte buffer", n, len(p))
			}
			if err == nil {
				written = n
			}
		} else {
			sess.Getattr(ctx, sess.Root())
			written = 0
		}
		if !intact(written) {
			t.Fatalf("bytes written outside p[:%d]", written)
		}
		// A second frame under the same xid must find no call to land in.
		after := append([]byte(nil), p...)
		wait()
		sess.Close()
		if !bytes.Equal(p, after) {
			t.Fatal("p written after the call returned")
		}
		if got := allocated() - before; got > 3*MaxFrame {
			t.Fatalf("%d bytes allocated for a %d-byte stream", got, len(data))
		}
	})
}
