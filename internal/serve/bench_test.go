package serve

import (
	"context"
	"testing"
)

// BenchmarkWireRPC16K is one serial RPC at a time over Server.Loopback:
// a 16 KiB READ, a 16 KiB WRITE, a GETATTR. With -benchmem it reports
// what a whole RPC allocates, both sides of the wire. check.sh
// (gate_wire_rpc) holds READ and WRITE under 1 KiB/op: a READ's payload
// lands in the caller's buffer and a WRITE's frame is put together in
// the session's reused scratch frame, so no payload-sized buffer may be
// allocated anywhere on either path.
func BenchmarkWireRPC16K(b *testing.B) {
	lb := mountLoopback(b, "arckfs", Options{Workers: 2})
	defer lb.Close()
	sess, err := lb.Server().Loopback(2)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	h, _, err := sess.Create(ctx, sess.Root(), "bench", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	const block, blocks = 16 << 10, 16
	buf := make([]byte, block)
	for i := 0; i < blocks; i++ {
		if _, err := sess.Write(ctx, h, int64(i)*block, buf); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		rpc  func(i int) (int, error)
	}{
		{"read", func(i int) (int, error) { return sess.Read(ctx, h, int64(i%blocks)*block, buf) }},
		{"write", func(i int) (int, error) { return sess.Write(ctx, h, int64(i%blocks)*block, buf) }},
		{"getattr", func(i int) (int, error) { _, err := sess.Getattr(ctx, h); return 0, err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n, err := bc.rpc(i); err != nil || (bc.name != "getattr" && n != block) {
					b.Fatalf("rpc: n=%d err=%v", n, err)
				}
			}
		})
	}
}
