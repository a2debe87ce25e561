package libfs

import (
	"fmt"
	"testing"

	"trio/internal/controller"
	"trio/internal/delegation"
	"trio/internal/nvm"
)

// BenchmarkLifecycle is one small file's whole life on a mounted arckfs
// with the cost model off — create, append 4 KiB, close, stat, open,
// read, close, rename into another directory, unlink — the op the
// benchmark's meta-churn workload times. scripts/check.sh gates its
// allocs/op and B/op: a one-block file must not pay for page-sized
// auxiliary state again.
func BenchmarkLifecycle(b *testing.B) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{CPUs: 2})
	if err != nil {
		b.Fatal(err)
	}
	pool := delegation.NewPool(dev, 1)
	defer pool.Close()
	fs, err := New(ctl.Register(1000, 1000, 0, 0), Config{CPUs: 2, Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	c := fs.NewClient(0)
	for _, d := range []string{"/a", "/b"} {
		if err := c.Mkdir(d, 0o755); err != nil {
			b.Fatal(err)
		}
	}
	// Paths are made ahead of the loop, as a caller's would be; names
	// recur every 1024 ops, long after their file is gone.
	type op struct{ born, moved string }
	ops := make([]op, 1024)
	for i := range ops {
		ops[i] = op{fmt.Sprintf("/a/t%05d", i), fmt.Sprintf("/b/t%05d", i)}
	}
	wbuf, rbuf := make([]byte, nvm.PageSize), make([]byte, nvm.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &ops[i%len(ops)]
		f, err := c.Create(o.born, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Append(wbuf); err != nil {
			b.Fatal(err)
		}
		f.Close()
		if _, err := c.Stat(o.born); err != nil {
			b.Fatal(err)
		}
		if f, err = c.Open(o.born, false); err != nil {
			b.Fatal(err)
		}
		if n, err := f.ReadAt(rbuf, 0); err != nil || n != len(rbuf) {
			b.Fatalf("read %d bytes: %v", n, err)
		}
		f.Close()
		if err := c.Rename(o.born, o.moved); err != nil {
			b.Fatal(err)
		}
		if err := c.Unlink(o.moved); err != nil {
			b.Fatal(err)
		}
	}
}
