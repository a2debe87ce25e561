package libfs

import (
	"fmt"
	"testing"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/delegation"
	"trio/internal/fsapi"
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

// BenchmarkHandoverLibFS2M is the benchmark's share-handover op on two
// mounts in different trust groups: a 4 KiB overwrite of a shared 2 MiB
// file through the LibFS, then Session.UnmapFile — so every write starts
// with a fault, a write grant and the decision to rebuild the file's
// auxiliary state or keep it. In-place overwrites store to no index
// page: scripts/check.sh gates aux-rebuilds/op at 0, next to allocs/op.
// The handovers that establish the controller's facts and stamp each
// mount's aux with their generation run before the clock.
func BenchmarkHandoverLibFS2M(b *testing.B) { benchHandoverLibFS2M(b, false) }

// BenchmarkHandoverLibFSResize2M is the handover the scoping cannot
// help: each one truncates the file's last block away and appends it
// again (FreePages, an index store, a fresh page bound at release), so
// the release walks, the grant vouches for a new generation and the
// other mount rebuilds its aux — today's full path plus the
// release-time harvest. Not gated; CHANGES.md (PR 23) has it against the
// parent.
func BenchmarkHandoverLibFSResize2M(b *testing.B) { benchHandoverLibFS2M(b, true) }

func benchHandoverLibFS2M(b *testing.B, resize bool) {
	const blocks = 512
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{CPUs: 2})
	if err != nil {
		b.Fatal(err)
	}
	var mounts [2]*FS
	var hs [2]fsapi.File
	for d := range mounts {
		if mounts[d], err = New(ctl.Register(1000, 1000, 0, controller.GroupID(1+d)), Config{CPUs: 2}); err != nil {
			b.Fatal(err)
		}
		defer mounts[d].Close()
	}
	if hs[0], err = mounts[0].NewClient(0).Create("/shared", 0o666); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, nvm.PageSize)
	for i := 0; i < blocks; i++ {
		if _, err := hs[0].Append(buf); err != nil {
			b.Fatal(err)
		}
	}
	ino := hs[0].(*Handle).n.ino
	if err := mounts[0].Session().UnmapFile(core.RootIno); err != nil {
		b.Fatal(err)
	}
	if hs[1], err = mounts[1].NewClient(1).Open("/shared", true); err != nil {
		b.Fatal(err)
	}
	if err := mounts[1].Session().UnmapFile(ino); err != nil {
		b.Fatal(err)
	}
	handover := func(i int) {
		d := i & 1
		off := int64((i*37)%blocks) * nvm.PageSize
		if resize {
			off = (blocks - 1) * nvm.PageSize
			if err := hs[d].Truncate(off); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := hs[d].WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
		if err := mounts[d].Session().UnmapFile(ino); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		handover(i)
	}
	st0 := ctl.Stats().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handover(i)
	}
	b.StopTimer()
	st := ctl.Stats().Snapshot().Sub(st0)
	b.ReportMetric(float64(st.RebuildCount)/float64(b.N), "aux-rebuilds/op")
}
