package libfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"trio/internal/controller"
	"trio/internal/delegation"
	"trio/internal/nvm"
)

// TestExtentReadSpansHoles writes a sparse file — data, hole, data —
// and checks reads crossing every boundary see data and zeros exactly.
// It runs twice: at offset 0 the shape straddles the radix's inline head
// (blocks 0–7 inline, block 8 in the tree); 1000 blocks in, the same
// shape lies in the tree alone, behind one large leading hole.
func TestExtentReadSpansHoles(t *testing.T) {
	for _, base := range []int64{0, 1000 * nvm.PageSize} {
		fs, _ := newFS(t)
		c := fs.NewClient(0)
		f, err := c.Create("/sparse", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		lo := bytes.Repeat([]byte{0x11}, 2*nvm.PageSize)
		hi := bytes.Repeat([]byte{0x22}, nvm.PageSize+123)
		hiOff := base + int64(7*nvm.PageSize)
		if _, err := f.WriteAt(lo, base); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(hi, hiOff); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, hiOff+int64(len(hi)))
		copy(want[base:], lo)
		copy(want[hiOff:], hi)

		// Whole-file read: data run, hole run, data run in one call.
		got := make([]byte, len(want))
		// Poison the buffer: holes must be actively zeroed, not left over.
		for i := range got {
			got[i] = 0xFF
		}
		if n, err := f.ReadAt(got, 0); err != nil || n != len(got) {
			t.Fatalf("base %d: ReadAt = %d, %v", base, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("base %d: sparse read mismatch", base)
		}
		// Reads straddling each data/hole boundary at odd offsets.
		for _, span := range [][2]int64{
			{base + int64(2*nvm.PageSize) - 7, 100},  // data -> hole
			{hiOff - 50, 100},                        // hole -> data
			{base + int64(nvm.PageSize) + 1, 50},     // inside data
			{base + int64(4*nvm.PageSize), 1000},     // inside hole
			{0, hiOff + int64(len(hi))},              // everything
			{hiOff + int64(len(hi)) - 10, 100000},    // past EOF
			{base / 2, base/2 + int64(nvm.PageSize)}, // the leading hole into data
		} {
			off, n := span[0], span[1]
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = 0xFF
			}
			rn, err := f.ReadAt(buf, off)
			if err != nil {
				t.Fatalf("base %d: ReadAt(%d,%d): %v", base, off, n, err)
			}
			wantN := int(min64(n, int64(len(want))-off))
			if rn != wantN {
				t.Fatalf("base %d: ReadAt(%d,%d) = %d, want %d", base, off, n, rn, wantN)
			}
			if !bytes.Equal(buf[:rn], want[off:off+int64(rn)]) {
				t.Fatalf("base %d: mismatch on span (%d,%d)", base, off, n)
			}
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestExtentWriteIntoHoleRun fills a multi-page hole with one write and
// verifies the surrounding holes still read as zeros (fresh pages must
// be edge-zeroed even when allocated as a bulk run).
func TestExtentWriteIntoHoleRun(t *testing.T) {
	fs, _ := newFS(t)
	c := fs.NewClient(0)
	f, err := c.Create("/holes", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Establish size with a tail write, leaving a big hole.
	if _, err := f.WriteAt([]byte{0xEE}, 20*nvm.PageSize); err != nil {
		t.Fatal(err)
	}
	// One write filling pages 5..9 partially at both edges.
	data := bytes.Repeat([]byte{0x33}, 4*nvm.PageSize)
	off := int64(5*nvm.PageSize) + 100
	if _, err := f.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	// The partial edge pages must read zero outside the written span.
	buf := make([]byte, 6*nvm.PageSize)
	for i := range buf {
		buf[i] = 0xFF
	}
	if _, err := f.ReadAt(buf, 5*nvm.PageSize); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[99] != 0 {
		t.Fatal("leading edge of hole-fill run not zeroed")
	}
	if !bytes.Equal(buf[100:100+len(data)], data) {
		t.Fatal("hole-fill data mismatch")
	}
	for i := 100 + len(data); i < len(buf); i++ {
		if buf[i] != 0 {
			t.Fatalf("trailing edge byte %d not zeroed", i)
		}
	}
}

// TestExtentRandomizedReadWrite cross-checks the extent datapath against
// an in-memory shadow file over random sparse reads and writes.
func TestExtentRandomizedReadWrite(t *testing.T) {
	fs, _ := newFS(t)
	c := fs.NewClient(0)
	f, err := c.Create("/rand", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const fileSpan = 64 * nvm.PageSize
	shadow := make([]byte, fileSpan)
	size := int64(0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		off := int64(rng.Intn(fileSpan - 1))
		n := 1 + rng.Intn(fileSpan-int(off))
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			if _, err := f.WriteAt(data, off); err != nil {
				t.Fatalf("WriteAt(%d,%d): %v", off, n, err)
			}
			copy(shadow[off:], data)
			if off+int64(n) > size {
				size = off + int64(n)
			}
		} else {
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = 0xFF
			}
			rn, err := f.ReadAt(buf, off)
			if err != nil {
				t.Fatalf("ReadAt(%d,%d): %v", off, n, err)
			}
			wantN := int(min64(int64(n), size-off))
			if wantN < 0 {
				wantN = 0
			}
			if rn != wantN {
				t.Fatalf("ReadAt(%d,%d) = %d, want %d (size %d)", off, n, rn, wantN, size)
			}
			if !bytes.Equal(buf[:rn], shadow[off:off+int64(rn)]) {
				t.Fatalf("iter %d: mismatch on read (%d,%d)", i, off, n)
			}
		}
	}
}

// TestExtentConcurrentAppendAndRead races appenders against whole-file
// readers; under -race this also proves the extent iterator tolerates
// concurrent radix growth.
func TestExtentConcurrentAppendAndRead(t *testing.T) {
	fs, _ := newFS(t)
	c := fs.NewClient(0)
	f, err := c.Create("/race", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := fs.NewClient(1)
		fw, err := w.Open("/race", true)
		if err != nil {
			t.Error(err)
			return
		}
		chunk := bytes.Repeat([]byte{0x5A}, 1000)
		for i := 0; i < 200; i++ {
			if _, err := fw.Append(chunk); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
		close(stop)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 256*1024)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := f.ReadAt(buf, 0)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				if buf[i] != 0x5A {
					t.Errorf("byte %d/%d = %#x, want 0x5A", i, n, buf[i])
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestExtentDelegatedLargeIO pushes delegation-sized contiguous I/O
// through the striped multi-node datapath and round-trips it.
func TestExtentDelegatedLargeIO(t *testing.T) {
	dev := nvm.MustNewDevice(nvm.Config{Nodes: 2, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{LeaseTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pool := delegation.NewPool(dev, 2)
	defer pool.Close()
	fs, err := New(ctl.Register(1000, 1000, 0, 0), Config{CPUs: 4, Pool: pool, Stripe: true})
	if err != nil {
		t.Fatal(err)
	}
	c := fs.NewClient(0)
	f, err := c.Create("/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, delegation.DelegateWriteMin*4)
	rng := rand.New(rand.NewSource(99))
	rng.Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		for i := range got {
			if got[i] != data[i] {
				t.Fatalf("first mismatch at byte %d (page %d)", i, i/nvm.PageSize)
			}
		}
	}
	// Overwrite a middle slice spanning several pages and re-verify.
	mid := int64(len(data) / 3)
	patch := bytes.Repeat([]byte{0xA5}, 3*nvm.PageSize+77)
	if _, err := f.WriteAt(patch, mid); err != nil {
		t.Fatal(err)
	}
	copy(data[mid:], patch)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("overwrite round-trip mismatch")
	}
	_ = fmt.Sprint()
}
