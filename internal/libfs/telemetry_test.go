package libfs

import (
	"bytes"
	"testing"

	"trio/internal/telemetry"
)

// TestGoldenSpanTree4KWrite is the golden cross-layer trace test: one
// traced 4K extending WriteAt must father a span tree whose children
// cover every layer the operation crosses — index lookup/link, page
// allocation, delegation dispatch and the NVM persist — so a trace of
// the datapath is guaranteed to lay the whole stack out.
func TestGoldenSpanTree4KWrite(t *testing.T) {
	fs, _ := newFS(t)
	c := fs.NewClient(0)
	f, err := c.Create("/golden.dat", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	telemetry.EnableTracing(0)
	defer telemetry.ResetTracing()

	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	tree := telemetry.BuildSpanTree(telemetry.TraceSnapshot())
	var root *telemetry.SpanRecord
	for i := range tree.Roots {
		if tree.Roots[i].Name == "libfs.WriteAt" {
			root = &tree.Roots[i]
			break
		}
	}
	if root == nil {
		t.Fatalf("no libfs.WriteAt root span; roots: %+v", tree.Roots)
	}
	if root.Layer != "libfs" {
		t.Fatalf("root layer = %q, want libfs", root.Layer)
	}
	if root.Dur < 0 {
		t.Fatalf("root span never ended (Dur = %d)", root.Dur)
	}

	layers := map[string]bool{}
	names := map[string]bool{}
	for _, ch := range tree.Children[root.ID] {
		layers[ch.Layer] = true
		names[ch.Name] = true
		if ch.Dur < 0 {
			t.Errorf("child span %s never ended", ch.Name)
		}
	}
	for _, want := range []string{"index", "alloc", "delegation", "nvm"} {
		if !layers[want] {
			t.Errorf("no child span in layer %q; got layers %v names %v",
				want, layers, names)
		}
	}
	for _, want := range []string{"index.lookup", "alloc.pages", "index.link",
		"delegation.copyout", "nvm.persist"} {
		if !names[want] {
			t.Errorf("missing child span %q; got %v", want, names)
		}
	}

	// The same trace renders as a valid line-oriented Chrome trace.
	var out bytes.Buffer
	if err := telemetry.WriteChromeTrace(&out, telemetry.TraceSnapshot()); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// TestDatapathMetricsFlow: with the default registry enabled, the libfs
// op counters and latency/size histograms observe reads and writes, and
// the layers below (alloc, nvm) account their work too.
func TestDatapathMetricsFlow(t *testing.T) {
	fs, _ := newFS(t)
	c := fs.NewClient(0)

	telemetry.Default().Enable()
	defer telemetry.Default().Disable()
	before := telemetry.Default().Snapshot()

	f, err := c.Create("/metrics.dat", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	d := telemetry.Default().Snapshot().Sub(before)
	if d.Get("libfs.write_ops") != 1 || d.Get("libfs.read_ops") != 1 {
		t.Fatalf("op counters: write=%d read=%d, want 1/1",
			d.Get("libfs.write_ops"), d.Get("libfs.read_ops"))
	}
	if d.Get("libfs.namespace_ops") == 0 {
		t.Error("namespace_ops did not move on Create")
	}
	if h := d.Hist("libfs.write_ns"); h.Count != 1 {
		t.Errorf("write_ns histogram count = %d, want 1", h.Count)
	}
	if h := d.Hist("libfs.write_bytes"); h.Count != 1 || h.Mean() < 4000 {
		t.Errorf("write_bytes histogram: count=%d mean=%.0f", h.Count, h.Mean())
	}
	if d.Get("alloc.pages_out") == 0 {
		t.Error("alloc.pages_out did not move on an extending write")
	}
	if d.Get("nvm.writes") == 0 || d.Get("nvm.persists") == 0 {
		t.Errorf("nvm counters: writes=%d persists=%d, want both > 0",
			d.Get("nvm.writes"), d.Get("nvm.persists"))
	}
	if d.Get("mmu.checks") == 0 {
		t.Error("mmu.checks did not move")
	}
}
