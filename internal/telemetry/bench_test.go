package telemetry

// Overhead proof for the "compiled-in but near-free when disabled"
// contract: a counter add or span start against a disabled registry or
// tracer must cost about one atomic load and allocate nothing. CI's
// telemetry-overhead smoke runs these with -benchtime=100000x; the
// ReportAllocs lines turn any disabled-path allocation into a visible
// regression.

import (
	"testing"
	"time"
)

func BenchmarkTelemetryDisabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("bench.count")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IncOn(i)
	}
	if c.Load() != 0 {
		b.Fatal("disabled counter recorded")
	}
}

func BenchmarkTelemetryDisabledHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("bench.lat")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkTelemetryDisabledSpan(b *testing.B) {
	DisableTracing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(i, "op", "libfs")
		sp.Child("child", "alloc").End()
		sp.End()
	}
}

func BenchmarkTelemetryEnabledCounter(b *testing.B) {
	r := NewRegistry()
	r.Enable()
	c := r.NewCounter("bench.count")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IncOn(i)
	}
}

func BenchmarkTelemetryEnabledCounterParallel(b *testing.B) {
	r := NewRegistry()
	r.Enable()
	c := r.NewCounter("bench.count")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		shard := int(time.Now().UnixNano()) // any per-goroutine hint
		for pb.Next() {
			c.IncOn(shard)
		}
	})
}

func BenchmarkTelemetryEnabledHistogram(b *testing.B) {
	r := NewRegistry()
	r.Enable()
	h := r.NewHistogram("bench.lat")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkTelemetryEnabledSpan(b *testing.B) {
	EnableTracing(1 << 12)
	defer ResetTracing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(i, "op", "libfs")
		sp.Child("child", "alloc").End()
		sp.End()
	}
}
