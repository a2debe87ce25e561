package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5}, // even count: mean of the middle two
		{[]float64{10, 10, 1, 100}, 10},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestQuantileSorted(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.10, 10}, {0.11, 20}, {0.50, 50}, {0.90, 90}, {0.91, 100}, {0.99, 100}, {1, 100},
	} {
		if got := quantileSorted(s, tc.q); got != tc.want {
			t.Errorf("quantileSorted(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("quantileSorted(nil) = %v, want 0", got)
	}
	if got := quantileSorted([]uint32{42}, 0.9); got != 42 {
		t.Errorf("quantileSorted of one sample = %v, want 42", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns, since that is the rule the
// benchmark's acceptance procedure applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	xs := []float64{100, 101, 99, 100, 102, 98, 100, 100, 103, 97}
	if got, want := relIQR(xs), (101.25-98.75)/100; !near(got, want) {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
	if got, want := maxRelDev(xs), 0.03; !near(got, want) {
		t.Errorf("maxRelDev = %v, want %v", got, want)
	}
}

func TestQuietQuarter(t *testing.T) {
	// 8 slices, two of them slowed by a neighbour: the quiet quarter is
	// the two fastest, whatever their position.
	thr := []float64{100, 60, 104, 99, 55, 101, 103, 98}
	got := quietQuarter(thr)
	sort.Ints(got)
	if want := []int{2, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("quietQuarter(%v) = %v, want %v", thr, got, want)
	}
	// Sizes round up, so a short episode still yields a slice.
	for n, want := range map[int]int{1: 1, 3: 1, 4: 1, 5: 2, 40: 10, 60: 15} {
		if got := len(quietQuarter(make([]float64, n))); got != want {
			t.Errorf("quietQuarter of %d slices picked %d, want %d", n, got, want)
		}
	}
	// Ties keep slice order, so the selection is deterministic.
	if got, want := quietQuarter([]float64{5, 5, 5, 5, 5, 5, 5, 5}), []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("quietQuarter on ties = %v, want %v", got, want)
	}
}

func TestSummarizeUsesQuietSlices(t *testing.T) {
	// One lane, four slices of 1 ms; slice 2 is the fastest and is the
	// only one whose latencies may count.
	lr := &laneRun{
		slices: []sliceRec{
			{ops: 100, ns: 1e6, lo: 0, hi: 2},
			{ops: 50, ns: 1e6, lo: 2, hi: 4},
			{ops: 200, ns: 1e6, lo: 4, hi: 7},
			{ops: 120, ns: 1e6, lo: 7, hi: 9},
		},
		samples: []uint32{9000, 9000, 20000, 20000, 1000, 2000, 3000, 8000, 8000},
	}
	var ep episode
	ep.summarize([]*laneRun{lr}, 4)
	if !near(ep.opsPerS, 200e3) {
		t.Errorf("opsPerS = %v, want 200000", ep.opsPerS)
	}
	if !near(ep.p50us, 2) || !near(ep.p90us, 3) {
		t.Errorf("p50, p90 = %v, %v us, want 2, 3", ep.p50us, ep.p90us)
	}
	if !near(ep.allOpsPerS, 110e3) {
		t.Errorf("allOpsPerS = %v, want 110000", ep.allOpsPerS)
	}
	if !near(ep.quietGap, 200.0/110) {
		t.Errorf("quietGap = %v, want %v", ep.quietGap, 200.0/110)
	}
}

func TestCoefVar(t *testing.T) {
	if got := coefVar([]float64{5, 5, 5}); got != 0 {
		t.Errorf("coefVar of a constant = %v, want 0", got)
	}
	if got, want := coefVar([]float64{2, 4}), 1.0/3; !near(got, want) {
		t.Errorf("coefVar = %v, want %v", got, want)
	}
}
