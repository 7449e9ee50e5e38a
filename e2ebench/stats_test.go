package main

import (
	"math"
	"runtime/metrics"
	"testing"
)

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	// Python: statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
	// == [1.75, 2.5, 3.25].
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: got %v, want NaN", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of unsorted sample: got %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 1); !math.IsInf(got, 1) {
		t.Errorf("a failure (+Inf) must surface at the top quantile, got %v", got)
	}
}

func TestWindowQuantileIsTheMedianWindow(t *testing.T) {
	// Three windows of four; the middle window's max is 20, and one bad
	// stretch (the last window) does not set the result.
	xs := []float64{1, 2, 3, 10, 1, 2, 3, 20, 1, 2, 3, 900}
	if got := windowQuantile(xs, 4, 1); got != 20 {
		t.Errorf("windowQuantile = %v, want 20", got)
	}
	// A short tail joins the last full window.
	if got := windowQuantile([]float64{1, 2, 3, 4, 5}, 2, 1); got != 3.5 {
		t.Errorf("windows {1,2} {3,4,5}: median of maxima = %v, want 3.5", got)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true},
		{999, 0.9, true}, // 9.99 samples beyond p99
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
		{0, 0, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
	if got := pctName(0.99); got != "p99" {
		t.Errorf("pctName(0.99) = %q", got)
	}
	if got := pctName(0.5); got != "p50" {
		t.Errorf("pctName(0.5) = %q", got)
	}
}

func TestWithRemainderSumsToTotal(t *testing.T) {
	parts := withRemainder(10, []part{{"a", 2.5}, {"b", 4}, {"c", 0.25}})
	if len(parts) != 4 || parts[3].name != "unattributed" {
		t.Fatalf("want the three parts plus unattributed, got %v", parts)
	}
	if parts[3].v != 3.25 {
		t.Errorf("remainder = %v, want 3.25", parts[3].v)
	}
	sum := 0.0
	for _, p := range parts {
		sum += p.v
	}
	if sum != 10 {
		t.Errorf("parts sum to %v, want the total 10", sum)
	}
	// Layers that overlap or outlast the total leave a negative remainder,
	// which must stay visible rather than be clamped.
	over := withRemainder(1, []part{{"a", 0.75}, {"b", 0.5}})
	if got := over[2].v; got != -0.25 {
		t.Errorf("overlapping layers: remainder %v, want -0.25", got)
	}
}

func TestPauseQuantileOfInterval(t *testing.T) {
	edges := []float64{0, 1e-5, 1e-4, 1e-3, math.Inf(1)}
	before := runtimeSample{pauses: &metrics.Float64Histogram{Buckets: edges, Counts: []uint64{5, 5, 0, 0}}}
	// The interval adds 98 pauses under 10 µs and 2 of 1 ms or more.
	after := runtimeSample{pauses: &metrics.Float64Histogram{Buckets: edges, Counts: []uint64{103, 5, 0, 2}}}
	if got := pauseQuantileMS(before, after, 0.5); got != 1e-5*1e3 {
		t.Errorf("p50 = %v ms, want 0.01", got)
	}
	if got := pauseQuantileMS(before, after, 0.99); got != 1 {
		t.Errorf("p99 = %v ms, want the open top bucket's lower edge 1", got)
	}
	if got := pauseQuantileMS(before, before, 0.99); got != 0 {
		t.Errorf("no pauses in the interval: got %v, want 0", got)
	}
}

func TestBodyVersion(t *testing.T) {
	v, err := bodyVersion([]byte(`{"video":7,"vho":3,"serve":1,"hops":2,"cost":0.5,"version":12}` + "\n"))
	if err != nil || v != 12 {
		t.Errorf("got %v, %v; want 12", v, err)
	}
	if _, err := bodyVersion([]byte(`{"video":7}`)); err == nil {
		t.Error("a body without a version must be an error")
	}
}
