package main

import (
	"math"
	"testing"
	"time"
)

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	// Same convention as Python's statistics.quantiles(..., method
	// "inclusive"): linear interpolation between closest ranks.
	d := summarize([]float64{5, 1, 4, 2, 3}, "ms")
	if d.Median != 3 || d.Q1 != 2 || d.Q3 != 4 || d.N != 5 || d.Unit != "ms" {
		t.Fatalf("odd n: %+v", d)
	}
	d = summarize([]float64{4, 1, 3, 2}, "ms")
	if d.Median != 2.5 || d.Q1 != 1.75 || d.Q3 != 3.25 {
		t.Fatalf("even n: %+v", d)
	}
	if d := summarize(nil, "ms"); d.Median != 0 || d.N != 0 {
		t.Fatalf("empty: %+v", d)
	}
	if d := summarize([]float64{7}, "ms"); d.Median != 7 || d.Q1 != 7 || d.Q3 != 7 {
		t.Fatalf("single: %+v", d)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("median = %v", got)
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	// p99 needs ten samples beyond it: 1000 samples support it, 999 do not.
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {100, 90, true}, {99, 90, false},
		{10000, 99.9, true}, {20, 50, true},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}

	l := newLatencies()
	for i := 1; i <= 500; i++ {
		l.add(time.Duration(i) * time.Microsecond)
	}
	s := l.take()
	if _, ok := s.percentileUS(50); !ok {
		t.Error("the median is always reported")
	}
	if _, ok := s.percentileUS(90); !ok {
		t.Error("p90 of 500 samples has 50 beyond it")
	}
	if v, ok := s.percentileUS(99); ok {
		t.Errorf("p99 of 500 samples has only 5 beyond it, got %v", v)
	}
	if s := l.take(); s.n != 0 || s.maxNS != 0 {
		t.Errorf("take did not reset the recorder: n=%d max=%d", s.n, s.maxNS)
	}
	if _, ok := l.take().percentileUS(50); ok {
		t.Error("an empty recorder has no median")
	}
}

func TestLatencyHistogramAccuracy(t *testing.T) {
	// Buckets are under 1.6 % wide and interpolated: percentiles of a
	// uniform spread must land within 1 % of the exact value.
	l := newLatencies()
	const n = 100_000
	for i := 1; i <= n; i++ {
		l.add(time.Duration(i) * 100 * time.Nanosecond) // 0.1 us .. 10 ms
	}
	s := l.take()
	for _, p := range []float64{10, 50, 90, 99} {
		got, _ := s.percentileUS(p)
		want := p / 100 * n * 0.1
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%v = %.3f us, want %.3f within 1%%", p, got, want)
		}
	}
	if s.maxNS != n*100 {
		t.Errorf("max = %d", s.maxNS)
	}

	// Index and bounds agree for every magnitude, and out-of-range
	// values clamp instead of indexing outside the table.
	for _, ns := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 30, 1 << 39} {
		lo, width := histBounds(histIndex(ns))
		if ns < lo || ns >= lo+width {
			t.Errorf("%d ns filed under [%d, %d)", ns, lo, lo+width)
		}
	}
	if idx := histIndex(1 << 50); idx != histBuckets-1 {
		t.Errorf("huge value index = %d", idx)
	}
	if idx := histIndex(-5); idx != 0 {
		t.Errorf("negative value index = %d", idx)
	}
}

func TestRepPlan(t *testing.T) {
	for _, tc := range []struct {
		seconds, reps int
		dur           time.Duration
	}{
		{30, 6, 5 * time.Second}, {25, 5, 5 * time.Second}, {15, 5, 3 * time.Second},
		{10, 3, 3 * time.Second}, {3, 1, 3 * time.Second}, {2, 1, 2 * time.Second}, {0, 1, time.Second},
	} {
		if reps, dur := repPlan(tc.seconds); reps != tc.reps || dur != tc.dur {
			t.Errorf("repPlan(%d) = %d × %v, want %d × %v", tc.seconds, reps, dur, tc.reps, tc.dur)
		}
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{name: "x", better: "lower"}
	higher := metricDef{name: "y", better: "higher"}
	if got := worsening(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 = %v", got)
	}
	if got := worsening(lower, 100, 90); got >= 0 {
		t.Errorf("an improvement is not a worsening: %v", got)
	}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→90 = %v", got)
	}
	if got := worsening(lower, 0, 5); got != 0 {
		t.Errorf("zero base = %v", got)
	}
}
