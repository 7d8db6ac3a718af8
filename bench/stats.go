package main

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// dist summarises one metric over the repetitions of a workload: the
// median is the reported value, the quartiles give the run-to-run spread.
type dist struct {
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	// Values are the repetitions' figures in run order.
	Values []float64 `json:"values"`
}

// quantile returns the p-quantile (0..1) of sorted values by linear
// interpolation between closest ranks; an empty slice yields 0.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summarize reduces per-repetition values to a dist.
func summarize(values []float64, unit string) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var mean float64
	for _, v := range s {
		mean += v / float64(len(s))
	}
	return dist{
		Median: quantile(s, 0.5),
		Mean:   mean,
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		N:      len(s),
		Unit:   unit,
		Values: values,
	}
}

// tailMinBeyond is the sample-count rule for tail percentiles: a
// percentile is reported only when at least this many samples lie beyond
// it, otherwise the figure is one outlier, not a percentile.
const tailMinBeyond = 10

// supported reports whether n samples support percentile p (0..100) under
// the sample-count rule.
func supported(n int, p float64) bool {
	// The epsilon keeps 10000 × 0.1 % = 10 from rounding to 9.99….
	return float64(n)*(100-p)/100 >= tailMinBeyond-1e-9
}

// latencies collects per-operation latencies for one repetition in a
// log-linear histogram: exact below 64 ns, then 64 buckets per power of
// two (under 1.6 % wide), interpolated on read. Recording is a mutex and
// an increment — no allocation and a few KB however many ops a window
// holds, so the recorder shows up neither in allocs_per_op nor in
// live_heap_mb. add is called from generator and callback goroutines.
type latencies struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 6 // 64 sub-buckets per power of two
	histSub     = 1 << histSubBits
	// histBuckets covers latencies up to 2^40 ns (18 minutes).
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // 2^e <= ns
	idx := (e-histSubBits+1)*histSub + int(ns>>(e-histSubBits))&(histSub-1)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histBounds returns the bucket's inclusive lower bound and its width.
func histBounds(idx int) (lo, width int64) {
	if idx < histSub {
		return int64(idx), 1
	}
	e := idx/histSub + histSubBits - 1
	sub := int64(idx % histSub)
	return (histSub + sub) << (e - histSubBits), 1 << (e - histSubBits)
}

func newLatencies() *latencies { return &latencies{} }

func (l *latencies) add(d time.Duration) {
	idx := histIndex(int64(d))
	l.mu.Lock()
	l.counts[idx]++
	l.n++
	if int64(d) > l.max {
		l.max = int64(d)
	}
	l.mu.Unlock()
}

// latencySummary is a recorder's content at one instant.
type latencySummary struct {
	counts [histBuckets]uint64
	n      uint64
	maxNS  int64
}

// take returns what was recorded since the previous take and resets the
// recorder.
func (l *latencies) take() *latencySummary {
	l.mu.Lock()
	s := &latencySummary{counts: l.counts, n: l.n, maxNS: l.max}
	l.counts = [histBuckets]uint64{}
	l.n, l.max = 0, 0
	l.mu.Unlock()
	return s
}

// percentileUS returns the p-th percentile (0..100) in microseconds and
// whether the sample-count rule supports it. The median is always
// reported; an unsupported tail percentile returns ok=false so callers
// can leave it out instead of printing an outlier as a percentile.
func (s *latencySummary) percentileUS(p float64) (us float64, ok bool) {
	if s.n == 0 {
		return 0, false
	}
	rank := p / 100 * float64(s.n) // samples at or below the percentile
	var cum float64
	for idx, c := range s.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(idx)
			v := float64(lo) + float64(width)*(rank-cum)/float64(c)
			if v > float64(s.maxNS) {
				v = float64(s.maxNS)
			}
			return v / 1e3, p <= 50 || supported(int(s.n), p)
		}
		cum += float64(c)
	}
	return float64(s.maxNS) / 1e3, p <= 50 || supported(int(s.n), p)
}
