// Package metrics is the node's single observability registry: every
// plane (discovery, egress, link, RPC, events, file transfer, ARQ) counts
// into one Registry as labeled counter/gauge/histogram families keyed by
// component + name + labels. It is the one stats surface — planes keep no
// snapshot structs beside it; readers query it (SumCounters) — and
// core.Node.MetricsSnapshot exports the whole registry as one Snapshot a
// ground-station gateway can serve verbatim (text or JSON).
//
// Hot-path discipline: series resolution (Counter/Gauge/Histogram) takes
// the registry lock and is meant to run once, at construction — callers
// keep the returned handle and increment it lock-free (atomics; the
// histogram uses a small mutex over fixed buckets). Error-path counting
// through internal/uerr resolves per construction, which is fine because
// error paths are cold by definition.
//
// Snapshots are deterministic: families sort by (component, name, kind),
// series by canonical label string, and no wall-clock timestamps are
// recorded — two same-seed virtual-time runs export byte-identical
// snapshots, which the determinism tests pin.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a set-to-current-value measurement.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates durations into exponential buckets from 1µs to
// ~17.9s (doubling per bucket), supporting approximate percentiles. The
// zero value is ready to use.
type Histogram struct {
	mu      sync.Mutex
	buckets [hbuckets]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	hbuckets = 25
	hbase    = time.Microsecond
)

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	if d < hbase {
		return 0
	}
	idx := int(math.Log2(float64(d) / float64(hbase)))
	if idx < 0 {
		idx = 0
	}
	if idx >= hbuckets {
		idx = hbuckets - 1
	}
	return idx
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	return hbase << uint(i+1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean reports the average observation, or 0 with no data.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min reports the smallest observation.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max reports the largest observation.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns the approximate p-th percentile (0 < p <= 100) as the
// upper bound of the bucket containing that rank. Returns 0 with no data.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= rank {
			upper := bucketUpper(i)
			if upper > h.max {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

// Reset clears all state.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets = [hbuckets]uint64{}
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
}

// Summary renders count/mean/p50/p95/p99/max on one line for harness tables.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean().Round(time.Microsecond),
		h.Percentile(50).Round(time.Microsecond),
		h.Percentile(95).Round(time.Microsecond),
		h.Percentile(99).Round(time.Microsecond),
		h.Max().Round(time.Microsecond))
}

// view snapshots the histogram internals for export.
func (h *Histogram) view() HistogramView {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := HistogramView{
		Count: h.count,
		SumNS: int64(h.sum),
		MinNS: int64(h.min),
		MaxNS: int64(h.max),
	}
	for i, b := range h.buckets {
		if b != 0 {
			v.Buckets = append(v.Buckets, Bucket{UpperNS: int64(bucketUpper(i)), Count: b})
		}
	}
	return v
}

// Label is one key=value dimension on a metric series. Keys follow the
// same vocabulary rules as names; values are free-form.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric kinds.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// nameOK enforces the registry vocabulary: lowercase letters, digits and
// underscores, starting with a letter — the same shape uerr codes use, so
// error families and ordinary families share one namespace.
func nameOK(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r == '_' && i > 0:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// canonLabels sorts a copy of labels by key and renders the canonical
// series suffix used as the map key within a family.
func canonLabels(labels []Label) ([]Label, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return ls, b.String()
}

// familyKey identifies one family in the registry.
type familyKey struct {
	kind      string
	component string
	name      string
}

// family holds one (kind, component, name)'s series.
type family struct {
	key    familyKey
	series map[string]*seriesEntry // canonical label string -> entry
}

// seriesEntry is one labeled instance inside a family; exactly one of
// c/g/h is non-nil, matching the family kind.
type seriesEntry struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is one node's metric family collection. The zero value is ready
// to use; methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[familyKey]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// entry resolves (creating if needed) the series for key+labels. Invalid
// component/name/label vocabulary panics: family identity is programmer-
// chosen, so a bad name is a bug, not an input.
func (r *Registry) entry(kind, component, name string, labels []Label) *seriesEntry {
	if !nameOK(component) || !nameOK(name) {
		panic(fmt.Sprintf("metrics: invalid family %s %q.%q", kind, component, name))
	}
	for _, l := range labels {
		if !nameOK(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q on %s.%s", l.Key, component, name))
		}
	}
	ls, canon := canonLabels(labels)
	key := familyKey{kind: kind, component: component, name: name}

	r.mu.RLock()
	if fam, ok := r.families[key]; ok {
		if e, ok := fam.series[canon]; ok {
			r.mu.RUnlock()
			return e
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[familyKey]*family)
	}
	fam := r.families[key]
	if fam == nil {
		fam = &family{key: key, series: make(map[string]*seriesEntry)}
		r.families[key] = fam
	}
	e := fam.series[canon]
	if e == nil {
		e = &seriesEntry{labels: ls}
		switch kind {
		case KindCounter:
			e.c = &Counter{}
		case KindGauge:
			e.g = &Gauge{}
		case KindHistogram:
			e.h = &Histogram{}
		}
		fam.series[canon] = e
	}
	return e
}

// Counter resolves (creating if needed) the counter series in family
// component.name with the given labels. Resolve once and keep the handle:
// increments on the handle are lock-free.
func (r *Registry) Counter(component, name string, labels ...Label) *Counter {
	return r.entry(KindCounter, component, name, labels).c
}

// Gauge resolves (creating if needed) the gauge series.
func (r *Registry) Gauge(component, name string, labels ...Label) *Gauge {
	return r.entry(KindGauge, component, name, labels).g
}

// Histogram resolves (creating if needed) the histogram series.
func (r *Registry) Histogram(component, name string, labels ...Label) *Histogram {
	return r.entry(KindHistogram, component, name, labels).h
}

// SumCounters totals every series of counter family component.name whose
// labels include all of match (e.g. "all discovery errors with
// category=encode") — how a reader gets one figure out of the registry.
// Zero when the family does not exist.
func (r *Registry) SumCounters(component, name string, match ...Label) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fam := r.families[familyKey{kind: KindCounter, component: component, name: name}]
	if fam == nil {
		return 0
	}
	var total uint64
	for _, e := range fam.series {
		if labelsMatch(e.labels, match) {
			total += e.c.Value()
		}
	}
	return total
}

func labelsMatch(have, want []Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h.Key == w.Key && h.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	UpperNS int64  `json:"upper_ns"` // inclusive upper bound
	Count   uint64 `json:"count"`
}

// HistogramView is a histogram's exported state.
type HistogramView struct {
	Count   uint64   `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	MinNS   int64    `json:"min_ns"`
	MaxNS   int64    `json:"max_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Series is one labeled instance in a family snapshot. Exactly one of
// Counter/Gauge/Histogram is set, matching the family kind.
type Series struct {
	Labels    []Label        `json:"labels,omitempty"`
	Counter   *uint64        `json:"counter,omitempty"`
	Gauge     *int64         `json:"gauge,omitempty"`
	Histogram *HistogramView `json:"histogram,omitempty"`
}

// Family is one metric family in a snapshot.
type Family struct {
	Kind      string   `json:"kind"`
	Component string   `json:"component"`
	Name      string   `json:"name"`
	Series    []Series `json:"series"`
}

// ID renders the family identity the golden-list CI check pins:
// "kind component.name".
func (f Family) ID() string { return f.Kind + " " + f.Component + "." + f.Name }

// Snapshot is a point-in-time export of a whole registry, ordered
// deterministically (families by component, name, kind; series by
// canonical labels).
type Snapshot struct {
	Families []Family `json:"families"`
}

// Snapshot exports every family.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		fams = append(fams, fam)
	}
	// Series maps are only mutated under the write lock; grab ordered
	// references under the read lock, then read values lock-free.
	type seriesRef struct {
		canon string
		e     *seriesEntry
	}
	ordered := make([][]seriesRef, len(fams))
	for i, fam := range fams {
		refs := make([]seriesRef, 0, len(fam.series))
		for canon, e := range fam.series {
			refs = append(refs, seriesRef{canon: canon, e: e})
		}
		ordered[i] = refs
	}
	r.mu.RUnlock()

	snap := Snapshot{Families: make([]Family, 0, len(fams))}
	for i, fam := range fams {
		refs := ordered[i]
		sort.Slice(refs, func(a, b int) bool { return refs[a].canon < refs[b].canon })
		out := Family{Kind: fam.key.kind, Component: fam.key.component, Name: fam.key.name}
		for _, ref := range refs {
			s := Series{Labels: ref.e.labels}
			switch {
			case ref.e.c != nil:
				v := ref.e.c.Value()
				s.Counter = &v
			case ref.e.g != nil:
				v := ref.e.g.Value()
				s.Gauge = &v
			case ref.e.h != nil:
				v := ref.e.h.view()
				s.Histogram = &v
			}
			out.Series = append(out.Series, s)
		}
		snap.Families = append(snap.Families, out)
	}
	sort.Slice(snap.Families, func(a, b int) bool {
		fa, fb := snap.Families[a], snap.Families[b]
		if fa.Component != fb.Component {
			return fa.Component < fb.Component
		}
		if fa.Name != fb.Name {
			return fa.Name < fb.Name
		}
		return fa.Kind < fb.Kind
	})
	return snap
}

// FamilyList returns the sorted family identities ("kind component.name"),
// the shape the committed golden pins so accidental metric renames are
// visible PR-to-PR.
func (s Snapshot) FamilyList() []string {
	out := make([]string, len(s.Families))
	for i, f := range s.Families {
		out[i] = f.ID()
	}
	sort.Strings(out)
	return out
}

// JSON renders the snapshot as indented JSON (deterministic byte-for-byte
// for a deterministic registry state).
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders the snapshot in a one-line-per-series scrape format:
//
//	counter discovery.heartbeats_sent 42
//	counter egress.frames_sent{bearer="wifi",class="bulk"} 10
//	histogram rpc.call_latency count=3 sum_ns=... min_ns=... max_ns=... buckets=2048:2,4096:1
//
// The output is deterministic for a deterministic registry state.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, f := range s.Families {
		for _, se := range f.Series {
			b.WriteString(f.Kind)
			b.WriteByte(' ')
			b.WriteString(f.Component)
			b.WriteByte('.')
			b.WriteString(f.Name)
			if _, canon := canonLabels(se.Labels); canon != "" {
				b.WriteString(canon)
			}
			b.WriteByte(' ')
			switch {
			case se.Counter != nil:
				fmt.Fprintf(&b, "%d", *se.Counter)
			case se.Gauge != nil:
				fmt.Fprintf(&b, "%d", *se.Gauge)
			case se.Histogram != nil:
				h := se.Histogram
				fmt.Fprintf(&b, "count=%d sum_ns=%d min_ns=%d max_ns=%d",
					h.Count, h.SumNS, h.MinNS, h.MaxNS)
				if len(h.Buckets) > 0 {
					b.WriteString(" buckets=")
					for i, bk := range h.Buckets {
						if i > 0 {
							b.WriteByte(',')
						}
						fmt.Fprintf(&b, "%d:%d", bk.UpperNS, bk.Count)
					}
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
