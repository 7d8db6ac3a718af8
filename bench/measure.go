package main

import (
	"fmt"
	"runtime"
	"time"

	"uavmw/internal/metrics"
)

// The nine end-to-end metrics, same names on every workload.
const (
	mOps        = "ops_per_s"
	mLatP50     = "lat_p50_us"
	mCPU        = "cpu_us_per_op"
	mAllocs     = "allocs_per_op"
	mAllocBytes = "alloc_bytes_per_op"
	mWire       = "wire_bytes_per_op"
	mFailed     = "failed_share"
	mLiveHeap   = "live_heap_mb"
	mSetup      = "setup_s"
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening of the median that counts as a
	// regression. Zero marks a report-only metric: measured, printed and
	// recorded like the others, but not an end_to_end entry of
	// BENCHMARK.json (see README.md, "Report-only end-to-end metrics").
	bound float64
	// mean reports the mean of the samples instead of their median. Set-up
	// ends with the first op, and on tick-driven paths that falls into one
	// of two modes 40–50 ms apart with comparable shares (a first fetch
	// takes two or three 40 ms rounds): a median flips between the modes
	// from run to run, the mean of nine samples does not.
	mean bool
}

// nineMetrics is every end-to-end metric in report order.
var nineMetrics = []metricDef{
	{name: mOps, unit: "1/s", better: "higher"},
	{name: mLatP50, unit: "us", better: "lower"},
	{name: mCPU, unit: "us", better: "lower"},
	{name: mAllocs, unit: "1", better: "lower", bound: 0.10},
	{name: mAllocBytes, unit: "B", better: "lower", bound: 0.10},
	{name: mWire, unit: "B", better: "lower", bound: 0.02},
	{name: mFailed, unit: "ratio", better: "lower"},
	{name: mLiveHeap, unit: "MB", better: "lower", bound: 0.10},
	{name: mSetup, unit: "s", better: "lower", bound: 0.25, mean: true},
}

// reported is the figure a metric's samples are reduced to.
func (m metricDef) reported(d dist) float64 {
	if m.mean {
		return d.Mean
	}
	return d.Median
}

// e2eMetrics are the bounded ones: the end_to_end list of BENCHMARK.json.
var e2eMetrics = func() []metricDef {
	var out []metricDef
	for _, m := range nineMetrics {
		if m.bound > 0 {
			out = append(out, m)
		}
	}
	return out
}()

// reportOnlyLayer is the per-layer name a report-only end-to-end metric is
// also emitted under, so the driver's traced runs carry it.
func reportOnlyLayer(name string) string { return "e2e." + name }

// probe is every process-wide counter read at a window boundary.
type probe struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64
	wire       uint64
	packets    uint64
	attempted  uint64
	ok         uint64
	failed     uint64
	rounds     uint64 // file-transfer completion rounds (file_bulk)
	stat       procStat
}

func takeProbe(h *harness) probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wire, packets := h.wireBytes()
	var rounds uint64
	if h.rounds != nil {
		rounds = h.rounds()
	}
	return probe{
		rounds:     rounds,
		at:         time.Now(),
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNS:  ms.PauseTotalNs,
		wire:       wire,
		packets:    packets,
		attempted:  h.attempted.Load(),
		ok:         h.ok.Load(),
		failed:     h.failed.Load(),
		stat:       readProcStat(),
	}
}

// rep is one repetition's figures: the end-to-end metrics by name, plus
// the report-only values that ride along.
type rep struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted uint64
	failed    uint64
	reasons   map[string]uint64
}

// effort sizes the parts of a run that are not the measured window. The
// command always uses fullEffort; the smoke test shrinks it.
type effort struct {
	warmup       time.Duration // load applied before each measured window
	stageBudget  time.Duration // per timed run of an isolated stage
	handoffItems int           // idle hand-offs timed per run
}

var fullEffort = effort{warmup: time.Second, stageBudget: 20 * time.Millisecond, handoffItems: 100}

// setUp builds the workload and reports how long that took: process
// start of the workload → first correct op.
func setUp(w *workload, seed int64, tr *tracer) (instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := w.build(seed, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return inst, time.Since(t0), nil
}

// runRep builds the workload, warms it up, measures it for dur and tears
// it down. With a tracer the run is traced and the in-situ layer metrics
// are filled in as well.
func runRep(w *workload, seed int64, dur time.Duration, tr *tracer, ef effort) (rep, error) {
	inst, setup, err := setUp(w, seed, tr)
	if err != nil {
		return rep{}, err
	}
	h := inst.base()
	defer inst.close()

	inst.run()
	time.Sleep(ef.warmup)

	var snapA, snapB []metrics.Snapshot
	if tr != nil {
		tr.begin()
		snapA = snapshots(h.nodes)
	}
	a := h.probe()
	h.lat.take()
	h.genLate.take()
	time.Sleep(dur)
	b := h.probe()
	lats := h.lat.take()
	late := h.genLate.take()
	if tr != nil {
		tr.end()
		snapB = snapshots(h.nodes)
	}

	// The live heap is read with the generators stopped and every op
	// settled: what the pools, rings and caches retain, not what happened
	// to be in flight when the window closed.
	inst.stop()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	ops := float64(b.ok - a.ok)
	wall := b.at.Sub(a.at).Seconds()
	r := rep{
		e2e:       make(map[string]float64, len(nineMetrics)),
		layers:    make(map[string]float64),
		attempted: b.attempted - a.attempted,
		// Ops still in flight when the window closed were settled by
		// stop; count the whole run's failures so none escapes.
		failed:  h.failed.Load() - a.failed,
		reasons: h.failureReasons(),
	}
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	p50, _ := lats.percentileUS(50)
	r.e2e[mOps] = ops / wall
	r.e2e[mLatP50] = p50
	r.e2e[mCPU] = perOp(float64((b.cpu - a.cpu).Microseconds()))
	r.e2e[mAllocs] = perOp(float64(b.mallocs - a.mallocs))
	r.e2e[mAllocBytes] = perOp(float64(b.allocBytes - a.allocBytes))
	r.e2e[mWire] = perOp(float64(b.wire - a.wire))
	if r.attempted > 0 {
		r.e2e[mFailed] = float64(r.failed) / float64(r.attempted)
	}
	r.e2e[mLiveHeap] = float64(ms.HeapAlloc) / (1 << 20)
	r.e2e[mSetup] = setup.Seconds()

	for _, m := range nineMetrics {
		if m.bound == 0 {
			r.layers[reportOnlyLayer(m.name)] = r.e2e[m.name]
		}
	}
	for _, p := range []struct {
		name string
		p    float64
	}{{"e2e.lat_p90_us", 90}, {"e2e.lat_p99_us", 99}} {
		// An unsupported tail (fewer than ten samples beyond it) reads
		// 0 instead of passing the maximum off as a percentile.
		if v, ok := lats.percentileUS(p.p); ok {
			r.layers[p.name] = v
		}
	}
	r.layers["e2e.lat_max_us"] = float64(lats.maxNS) / 1e3
	r.layers["e2e.lat_samples"] = float64(lats.n)
	if v, ok := late.percentileUS(99); ok {
		r.layers["e2e.gen_late_p99_us"] = v
	}
	r.layers["runtime.gc_pause_us_per_kop"] = perOp(float64(b.gcPauseNS-a.gcPauseNS)/1e3) * 1e3
	r.layers["host.steal_share"] = stealShare(a.stat, b.stat)
	if tr != nil {
		inSitu(r.layers, tr, snapA, snapB, ops, float64(b.packets-a.packets), b.rounds-a.rounds)
	}
	return r, nil
}
