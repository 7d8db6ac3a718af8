// Command bench is the repository benchmark: four wall-clock workloads,
// one per communication primitive, measured end to end and layer by
// layer. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./bench                         every workload, untraced
//	go run ./bench -trace 1                per-layer mode
//	go run ./bench -aa                     two sets, medians compared
//	go run ./bench -workload rpc_closed -seed 7 -seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generator")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per workload, split into repetitions")
	flag.IntVar(&o.trace, "trace", 0, "1: per-layer mode (traced repetitions and isolated stage timings)")
	flag.BoolVar(&o.aa, "aa", false, "run two complete sets and compare their medians with the bounds")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "uavmw-bench"), "directory for results.json and trace.json; empty writes nothing")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	if *printManifest {
		out, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// repPlan splits the measured seconds into repetitions: 5 s each when the
// budget allows at least five of them, else 3 s, never fewer than one.
func repPlan(seconds int) (reps int, dur time.Duration) {
	if seconds < 1 {
		seconds = 1
	}
	per := 3
	if seconds >= 25 {
		per = 5
	}
	if seconds < per {
		return 1, time.Duration(seconds) * time.Second
	}
	return seconds / per, time.Duration(per) * time.Second
}

// result is one workload's part of results.json.
type result struct {
	Why       string          `json:"why"`
	Attempted uint64          `json:"attempted"`
	Failed    uint64          `json:"failed"`
	E2E       map[string]dist `json:"e2e"`
	Layers    map[string]dist `json:"layers,omitempty"`
	// StealShare is host.steal_share of every repetition, in run order:
	// a noisy host is shown, not averaged away.
	StealShare []float64 `json:"steal_share"`
	// Failures says why ops failed (a few distinct reasons, with counts).
	Failures map[string]uint64 `json:"failures,omitempty"`
}

type results struct {
	Host      fingerprint        `json:"host"`
	Seed      int64              `json:"seed"`
	Reps      int                `json:"reps"`
	RepS      float64            `json:"rep_seconds"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

func run(o options) error {
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
	}

	reps, dur := repPlan(o.seconds)
	p := plan{reps: reps, dur: dur, setups: minSetups, traced: o.trace == 1, seed: o.seed, out: o.out, effort: fullEffort}
	first, err := runSet(selected, p)
	if err != nil {
		return err
	}
	printSet(first)
	exit := checkFailures(first)
	if o.aa {
		second, err := runSet(selected, p)
		if err != nil {
			return err
		}
		printSet(second)
		if err := checkFailures(second); err != nil {
			exit = err
		}
		if err := compareSets(first, second); err != nil {
			exit = err
		}
	}
	if o.out != "" {
		if err := writeJSON(filepath.Join(o.out, "results.json"), first); err != nil {
			return err
		}
	}
	if len(selected) == 1 {
		printDriverLine(first, selected[0].name, p.traced)
	}
	return exit
}

// minSetups is how many set-ups a set takes per workload at least: one
// per repetition and cheap extra ones, because set-up time is bimodal
// (see metricDef.mean) and five samples do not pin its mean.
const minSetups = 9

// tracedReps is how many traced repetitions per-layer mode takes.
const tracedReps = 2

// plan is what one set of runs does.
type plan struct {
	reps   int
	dur    time.Duration
	setups int // set-up samples per workload, at least
	traced bool
	seed   int64
	out    string // directory for trace.json; empty writes nothing
	effort effort
}

// runSet measures every selected workload. Repetitions are interleaved
// round-robin across workloads, so a slow minute on the host costs every
// workload one repetition instead of one workload all of them.
func runSet(selected []workload, p plan) (*results, error) {
	reps := p.reps
	if p.traced {
		// Per-layer mode: one untraced repetition as the overhead base.
		reps = 1
	}
	res := &results{
		Host: hostFingerprint(), Seed: p.seed, Reps: reps, RepS: p.dur.Seconds(),
		Traced: p.traced, Workloads: make(map[string]*result),
	}
	e2e := make(map[string]map[string][]float64)
	layers := make(map[string]map[string][]float64)
	for _, w := range selected {
		res.Workloads[w.name] = &result{Why: w.why}
		e2e[w.name] = make(map[string][]float64)
		layers[w.name] = make(map[string][]float64)
	}
	appendAll := func(into map[string][]float64, vals map[string]float64) {
		for k, v := range vals {
			into[k] = append(into[k], v)
		}
	}
	account := func(w *workload, r rep) {
		out := res.Workloads[w.name]
		out.Attempted += r.attempted
		out.Failed += r.failed
		out.StealShare = append(out.StealShare, r.layers["host.steal_share"])
		for reason, n := range r.reasons {
			if out.Failures == nil {
				out.Failures = make(map[string]uint64)
			}
			out.Failures[reason] += n
		}
	}
	for i := 0; i < reps; i++ {
		for k := range selected {
			w := &selected[k]
			r, err := runRep(w, p.seed, p.dur, nil, p.effort)
			if err != nil {
				return nil, err
			}
			account(w, r)
			appendAll(e2e[w.name], r.e2e)
			appendAll(layers[w.name], r.layers)
		}
	}
	// Set-up is cheap to repeat and bimodal; top its samples up.
	for k := range selected {
		w := &selected[k]
		for len(e2e[w.name][mSetup]) < p.setups {
			inst, took, err := setUp(w, p.seed, nil)
			if err != nil {
				return nil, err
			}
			inst.close()
			e2e[w.name][mSetup] = append(e2e[w.name][mSetup], took.Seconds())
		}
	}
	if p.traced {
		traces := make(map[string]traceFile)
		for k := range selected {
			w := &selected[k]
			trace, err := perLayer(w, p, e2e[w.name], layers[w.name], func(r rep) { account(w, r) })
			if err != nil {
				return nil, err
			}
			traces[w.name] = trace
		}
		if p.out != "" {
			if err := writeJSON(filepath.Join(p.out, "trace.json"), map[string]any{"workloads": traces}); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range selected {
		out := res.Workloads[w.name]
		out.E2E = summarizeAll(e2e[w.name], e2eUnit)
		out.Layers = summarizeAll(layers[w.name], layerUnits)
	}
	return res, nil
}

// perLayer is the traced part of per-layer mode for one workload: the
// traced repetitions, then the isolated stages. It fills layers, which
// already holds the untraced repetition's figures, and returns the last
// traced repetition's spans.
func perLayer(w *workload, p plan, e2e, layers map[string][]float64, account func(rep)) (traceFile, error) {
	base := median(e2e[mOps])
	traced := make(map[string][]float64)
	var tr *tracer
	for i := 0; i < tracedReps; i++ {
		tr = newTracer()
		r, err := runRep(w, p.seed, p.dur, tr, p.effort)
		if err != nil {
			return traceFile{}, err
		}
		if base > 0 {
			r.layers["trace.overhead_share"] = 1 - r.e2e[mOps]/base
		}
		account(r)
		for name, v := range r.layers {
			traced[name] = append(traced[name], v)
		}
	}
	// The report-only end-to-end figures stay the untraced repetition's;
	// everything else comes from the traced ones.
	for name, vals := range traced {
		if _, untraced := layers[name]; !untraced || !strings.HasPrefix(name, "e2e.") {
			layers[name] = vals
		}
	}
	stages, err := runStages(w, p.seed, p.effort)
	if err != nil {
		return traceFile{}, err
	}
	for name, v := range stages {
		layers[name] = []float64{v}
	}
	layers["ledger.attributed_share"] = []float64{attributedShare(w.name, stages, median(e2e[mCPU]))}
	// A metric that does not apply to this workload, or a tail percentile
	// its sample does not support, reads 0.
	for _, name := range layerNames {
		if _, ok := layers[name]; !ok {
			layers[name] = []float64{0}
		}
	}
	return tr.export(), nil
}

func summarizeAll(values map[string][]float64, unit func(string) string) map[string]dist {
	out := make(map[string]dist, len(values))
	for k, v := range values {
		out[k] = summarize(v, unit(k))
	}
	return out
}

func e2eUnit(name string) string {
	for _, m := range nineMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

func sortedKeys(m map[string]dist) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printSet(res *results) {
	fmt.Printf("# %s, %d CPUs, GOMAXPROCS %d, %s, kernel %s, commit %s\n",
		res.Host.CPUModel, res.Host.NProc, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Kernel, res.Host.Commit)
	fmt.Printf("# seed %d, %d repetition(s) of %.0f s per workload, traced=%v\n", res.Seed, res.Reps, res.RepS, res.Traced)
	row := func(name string, d dist, note string) {
		fmt.Printf("  %-36s %14.4f %-5s  q1 %.4f  q3 %.4f  mean %.4f  n %d%s\n", name, d.Median, d.Unit, d.Q1, d.Q3, d.Mean, d.N, note)
	}
	for _, w := range workloads {
		r := res.Workloads[w.name]
		if r == nil {
			continue
		}
		fmt.Printf("\n%s  (attempted %d, failed %d)\n", w.name, r.Attempted, r.Failed)
		for _, m := range nineMetrics {
			note := ""
			switch {
			case m.bound == 0:
				note = "  (report-only)"
			case m.mean:
				note = "  (the mean is the reported figure)"
			}
			row(m.name, r.E2E[m.name], note)
		}
		for _, name := range sortedKeys(r.Layers) {
			if !isReportOnlyCopy(name) {
				row(name, r.Layers[name], "")
			}
		}
		fmt.Printf("  host.steal_share per repetition      %s\n", formatShares(r.StealShare))
		for reason, n := range r.Failures {
			fmt.Printf("  failed ×%d: %s\n", n, reason)
		}
	}
}

// isReportOnlyCopy reports whether a per-layer name is just a report-only
// end-to-end metric under its e2e.* alias, already printed above.
func isReportOnlyCopy(name string) bool {
	for _, m := range nineMetrics {
		if m.bound == 0 && name == reportOnlyLayer(m.name) {
			return true
		}
	}
	return false
}

func formatShares(v []float64) string {
	parts := make([]string, len(v))
	for i, s := range v {
		parts[i] = fmt.Sprintf("%.3f", s)
	}
	return strings.Join(parts, " ")
}

// maxFailedShare is the one failure level that fails the command: below
// it failures are counted and reported, never fatal.
const maxFailedShare = 0.5

func checkFailures(res *results) error {
	for name, r := range res.Workloads {
		if r.Attempted > 0 && float64(r.Failed)/float64(r.Attempted) > maxFailedShare {
			return fmt.Errorf("%s: %d of %d ops failed", name, r.Failed, r.Attempted)
		}
	}
	return nil
}

// worsening is how much worse b is than a in the metric's bad direction,
// as a share of a: the figure a bound limits.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets is the A/A check: two sets of the same code must agree on
// every bounded end-to-end metric within its bound, in either direction.
// Report-only metrics are shown with their difference and no verdict.
func compareSets(a, b *results) error {
	fmt.Printf("\nA/A: the two sets' figures, their relative difference, the bound\n")
	var excess []string
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range nineMetrics {
			ma, mb := m.reported(ra.E2E[m.name]), m.reported(rb.E2E[m.name])
			diff := worsening(m, ma, mb)
			if back := worsening(m, mb, ma); back > diff {
				diff = back
			}
			verdict := fmt.Sprintf("bound %.2f", m.bound)
			switch {
			case m.bound == 0:
				verdict = "report-only"
			case diff > m.bound:
				verdict += "  EXCEEDS"
				excess = append(excess, w.name+"/"+m.name)
			}
			fmt.Printf("  %-18s %-20s %14.4f %14.4f  diff %.4f  %s\n", w.name, m.name, ma, mb, diff, verdict)
		}
		fmt.Printf("  %-18s steal per repetition: set 1 [%s]  set 2 [%s]\n", w.name, formatShares(ra.StealShare), formatShares(rb.StealShare))
	}
	if len(excess) > 0 {
		return fmt.Errorf("A/A difference beyond bound: %s", strings.Join(excess, ", "))
	}
	return nil
}

// printDriverLine prints the one-line result object of the benchmark
// contract as the last line of standard output: the bounded end-to-end
// metrics of an untraced run, every per-layer metric of a traced one.
func printDriverLine(res *results, name string, traced bool) {
	r := res.Workloads[name]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, k := range layerNames {
			metrics[k] = value{Value: r.Layers[k].Median, Unit: layerUnits(k)}
		}
	} else {
		for _, m := range e2eMetrics {
			metrics[m.name] = value{Value: m.reported(r.E2E[m.name]), Unit: m.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{ // plain numbers and strings: cannot fail
		"correct":   r.Failed == 0 && r.Attempted > 0,
		"attempted": max(r.Attempted, 1),
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}
