package experiments

import (
	"fmt"
	"math"
	"path"
	"sort"
	"strings"
	"time"

	"uavmw/internal/clock"
)

// Experiment is one entry of the experiment table: everything uavbench, the
// root benchmarks and the baseline guards need to know about it. Adding an
// experiment is adding one entry to the table below.
type Experiment struct {
	// Name is the -run selector and the stem of BENCH_<NAME>.json.
	Name  string
	Title string
	// Seed is what the scenario's simulated networks draw loss, jitter and
	// duplication from; sub-phases derive theirs from it (seed+1, …).
	Seed int64
	// Virtual marks a simulation-backed scenario: it takes an injected
	// clock and runs on a discrete-event one unless paced in real time.
	Virtual bool
	// Guards pin a full-size run to testdata/bench_baseline/BENCH_<NAME>.json.
	Guards []Guard

	// run owns the full and quick parameters and builds the report.
	run func(clk clock.Clock, seed int64, quick bool) (*Report, error)
	// check holds what a full-size run must satisfy that is not a
	// comparison with the baseline.
	check func(m map[string]float64) error
}

// Guard bounds the metrics whose key matches Key (a path.Match pattern, so
// one guard covers every row of a sweep) against the committed baseline:
// |got − want| ≤ max(|want|·Rel, Floor). Rel 0 with Floor 0 is exact — the
// counts a deterministic virtual run must reproduce.
type Guard struct {
	Key        string
	Rel, Floor float64
}

// fanInGuards pin E15 and E17, one deterministic simulated-bus scenario at
// two shapes: every figure it records is exact. The keys keep the netsim_
// prefix of the committed baselines.
var fanInGuards = []Guard{{"netsim_*", 0, 0}}

// table lists the experiments in README order. E6 and E10 are plain Go
// benchmarks in the repository root, not scenarios.
var table = []*Experiment{
	{Name: "e1", Title: "E1 — event vs remote-invocation notification latency (§4.3 claim)", run: reportE1},
	{Name: "e2", Title: "E2 — per-message ARQ vs TCP-like in-order stream under loss (§4.2 claim)", Seed: 42, run: reportE2},
	{Name: "e3", Title: "E3 — event fan-out wire cost: group-addressed multicast vs unicast ARQ (§4.1, §4.2)",
		Seed: 4, Virtual: true, run: reportE3},
	{Name: "e4", Title: "E4 — MFTP file distribution vs chunked events (§4.4 claim)", Seed: 7, run: reportE4},
	{Name: "e5", Title: "E5 — same-container bypass vs network path (§4.4, F2)", run: reportE5},
	{Name: "e7", Title: "E7 — failover redirection latency after provider death (§4.3)", Seed: 8, run: reportE7},
	{Name: "e8", Title: "E8 — fixed-priority scheduler queue latency under load (§6)", run: reportE8},
	{Name: "e9", Title: "E9 — Figure 3 mission end to end (§5)", run: reportE9},
	{Name: "e11", Title: "E11 — concurrent RPC vs a stalled pinned provider: hedged failover (§4.3)",
		Seed: 11, Virtual: true, run: reportE11},
	{Name: "e12", Title: "E12 — incremental discovery: steady-state wire cost and convergence (§3 at scale)",
		Seed: 12, Virtual: true, run: reportE12},
	{Name: "e13", Title: "E13 — priority-aware egress: critical alarms vs bulk transfer on a 1 Mb/s link",
		Seed: 13, Virtual: true, run: reportE13,
		Guards: []Guard{
			// Virtual-time latencies shift only when event interleaving
			// shifts; 25% absorbs a reordered timer without passing a
			// priority inversion (flood p99 is ~140x shaped p99 in the
			// baseline).
			{"*_p99_us", 0.25, 500},
			{"shaped_goodput_bps", 0.10, 0},
			{"flood_lost", 0, 0}, {"shaped_lost", 0, 0}, {"shaped_dropped", 0, 0},
		}},
	{Name: "e14", Title: "E14 — multi-bearer link plane: WiFi→radio handover under blackout",
		Seed: 14, Virtual: true, run: reportE14,
		Guards: []Guard{
			{"multi_p99_us", 0.25, 500},
			{"handover_detect_ms", 0.25, 10},
			{"recovered_bps", 0.10, 0},
			{"transfer_ms", 0.10, 0},
			// Wire split drifts a little when retransmission timing moves;
			// 10% still catches traffic landing on the wrong bearer.
			{"wifi_bytes", 0.10, 0}, {"radio_bytes", 0.10, 0},
			// Alarms are published until the transfer ends, so multi_sent
			// is alarm rate × transfer_ms and takes that guard's slack;
			// none of them may be lost.
			{"multi_lost", 0, 0}, {"multi_sent", 0.10, 0},
			// The single-bearer arm's loss count rides ARQ retry phase
			// against the blackout edges. Every harness wait parks on the
			// clock, so host load no longer moves virtual time under it (77
			// in 40 full runs, idle and loaded, GOMAXPROCS 1 and 2); the
			// slack left covers the order of goroutines woken at one
			// instant.
			{"single_lost", 0, 2},
			{"single_sent", 0, 0},
		}},
	{Name: "e15", Title: "E15 — pooled wire path end to end: one publisher to one subscriber over the simulated bus",
		Seed: 15, Virtual: true, run: reportE15, Guards: fanInGuards},
	{Name: "e16", Title: "E16 — ground gateway: encode-once fan-out to external clients (shared subs, LVC)",
		Seed: 16, Virtual: true, run: reportE16,
		Guards: []Guard{
			// Delivery counts are exact: every client hears every sample or
			// the shared-subscription plumbing broke.
			{"sweep_*_clients", 0, 0}, {"sweep_*_samples", 0, 0}, {"sweep_*_delivered", 0, 0},
			// Air-side cost may shift by a heartbeat packet when warm-up
			// duration moves the discovery phase; it must not shift by a
			// per-client resubscription (that lands orders of magnitude out).
			{"sweep_*_air_bytes", 0.25, 200},
			{"sweep_*_air_bytes_per_sample", 0.25, 10},
			// Pushed bytes drift only with seq-number digit width; a
			// re-encode per client would multiply this.
			{"sweep_*_client_bytes", 0.05, 0},
			// The tentpole claim: 100x the audience, same air link.
			{"air_flatness_ratio", 0, 0.5},
			// Absolute allocs/sample absorb ±1 background allocation; the
			// marginal per-client figure is the contract and pins at zero.
			{"alloc_small_per_sample", 0, 1}, {"alloc_big_per_sample", 0, 1},
			{"alloc_per_client_marginal", 0, 0.01},
			// Every deliberately stalled consumer is evicted, none of the
			// healthy.
			{"slow_evicted", 0, 0}, {"slow_stalled", 0, 0}, {"slow_healthy", 0, 0},
			{"slow_*_ms", 0, 0}, // virtual-clock latencies: exact
		},
		// A healthy delivery that queues behind a stalled write waits for
		// it to end, and for each stalled write that follows: one queued
		// as a stall begins waits WriteStall or more. A clean delivery
		// takes the air link's 2 ms, so the slowest healthy completion
		// with stalled consumers attached must stay under one WriteStall.
		check: func(m map[string]float64) error {
			if worst, stall := m["slow_stalled_max_ms"], ms(e16WriteStall); worst >= stall {
				return fmt.Errorf("slowest healthy delivery took %.2fms with stalled consumers attached, not under one WriteStall (%.0fms): it queued behind a stalled write", worst, stall)
			}
			return nil
		}},
	{Name: "e17", Title: "E17 — sharded ingress: four publishers into one four-shard subscriber over the simulated bus",
		Seed: 17, Virtual: true, run: reportE17, Guards: fanInGuards},
}

// All returns the experiment table in order.
func All() []*Experiment { return table }

// Names lists the experiment names in table order; virtualOnly keeps the
// simulation-backed ones.
func Names(virtualOnly bool) []string {
	var names []string
	for _, e := range table {
		if e.Virtual || !virtualOnly {
			names = append(names, e.Name)
		}
	}
	return names
}

// Select resolves a -run style selector — "all" or a comma-separated list
// of names, case-insensitive — to experiments in table order. A name that
// is not in the table is an error listing the ones that are.
func Select(spec string) ([]*Experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		want[strings.ToLower(strings.TrimSpace(name))] = true
	}
	if want["all"] {
		for _, e := range table {
			want[e.Name] = true
		}
		delete(want, "all")
	}
	var picked []*Experiment
	for _, e := range table {
		if want[e.Name] {
			picked = append(picked, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s; valid names: %s or all",
			strings.Join(unknown, ", "), strings.Join(Names(false), ","))
	}
	return picked, nil
}

// Run executes the experiment at full or quick size with its table seed. A
// Virtual experiment runs on a fresh discrete-event clock unless realtime
// paces it against the wall; Elapsed.Virtual stays zero for wall-clock runs.
func (e *Experiment) Run(quick, realtime bool) (rep *Report, el Elapsed, err error) {
	if e.Virtual && !realtime {
		el, err = RunVirtual(func(clk clock.Clock) error {
			var runErr error
			rep, runErr = e.run(clk, e.Seed, quick)
			return runErr
		})
		return rep, el, err
	}
	start := time.Now()
	rep, err = e.run(nil, e.Seed, quick)
	return rep, Elapsed{Wall: time.Since(start)}, err
}

// Verify holds a full-size run's flattened metrics against the committed
// baseline's through the experiment's guards, then applies its own check.
// It returns one message per violation.
func (e *Experiment) Verify(base, got map[string]float64) []string {
	var bad []string
	for _, g := range e.Guards {
		matched := false
		for key, want := range base {
			if ok, _ := path.Match(g.Key, key); !ok {
				continue
			}
			matched = true
			have, emitted := got[key]
			tol := math.Max(math.Abs(want)*g.Rel, g.Floor)
			switch diff := math.Abs(have - want); {
			case !emitted:
				bad = append(bad, fmt.Sprintf("%s: run emitted no %s", e.Name, key))
			case diff > tol:
				bad = append(bad, fmt.Sprintf("%s %s = %.3f, baseline %.3f (|diff| %.3f > tolerance %.3f)",
					e.Name, key, have, want, diff, tol))
			}
		}
		if !matched {
			bad = append(bad, fmt.Sprintf("%s: baseline has no metric matching %q", e.Name, g.Key))
		}
	}
	if e.check != nil {
		if err := e.check(got); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", e.Name, err))
		}
	}
	sort.Strings(bad)
	return bad
}
