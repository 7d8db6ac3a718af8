package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"uavmw/internal/clock"
)

// nondeterministic lists the Virtual table entries whose quick run does not
// yet reproduce byte for byte at GOMAXPROCS 1 and 2. Every wait in a virtual
// run is owned by the clock, so virtual time never advances by a
// wall-dependent amount; but every goroutine runnable at one instant still
// runs at once, so order within an instant belongs to the Go scheduler, and
// E16's slow-consumer arm measures wall-clock latencies. The list may only
// shrink: an entry leaves it when the scenario becomes deterministic, and no
// entry joins it.
var nondeterministic = map[string]bool{
	"e3": true, "e11": true, "e12": true, "e13": true, "e14": true, "e16": true,
}

// Two virtual runs of the same scenario with the same seed must produce
// byte-identical results, whatever the core count: the clock starts at the
// same epoch, the bus medium draws from the same seeded stream, and event
// order is serialized by the clock — so every measured field (wire bytes,
// packet counts, convergence latencies) and the node's metrics snapshot land
// on exactly the same value. Every Virtual entry of the table runs at quick
// size at GOMAXPROCS 1 and 2; any time.Now or unmanaged wake-up sneaking
// into a measured path shows up here as a diff. The scenario's virtual
// length must agree within 0.1% at both counts for every entry, the listed
// ones too: same-instant order may move a figure, but no wait may let
// virtual time run on, not even at teardown.
func TestVirtualRunsAreDeterministic(t *testing.T) {
	// At one core count E12 already repeats exactly, result and snapshot.
	t.Run("e12_same_procs", func(t *testing.T) {
		run := func() E12Result {
			res, _ := virtual(t, func(clk clock.Clock) (*E12Result, error) { return RunE12(clk, 4, 25, 12) })
			return *res
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("same seed, different results:\n  first:  %+v\n  second: %+v", a, b)
		}
	})
	snapshots := 0
	for _, e := range All() {
		if !e.Virtual {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			var flat [2]map[string]float64
			var snap [2]string
			var length [2]time.Duration
			for i, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				rep, el, err := e.Run(true, false)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				flat[i], snap[i], length[i] = rep.Flatten(), rep.Snapshot, el.Virtual
			}
			if d := (length[0] - length[1]).Abs(); length[0] <= 0 || d > length[0]/1000 {
				t.Errorf("virtual scenario length %v at GOMAXPROCS 1, %v at 2: want within 0.1%%", length[0], length[1])
			}
			if snap[0] != "" {
				snapshots++
			}
			diffs := flatDiff(flat[0], flat[1])
			if snap[0] != snap[1] {
				diffs = append(diffs, "metrics snapshot differs")
			}
			switch {
			case len(diffs) > 0 && !nondeterministic[e.Name]:
				t.Errorf("same seed, different results at GOMAXPROCS 1 and 2:\n  %v", diffs)
			case len(diffs) > 0:
				t.Logf("known nondeterministic: %v", diffs)
			case nondeterministic[e.Name]:
				t.Logf("reproduced at GOMAXPROCS 1 and 2 this time; remove it from nondeterministic once it always does")
			}
		})
	}
	// Guard against the snapshots silently becoming empty, which would
	// make their comparison vacuous.
	if snapshots == 0 {
		t.Fatal("no Virtual entry exported a metrics snapshot")
	}
}

// flatDiff lists the keys on which two flattened reports disagree.
func flatDiff(a, b map[string]float64) []string {
	var out []string
	for k, va := range a {
		if vb, ok := b[k]; !ok || vb != va {
			out = append(out, fmt.Sprintf("%s: %v vs %v", k, va, b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing vs %v", k, b[k]))
		}
	}
	sort.Strings(out)
	return out
}

// The 256-node discovery scenario exists only because of the virtual
// clock: its announce period is 1s and the staggered bootstrap alone
// paces out minutes of scenario time, which under real time would be a
// minutes-long test. Under virtual time the fleet must boot, converge,
// settle to heartbeat-only wire cost, and propagate a fresh offer in
// well under a period.
func TestE12ScaleConverges256Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node fleet is the CI-scale scenario; skipped in -short")
	}
	res, el := virtual(t, func(clk clock.Clock) (*E12ScaleResult, error) { return RunE12Scale(clk, 256, 2, 256) })
	t.Logf("e12 scale: boot %v, steady %.0f pkts/period, converge %v; %v of scenario in %v of wall (%.0fx)",
		res.BootConverge, res.SteadyPacketsPerPeriod, res.Converge,
		el.Virtual, el.Wall, el.Speedup())
	if res.Converge >= res.AnnouncePeriod {
		t.Errorf("fresh offer converged in %v, want under one announce period (%v)",
			res.Converge, res.AnnouncePeriod)
	}
	// Steady state is heartbeat digests: one multicast per node per
	// period, with a small allowance for residual repair traffic.
	if res.SteadyPacketsPerPeriod > float64(res.Nodes)*1.5 {
		t.Errorf("steady wire cost %.0f pkts/period for %d nodes: fleet did not settle to heartbeats",
			res.SteadyPacketsPerPeriod, res.Nodes)
	}
}
