package uavmw

// Baseline guards for the observability plane: every experiment of the
// table that carries Guards is re-run at full size, exactly as uavbench
// runs it, and its flattened report is held against the committed
// testdata/bench_baseline/BENCH_<NAME>.json snapshot. The guards — which
// metric, how much relative and absolute slack — are data on the table
// entry (internal/experiments/table.go), with the reason beside each. The
// metrics registry sits on the egress and ARQ hot paths, the gateway
// fan-out carries the external-client load and the ingress pipeline owns
// the receive path, so a regression here means the instrumentation (or any
// later change) altered scheduling or wire behaviour, not just numbers.
//
// The guarded scenarios run under virtual time, so "noise" is not OS
// jitter — the tolerances absorb intentional, reviewed shifts in event
// interleaving (e.g. an extra timer on a measured path), while anything
// structural (priority inversion back, handover undetected, lost alarms)
// lands far outside them. Skipped in -short: CI's race run stays fast
// and a dedicated non-short step executes these.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uavmw/internal/experiments"
)

const baselineDir = "testdata/bench_baseline"

type benchBaseline struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed"`
	Quick      bool               `json:"quick"`
	Metrics    map[string]float64 `json:"metrics"`
}

// loadBaseline reads the committed full-size record of exp. The record
// must have been produced from the table's seed: the guards replay
// exp.Seed, not whatever the file says.
func loadBaseline(t *testing.T, exp *experiments.Experiment) benchBaseline {
	t.Helper()
	name := "BENCH_" + strings.ToUpper(exp.Name) + ".json"
	data, err := os.ReadFile(filepath.Join(baselineDir, name))
	if err != nil {
		t.Fatalf("baseline missing: %v", err)
	}
	var b benchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("baseline %s does not parse: %v", name, err)
	}
	if b.Quick {
		t.Fatalf("baseline %s was recorded with -quick; guards need the full-size run", name)
	}
	if b.Experiment != exp.Name || b.Seed != exp.Seed {
		t.Fatalf("baseline %s records experiment %q seed %d; the table runs %q with seed %d",
			name, b.Experiment, b.Seed, exp.Name, exp.Seed)
	}
	return b
}

func TestBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size baseline runs; executed by the dedicated CI step")
	}
	for _, exp := range experiments.All() {
		if len(exp.Guards) == 0 {
			continue
		}
		t.Run(exp.Name, func(t *testing.T) {
			base := loadBaseline(t, exp)
			rep, _, err := exp.Run(false /* full size */, false /* virtual clock */)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Flatten()
			for _, violation := range exp.Verify(base.Metrics, got) {
				t.Error(violation)
			}
			// A deleted phase must take its figures with it: the committed
			// record holds nothing the run no longer produces.
			for key := range base.Metrics {
				if _, emitted := got[key]; !emitted {
					t.Errorf("baseline holds %s, which the full-size run no longer emits; prune it from the record", key)
				}
			}
		})
	}
}
