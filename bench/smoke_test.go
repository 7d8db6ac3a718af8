package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeEffort keeps the parts of a run around the measured window short.
var smokeEffort = effort{warmup: 100 * time.Millisecond, stageBudget: time.Millisecond, handoffItems: 5}

// TestSmoke runs every workload for 300 ms untraced, then the per-layer
// mode once, and checks that nothing failed, that every metric named in
// BENCHMARK.json is emitted, and that trace.json is a well-formed tree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	const window = 300 * time.Millisecond

	res, err := runSet(workloads, plan{reps: 1, dur: window, seed: 1, effort: smokeEffort})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r := res.Workloads[w.name]
		if r == nil {
			t.Fatalf("%s: no result", w.name)
		}
		if r.Failed != 0 || r.E2E[mFailed].Median != 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, r.Failed, r.Attempted)
		}
		if r.E2E[mOps].Median == 0 && w.name == "file_bulk" {
			// One fetch takes over 100 ms on an idle host; beside other
			// packages' tests a 300 ms window can hold none.
			t.Logf("%s: no op completed inside the window", w.name)
			continue
		}
		for _, m := range nineMetrics {
			if d, ok := r.E2E[m.name]; m.name != mFailed && (!ok || d.Median <= 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive figure", w.name, m.name, d.Median)
			}
		}
	}
	if err := checkFailures(res); err != nil {
		t.Error(err)
	}

	// Per-layer mode on the two workloads that differ most in what the
	// decorators see: a saturated bus and paced UDP with acknowledgments.
	out := t.TempDir()
	traced := []workload{*findWorkload("telemetry_closed"), *findWorkload("alarm_paced_udp")}
	res, err = runSet(traced, plan{reps: 1, dur: window, traced: true, seed: 1, out: out, effort: smokeEffort})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range traced {
		r := res.Workloads[w.name]
		if r.Failed != 0 {
			t.Errorf("%s traced: %d of %d ops failed", w.name, r.Failed, r.Attempted)
		}
		for _, name := range layerNames {
			if _, ok := r.Layers[name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, name)
			}
		}
		for _, name := range []string{"engine.call_p50_us", "encoding.marshal_busy_us_per_op", "transport.send_busy_us_per_op",
			"egress.residence_p50_us", "ingress.residence_p50_us", "scheduler.wait_p50_us", "encoding.marshal_ns", "scheduler.handoff_ns"} {
			if r.Layers[name].Median <= 0 {
				t.Errorf("%s: %s = %v, want a positive figure", w.name, name, r.Layers[name].Median)
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads map[string]traceFile `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	for _, w := range traced {
		tf, ok := file.Workloads[w.name]
		if !ok || len(tf.Spans) == 0 {
			t.Fatalf("%s: no spans in trace.json", w.name)
		}
		byID := make(map[int]spanJSON, len(tf.Spans))
		for _, s := range tf.Spans {
			byID[s.ID] = s
		}
		children, names := 0, map[string]bool{}
		for _, s := range tf.Spans {
			names[s.Name] = true
			if s.EndNS < s.StartNS || s.Layer != layerOf(s.Name) {
				t.Fatalf("%s: malformed span %+v", w.name, s)
			}
			if s.Parent == 0 {
				continue
			}
			children++
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("%s: span %d names parent %d, which does not exist", w.name, s.ID, s.Parent)
			}
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Fatalf("%s: span %+v lies outside its parent %+v", w.name, s, p)
			}
		}
		if children == 0 {
			t.Errorf("%s: no span has a parent", w.name)
		}
		for _, name := range []string{spanCall, spanMarshal, spanUnmarshal, spanSend, spanDeliver, spanRun, spanCallback} {
			if !names[name] {
				t.Errorf("%s: no %s span recorded", w.name, name)
			}
			if lt := tf.Layers[name]; names[name] && (lt.Spans == 0 || lt.SelfUS > lt.TotalUS) {
				t.Errorf("%s: layer summary of %s is %+v", w.name, name, lt)
			}
		}
	}
}
