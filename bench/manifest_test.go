package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesProgram holds BENCHMARK.json to what the program
// emits: the committed file must be exactly `go run ./bench -manifest`,
// which is built from the same tables the driver line is printed from.
func TestManifestMatchesProgram(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it.\n--- program ---\n%s", want)
	}
}

// TestManifestMeetsTheContract checks the limits the driver refuses a
// benchmark for.
func TestManifestMeetsTheContract(t *testing.T) {
	raw, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(raw))
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not at most 64 of [A-Za-z0-9_.-] starting with a letter or digit", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("%s: direction %q", n, better)
		}
	}

	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(m.EndToEnd))
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		direction(e.Name, e.Better)
		if !unitRE.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v out of range", e.Name, e.Unit, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds with lower better")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(m.PerLayer))
	}
	for _, l := range m.PerLayer {
		name("per-layer", l.Name)
		direction(l.Name, l.Better)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("per-layer %s: unit %q", l.Name, l.Unit)
		}
	}
	for n := range higherIsBetter {
		if !seen[n] {
			t.Errorf("higherIsBetter names %q, which is no per-layer metric", n)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	// Every run of the driver (4 + 22 per workload, two builds) must fit
	// its 3420 s. A run is its repetitions (window, warm-up, and about a
	// second of set-up, drain and teardown each) plus the extra set-ups.
	reps, dur := repPlan(m.RunSeconds)
	perRun := float64(reps)*(dur.Seconds()+fullEffort.warmup.Seconds()+1) + float64(minSetups-reps)*0.3
	if total := perRun * float64(4+22*len(m.Workloads)); total > 3420-600 {
		t.Errorf("%d driver runs of about %.0f s take %.0f s; the budget is 3420 s including two builds", 4+22*len(m.Workloads), perRun, total)
	}
}
