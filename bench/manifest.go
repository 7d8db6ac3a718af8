package main

import "encoding/json"

// runSeconds is the run length BENCHMARK.json asks the driver for: five
// repetitions of 3 s. With warm-up, set-up and teardown a run takes about
// 22 s, so the driver's 4 + 22 × 4 runs and two builds fit its 3420 s.
const runSeconds = 15

// manifest is BENCHMARK.json: the command, the workloads and every metric
// as this program defines them. `go run ./bench -manifest` prints it and
// manifest_test.go holds the committed file to it, so the two cannot
// drift apart.
func manifest() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadJSON{w.name, w.why})
	}
	for _, e := range e2eMetrics {
		m.EndToEnd = append(m.EndToEnd, e2eJSON{e.name, e.unit, e.better, e.bound})
	}
	for _, name := range layerNames {
		better := "lower"
		if higherIsBetter[name] {
			better = "higher"
		}
		m.PerLayer = append(m.PerLayer, layerJSON{name, layerUnits(name), better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
