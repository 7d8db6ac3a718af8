// Command uavbench regenerates every quantitative experiment recorded in
// README "Benchmarks and experiments": the paper's comparative claims
// (E1–E5, E7, E8), the end-to-end Figure 3 mission (E9), and the
// middleware-plane experiments (E11–E17). It is a loop over the experiment
// table in internal/experiments — which owns each experiment's name, title,
// seed and full/quick parameters — so run it with no flags for the full
// sweep, or select entries of the table by name:
//
//	uavbench -run e2,e3 -quick
//
// The simulation-backed experiments (the table's Virtual entries: E3 and
// E11–E17) run on a virtual discrete-event clock by default: minutes of
// scenario time execute in wall milliseconds with identical protocol
// semantics (same-instant wake order is still the Go scheduler's, so some
// figures vary between same-seed runs). Pass -realtime to pace them
// against the wall clock instead. Each experiment prints its report
// and writes a BENCH_E<n>.json trajectory record (seed, virtual and wall
// durations, and every figure of the report under a flat metric key) under
// -bench-dir, plus a METRICS_E<n>.txt observability snapshot where the
// scenario instruments a node.
//
// Absolute numbers depend on the host for the wall-clock experiments;
// the recorded results are about shape: who wins, by what factor, and
// where crossovers sit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"uavmw/internal/experiments"
)

// benchRecord is the BENCH_E<n>.json trajectory document. Host, Cores and
// Go say where it was recorded: same-instant ordering under the virtual
// clock is still the Go scheduler's, so a committed baseline is read with
// the core count it came from.
type benchRecord struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed,omitempty"`
	Quick      bool               `json:"quick"`
	Host       string             `json:"host"`
	Cores      int                `json:"cores"`
	Go         string             `json:"go"`
	Virtual    bool               `json:"virtual"`
	VirtualMS  float64            `json:"virtual_ms,omitempty"`
	WallMS     float64            `json:"wall_ms"`
	Speedup    float64            `json:"speedup,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	var (
		runFlag = flag.String("run", "all", "comma-separated experiments: "+
			strings.Join(experiments.Names(false), ",")+" or all")
		quick    = flag.Bool("quick", false, "reduced iteration counts for smoke runs")
		realtime = flag.Bool("realtime", false, "pace the simulation-backed experiments ("+
			strings.Join(experiments.Names(true), ",")+") against the wall clock instead of the virtual clock")
		benchDir   = flag.String("bench-dir", ".", "directory for BENCH_E<n>.json records")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the selected experiments) to this file")
	)
	flag.Parse()
	log.SetFlags(0)
	selected, err := experiments.Select(*runFlag)
	if err != nil {
		log.Fatalf("uavbench: -run: %v", err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("uavbench: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("uavbench: -cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("uavbench: -memprofile: %v", err)
			}
			defer func() { _ = f.Close() }()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("uavbench: -memprofile: %v", err)
			}
		}()
	}
	for _, exp := range selected {
		fmt.Printf("\n=== %s ===\n", exp.Title)
		rep, el, err := exp.Run(*quick, *realtime)
		if err != nil {
			log.Fatalf("uavbench %s: %v", exp.Name, err)
		}
		if err := rep.Print(os.Stdout); err != nil {
			log.Fatalf("uavbench %s: %v", exp.Name, err)
		}
		rec := benchRecord{
			Experiment: exp.Name, Seed: exp.Seed, Quick: *quick,
			Host:      runtime.GOOS + "/" + runtime.GOARCH,
			Cores:     runtime.GOMAXPROCS(0),
			Go:        runtime.Version(),
			Virtual:   exp.Virtual && !*realtime,
			VirtualMS: float64(el.Virtual) / float64(time.Millisecond),
			WallMS:    float64(el.Wall) / float64(time.Millisecond),
			Speedup:   el.Speedup(),
			Metrics:   rep.Flatten(),
		}
		if rec.Virtual {
			fmt.Printf("[%s: %.1fs of scenario time in %.0fms of wall time, %.0fx]\n",
				exp.Name, rec.VirtualMS/1000, rec.WallMS, rec.Speedup)
		}
		if err := writeBench(*benchDir, rec); err != nil {
			log.Fatalf("uavbench %s: %v", exp.Name, err)
		}
		if rep.Snapshot != "" {
			if err := writeMetrics(*benchDir, exp.Name, rep.Snapshot); err != nil {
				log.Fatalf("uavbench %s: %v", exp.Name, err)
			}
		}
	}
}

// writeMetrics lands an experiment node's observability snapshot
// (metrics.Snapshot.Text) next to its BENCH record, so each CI run ships
// the full counter/gauge state that produced the headline numbers.
func writeMetrics(dir, experiment, snapshot string) error {
	name := filepath.Join(dir, "METRICS_"+strings.ToUpper(experiment)+".txt")
	return os.WriteFile(name, []byte(snapshot), 0o644)
}

func writeBench(dir string, rec benchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, "BENCH_"+strings.ToUpper(rec.Experiment)+".json")
	return os.WriteFile(name, append(data, '\n'), 0o644)
}
