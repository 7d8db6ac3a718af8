// Command uavbench regenerates every quantitative experiment recorded in
// README "Benchmarks and experiments": the paper's comparative claims
// (E1–E5, E7, E8), the end-to-end Figure 3 mission (E9), and the
// middleware-plane experiments (E11–E17). Run it with no flags for the full sweep, or select
// experiments:
//
//	uavbench -run e2,e3 -quick
//
// The simulation-backed experiments (E3, E11–E14) run on a virtual
// discrete-event clock by default: minutes of scenario time execute in
// wall milliseconds with identical protocol semantics, deterministically
// for a given seed. Pass -realtime to pace them against the wall clock
// instead. Each experiment writes a BENCH_E<n>.json trajectory record
// (seed, virtual and wall durations, headline metrics) next to the
// binary or under -bench-dir.
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

	"uavmw/internal/clock"
	"uavmw/internal/experiments"
	"uavmw/internal/flightsim"
	"uavmw/internal/qos"
	"uavmw/internal/services"
	"uavmw/internal/transport"
)

// benchRecord is the BENCH_E<n>.json trajectory document.
type benchRecord struct {
	Experiment string         `json:"experiment"`
	Seed       int64          `json:"seed,omitempty"`
	Quick      bool           `json:"quick"`
	Virtual    bool           `json:"virtual"`
	VirtualMS  float64        `json:"virtual_ms,omitempty"`
	WallMS     float64        `json:"wall_ms"`
	Speedup    float64        `json:"speedup,omitempty"`
	Metrics    map[string]any `json:"metrics"`
}

// runner executes one experiment. clk is nil for wall-clock runs; the
// virtual-capable experiments thread it into their harnesses.
type runner func(clk clock.Clock, quick bool) (map[string]any, string, error)

func main() {
	var (
		runFlag    = flag.String("run", "all", "comma-separated experiments: e1,e2,e3,e4,e5,e7,e8,e9,e11,e12,e13,e14,e15,e16,e17 or all")
		quick      = flag.Bool("quick", false, "reduced iteration counts for smoke runs")
		realtime   = flag.Bool("realtime", false, "pace the simulation-backed experiments (e3, e11-e17) against the wall clock instead of the virtual clock")
		benchDir   = flag.String("bench-dir", ".", "directory for BENCH_E<n>.json records")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the selected experiments) to this file")
	)
	flag.Parse()
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
	selected := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		selected[strings.TrimSpace(strings.ToLower(name))] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	type experiment struct {
		name    string
		seed    int64
		virtual bool // runs under the virtual clock unless -realtime
		fn      runner
	}
	all := []experiment{
		{"e1", 0, false, runE1}, {"e2", 42, false, runE2},
		{"e3", 4, true, runE3}, {"e4", 7, false, runE4},
		{"e5", 0, false, runE5}, {"e7", 0, false, runE7},
		{"e8", 0, false, runE8}, {"e9", 0, false, runE9},
		{"e11", 11, true, runE11}, {"e12", 12, true, runE12},
		{"e13", 13, true, runE13}, {"e14", 14, true, runE14},
		{"e15", 15, true, runE15}, {"e16", 16, true, runE16},
		{"e17", 17, true, runE17},
	}
	log.SetFlags(0)
	for _, exp := range all {
		if !want(exp.name) {
			continue
		}
		rec := benchRecord{Experiment: exp.name, Seed: exp.seed, Quick: *quick}
		startWall := time.Now()
		var err error
		var snapshot string
		if exp.virtual && !*realtime {
			rec.Virtual = true
			var el experiments.Elapsed
			el, err = experiments.RunVirtual(func(clk clock.Clock) error {
				m, snap, ferr := exp.fn(clk, *quick)
				rec.Metrics, snapshot = m, snap
				return ferr
			})
			rec.VirtualMS = float64(el.Virtual) / float64(time.Millisecond)
			rec.Speedup = el.Speedup()
		} else {
			rec.Metrics, snapshot, err = exp.fn(nil, *quick)
		}
		rec.WallMS = float64(time.Since(startWall)) / float64(time.Millisecond)
		if err != nil {
			log.Fatalf("uavbench %s: %v", exp.name, err)
		}
		if rec.Virtual {
			fmt.Printf("[%s: %.1fs of scenario time in %.0fms of wall time, %.0fx]\n",
				exp.name, rec.VirtualMS/1000, rec.WallMS, rec.Speedup)
		}
		if err := writeBench(*benchDir, rec); err != nil {
			log.Fatalf("uavbench %s: %v", exp.name, err)
		}
		if snapshot != "" {
			if err := writeMetrics(*benchDir, exp.name, snapshot); err != nil {
				log.Fatalf("uavbench %s: %v", exp.name, err)
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

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func runE1(_ clock.Clock, quick bool) (map[string]any, string, error) {
	header("E1 — event vs remote-invocation notification latency (§4.3 claim)")
	n := 2000
	if quick {
		n = 200
	}
	fmt.Printf("%-10s %12s %12s %12s %12s %10s\n",
		"payload", "event p50", "event p99", "rpc p50", "rpc p99", "rpc/event")
	var rows []map[string]any
	for _, size := range []int{16, 64, 256, 1024} {
		res, err := experiments.RunE1(n, size)
		if err != nil {
			return nil, "", err
		}
		ratio := float64(res.RPC.Percentile(50)) / float64(res.Event.Percentile(50))
		fmt.Printf("%-10d %12v %12v %12v %12v %9.2fx\n",
			size,
			res.Event.Percentile(50).Round(time.Microsecond),
			res.Event.Percentile(99).Round(time.Microsecond),
			res.RPC.Percentile(50).Round(time.Microsecond),
			res.RPC.Percentile(99).Round(time.Microsecond),
			ratio)
		rows = append(rows, map[string]any{
			"payload": size, "event_p50_us": us(res.Event.Percentile(50)),
			"rpc_p50_us": us(res.RPC.Percentile(50)), "rpc_over_event": ratio,
		})
	}
	return map[string]any{"sizes": rows}, "", nil
}

func runE2(_ clock.Clock, quick bool) (map[string]any, string, error) {
	header("E2 — per-message ARQ vs TCP-like in-order stream under loss (§4.2 claim)")
	n := 400
	if quick {
		n = 100
	}
	fmt.Printf("%-8s %12s %12s %12s %12s %12s %12s\n",
		"loss", "arq total", "gbn total", "arq p99", "gbn p99", "arq retx", "gbn retx")
	var rows []map[string]any
	for _, loss := range []float64{0, 0.01, 0.02, 0.05, 0.10} {
		res, err := experiments.RunE2(n, loss, 64, 42)
		if err != nil {
			return nil, "", err
		}
		fmt.Printf("%-8.2f %12v %12v %12v %12v %12d %12d\n",
			loss,
			res.ARQTotal.Round(time.Millisecond),
			res.GBNTotal.Round(time.Millisecond),
			res.ARQPerMsg.Percentile(99).Round(time.Microsecond),
			res.GBNPerMsg.Percentile(99).Round(time.Microsecond),
			res.ARQRetrans, res.GBNRetrans)
		rows = append(rows, map[string]any{
			"loss": loss, "arq_p99_us": us(res.ARQPerMsg.Percentile(99)),
			"gbn_p99_us": us(res.GBNPerMsg.Percentile(99)),
			"arq_retx":   res.ARQRetrans, "gbn_retx": res.GBNRetrans,
		})
	}
	return map[string]any{"loss_sweep": rows}, "", nil
}

func runE3(clk clock.Clock, quick bool) (map[string]any, string, error) {
	header("E3 — event fan-out wire cost: group-addressed multicast vs unicast ARQ (§4.1, §4.2)")
	samples := 200
	if quick {
		samples = 50
	}
	fmt.Printf("%-12s %14s %14s %14s %14s %10s\n",
		"subscribers", "mcast pkts", "mcast KB", "ucast pkts", "ucast KB", "saving")
	var rows []map[string]any
	for _, subs := range []int{2, 8, 32} {
		res, err := experiments.RunE3(clk, subs, samples)
		if err != nil {
			return nil, "", err
		}
		saving := float64(res.UcastBytes) / float64(res.McastBytes)
		fmt.Printf("%-12d %14d %14.1f %14d %14.1f %9.1fx\n",
			subs, res.McastPackets, float64(res.McastBytes)/1024,
			res.UcastPackets, float64(res.UcastBytes)/1024, saving)
		rows = append(rows, map[string]any{
			"subscribers": subs, "mcast_pkts": res.McastPackets,
			"mcast_bytes": res.McastBytes, "ucast_pkts": res.UcastPackets,
			"ucast_bytes": res.UcastBytes, "saving": saving,
		})
	}
	return map[string]any{"fanout": rows}, "", nil
}

func runE4(_ clock.Clock, quick bool) (map[string]any, string, error) {
	header("E4 — MFTP file distribution vs chunked events (§4.4 claim)")
	sizes := []int{64 << 10, 512 << 10, 2 << 20}
	receivers := []int{1, 4, 8}
	if quick {
		sizes = []int{64 << 10, 256 << 10}
		receivers = []int{1, 4}
	}
	fmt.Printf("%-10s %-10s %-6s %12s %12s %12s %12s %8s\n",
		"size", "receivers", "loss", "mftp time", "events time", "mftp KB", "events KB", "speedup")
	var rows []map[string]any
	for _, size := range sizes {
		for _, recv := range receivers {
			res, err := experiments.RunE4(size, recv, 0.02, 7)
			if err != nil {
				return nil, "", err
			}
			fmt.Printf("%-10s %-10d %-6.2f %12v %12v %12.0f %12.0f %7.1fx\n",
				byteSize(size), recv, 0.02,
				res.MFTPTime.Round(time.Millisecond),
				res.EventsTime.Round(time.Millisecond),
				res.MFTPWireKB, res.EventsWireKB,
				float64(res.EventsTime)/float64(res.MFTPTime))
			rows = append(rows, map[string]any{
				"size": size, "receivers": recv,
				"mftp_ms":   float64(res.MFTPTime) / float64(time.Millisecond),
				"events_ms": float64(res.EventsTime) / float64(time.Millisecond),
			})
		}
	}
	return map[string]any{"matrix": rows}, "", nil
}

func runE5(_ clock.Clock, quick bool) (map[string]any, string, error) {
	header("E5 — same-container bypass vs network path (§4.4, F2)")
	iters := 2000
	if quick {
		iters = 200
	}
	res, err := experiments.RunE5(1<<20, iters)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("file fetch 1MB : local %10v   remote %10v   (%.0fx)\n",
		res.LocalFetch.Round(time.Microsecond), res.RemoteFetch.Round(time.Microsecond),
		float64(res.RemoteFetch)/float64(res.LocalFetch))
	fmt.Printf("variable publish: local %10v   remote %10v   (%.0fx)\n",
		res.LocalVar.Round(time.Microsecond), res.RemoteVar.Round(time.Microsecond),
		float64(res.RemoteVar)/float64(res.LocalVar))
	return map[string]any{
		"local_fetch_us": us(res.LocalFetch), "remote_fetch_us": us(res.RemoteFetch),
		"local_var_us": us(res.LocalVar), "remote_var_us": us(res.RemoteVar),
	}, "", nil
}

func runE7(_ clock.Clock, quick bool) (map[string]any, string, error) {
	header("E7 — failover redirection latency after provider death (§4.3)")
	fmt.Printf("%-18s %14s %12s\n", "failure deadline", "redirect time", "failed calls")
	deadlines := []time.Duration{100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second}
	if quick {
		deadlines = deadlines[:2]
	}
	var rows []map[string]any
	for _, d := range deadlines {
		res, err := experiments.RunE7(d)
		if err != nil {
			return nil, "", err
		}
		fmt.Printf("%-18v %14v %12d\n", d, res.Redirect.Round(time.Millisecond), res.CallsFailed)
		rows = append(rows, map[string]any{
			"deadline_ms": float64(d) / float64(time.Millisecond),
			"redirect_ms": float64(res.Redirect) / float64(time.Millisecond),
			"failed":      res.CallsFailed,
		})
	}
	return map[string]any{"deadlines": rows}, "", nil
}

func runE8(_ clock.Clock, quick bool) (map[string]any, string, error) {
	header("E8 — fixed-priority scheduler queue latency under load (§6)")
	background := 5000
	foreground := 200
	if quick {
		background, foreground = 500, 50
	}
	res, err := experiments.RunE8(4, background, foreground, 50*time.Microsecond)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("%-10s %12s %12s %12s\n", "priority", "p50", "p99", "max")
	metrics := map[string]any{}
	for i := len(qos.Levels()) - 1; i >= 0; i-- {
		pr := qos.Levels()[i]
		h := res.Priorities[pr]
		fmt.Printf("%-10s %12v %12v %12v\n", pr,
			h.Percentile(50).Round(time.Microsecond),
			h.Percentile(99).Round(time.Microsecond),
			h.Max().Round(time.Microsecond))
		metrics[fmt.Sprintf("%s_p99_us", pr)] = us(h.Percentile(99))
	}
	return metrics, "", nil
}

func runE9(_ clock.Clock, quick bool) (map[string]any, string, error) {
	header("E9 — Figure 3 mission end to end (§5)")
	rows := 3
	if quick {
		rows = 2
	}
	plan := flightsim.SurveyPlan("bench", 41.2750, 1.9870, rows, 600, 200, 120, 25)
	bus := transport.NewBus()
	start := time.Now()
	res, err := services.RunMission(services.MissionConfig{
		Plan: plan,
		Transports: func(id transport.NodeID) (transport.Transport, error) {
			return bus.Endpoint(id)
		},
		TimeScale:  60,
		SampleRate: 20 * time.Millisecond,
		Timeout:    3 * time.Minute,
	})
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("waypoints %d  photo sites %d  wall clock %v\n",
		len(plan.Waypoints), res.Photos, time.Since(start).Round(time.Millisecond))
	fmt.Printf("photos %d  stored %d  detections %d  gs positions %d  track %d\n",
		res.Photos, res.Stored, res.Detections, res.GSPositions, res.TrackPoints)
	fmt.Fprintln(os.Stdout)
	return map[string]any{
		"waypoints": len(plan.Waypoints), "photos": res.Photos, "stored": res.Stored,
		"detections": res.Detections, "gs_positions": res.GSPositions,
	}, "", nil
}

func runE11(clk clock.Clock, quick bool) (map[string]any, string, error) {
	header("E11 — concurrent RPC vs a stalled pinned provider: hedged failover (§4.3)")
	calls := 20
	if quick {
		calls = 5
	}
	fmt.Println("static pin lands on a provider that stalls past the 250ms deadline;")
	fmt.Println("2% loss; hedge dispatches to the redundant provider at 20% of the deadline")
	fmt.Printf("%-8s %-8s %8s %8s %12s %12s %12s %8s %8s\n",
		"callers", "hedged", "ok", "failed", "thruput/s", "p50", "p99", "hedges", "busy")
	var rows []map[string]any
	for _, callers := range []int{1, 8, 64} {
		for _, hedged := range []bool{false, true} {
			res, err := experiments.RunE11(clk, callers, calls, hedged, 0.02, 400*time.Millisecond, 11)
			if err != nil {
				return nil, "", err
			}
			p50, p99 := "-", "-"
			if res.OK > 0 {
				p50 = res.Latency.Percentile(50).Round(time.Millisecond).String()
				p99 = res.Latency.Percentile(99).Round(time.Millisecond).String()
			}
			fmt.Printf("%-8d %-8v %8d %8d %12.1f %12s %12s %8d %8d\n",
				callers, hedged, res.OK, res.Failed, res.Throughput, p50, p99,
				res.Hedges, res.BusyRej)
			rows = append(rows, map[string]any{
				"callers": callers, "hedged": hedged, "ok": res.OK, "failed": res.Failed,
				"p99_us": us(res.Latency.Percentile(99)), "hedges": res.Hedges,
			})
		}
	}
	return map[string]any{"sweep": rows}, "", nil
}

func runE12(clk clock.Clock, quick bool) (map[string]any, string, error) {
	header("E12 — incremental discovery: steady-state wire cost and convergence (§3 at scale)")
	fmt.Println("steady state sends constant-size digests (O(nodes) bytes/period); the old")
	fmt.Println("protocol re-broadcast every record every period (O(total records))")
	fmt.Printf("%-7s %-9s %14s %14s %9s %14s\n",
		"nodes", "records", "steady B/prd", "full B/prd", "saving", "new-offer lat")
	nodeCounts := []int{4, 16, 64}
	recordCounts := []int{10, 100, 1000}
	if quick {
		nodeCounts = []int{4, 16}
		recordCounts = []int{10, 100}
	}
	var rows []map[string]any
	var snapText string
	for _, nodes := range nodeCounts {
		for _, records := range recordCounts {
			res, err := experiments.RunE12(clk, nodes, records, 12)
			if err != nil {
				return nil, "", err
			}
			snapText = res.MetricsText
			fmt.Printf("%-7d %-9d %14.0f %14.0f %8.1fx %14v\n",
				nodes, records,
				res.SteadyBytesPerPeriod, res.BaselineBytesPerPeriod,
				res.BaselineBytesPerPeriod/res.SteadyBytesPerPeriod,
				res.Converge.Round(10*time.Microsecond))
			rows = append(rows, map[string]any{
				"nodes": nodes, "records": records,
				"steady_bytes_per_period":   res.SteadyBytesPerPeriod,
				"baseline_bytes_per_period": res.BaselineBytesPerPeriod,
				"converge_us":               us(res.Converge),
			})
		}
	}
	churnNodes, churnRecords := 16, 100
	if quick {
		churnNodes, churnRecords = 4, 20
	}
	churn, err := experiments.RunE12Churn(clk, churnNodes, churnRecords, 50, 13)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("churn: %d nodes × %d records, %d offers missed behind a partition\n",
		churn.Nodes, churn.RecordsPerNode, churn.MissedOffers)
	fmt.Printf("heal re-convergence %v (%d sync requests, %d heartbeats observed)\n",
		churn.HealConverge.Round(time.Millisecond), churn.SyncsUsed, churn.HeartbeatsAfter)
	metrics := map[string]any{
		"sweep": rows,
		"churn": map[string]any{
			"nodes": churn.Nodes, "records": churn.RecordsPerNode,
			"heal_converge_ms": float64(churn.HealConverge) / float64(time.Millisecond),
			"syncs":            churn.SyncsUsed,
		},
	}
	// The 256-node fleet exists only under virtual time: its staggered
	// bootstrap paces out minutes of scenario time.
	if clk != nil && !quick {
		scale, err := experiments.RunE12Scale(clk, 256, 2, 256)
		if err != nil {
			return nil, "", err
		}
		fmt.Printf("scale: %d nodes boot-converged in %v; steady %.0f pkts/period; fresh offer in %v\n",
			scale.Nodes, scale.BootConverge.Round(time.Second),
			scale.SteadyPacketsPerPeriod, scale.Converge.Round(time.Millisecond))
		metrics["scale"] = map[string]any{
			"nodes": scale.Nodes, "boot_converge_ms": float64(scale.BootConverge) / float64(time.Millisecond),
			"steady_packets_per_period": scale.SteadyPacketsPerPeriod,
			"converge_us":               us(scale.Converge),
		}
	}
	return metrics, snapText, nil
}

func runE13(clk clock.Clock, quick bool) (map[string]any, string, error) {
	header("E13 — priority-aware egress: critical alarms vs bulk transfer on a 1 Mb/s link")
	fileBytes := 1 << 20
	if quick {
		fileBytes = 192 * 1024
	}
	const linkBPS, alarmHz = 125_000, 50
	fmt.Printf("%dKB transfer UAV→GS over a %d B/s air-to-ground link, %dHz critical alarms\n",
		fileBytes/1024, linkBPS, alarmHz)
	fmt.Println("flood: bulk unshaped — alarms queue behind the chunk backlog at the link")
	fmt.Println("shaped: egress bulk lane paced at 92% of line rate, strict-priority drain")
	res, err := experiments.RunE13(clk, fileBytes, linkBPS, alarmHz, 13)
	if err != nil {
		return nil, "", err
	}
	row := func(name string, h interface {
		Percentile(float64) time.Duration
		Count() uint64
	}, lost, sent int, transfer time.Duration, goodput float64) {
		tr, gp, util := "-", "-", "-"
		if transfer > 0 {
			tr = transfer.Round(time.Millisecond).String()
			gp = fmt.Sprintf("%.0f", goodput/1024)
			util = fmt.Sprintf("%.0f%%", 100*goodput/float64(linkBPS))
		}
		fmt.Printf("%-10s %12v %12v %9s %12s %9s %7s\n",
			name,
			h.Percentile(50).Round(time.Microsecond),
			h.Percentile(99).Round(time.Microsecond),
			fmt.Sprintf("%d/%d", lost, sent),
			tr, gp, util)
	}
	fmt.Printf("%-10s %12s %12s %9s %12s %9s %7s\n",
		"mode", "alarm p50", "alarm p99", "lost", "transfer", "KB/s", "util")
	row("unloaded", res.Unloaded, 0, int(res.Unloaded.Count()), 0, 0)
	row("flood", res.Flood, res.FloodLost, res.FloodSent, res.FloodTransfer, res.FloodGoodput)
	row("shaped", res.Shaped, res.ShapedLost, res.ShapedSent, res.ShapedTransfer, res.ShapedGoodput)
	fmt.Printf("inversion: flood alarm p99 is %.0fx unloaded; shaped is %.1fx (bulk dropped by egress: %d, frames coalesced: %d)\n",
		float64(res.Flood.Percentile(99))/float64(res.Unloaded.Percentile(99)),
		float64(res.Shaped.Percentile(99))/float64(res.Unloaded.Percentile(99)),
		res.ShapedDropped, res.ShapedCoalesced)
	return map[string]any{
		"unloaded_p99_us": us(res.Unloaded.Percentile(99)),
		"flood_p99_us":    us(res.Flood.Percentile(99)),
		"shaped_p99_us":   us(res.Shaped.Percentile(99)),
		"flood_lost":      res.FloodLost, "shaped_lost": res.ShapedLost,
		"shaped_goodput_bps": res.ShapedGoodput,
		"shaped_dropped":     res.ShapedDropped,
	}, res.MetricsText, nil
}

func runE14(clk clock.Clock, quick bool) (map[string]any, string, error) {
	header("E14 — multi-bearer link plane: WiFi→radio handover under blackout")
	fileBytes := 256 * 1024
	blackoutAfter := 800 * time.Millisecond
	if quick {
		fileBytes = 96 * 1024
		blackoutAfter = 400 * time.Millisecond
	}
	res, err := experiments.RunE14(clk, fileBytes, blackoutAfter, 14)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("%dKB transfer UAV→GS; wifi %d B/s (shaped %d) + radio %d B/s (shaped %d); %dHz critical alarms\n",
		res.FileBytes/1024, res.WifiBPS, res.WifiShapedBPS, res.RadioBPS, res.RadioShaped, res.AlarmHz)
	fmt.Printf("policy: critical pins to the robust radio, bulk rides the fat wifi; wifi blacks out %v into the transfer\n",
		res.BlackoutAfter)
	fmt.Printf("%-14s %12s %12s %9s\n", "alarms", "p50", "p99", "lost")
	fmt.Printf("%-14s %12v %12v %9s\n", "unloaded",
		res.Unloaded.Percentile(50).Round(time.Microsecond),
		res.Unloaded.Percentile(99).Round(time.Microsecond),
		fmt.Sprintf("0/%d", res.Unloaded.Count()))
	fmt.Printf("%-14s %12v %12v %9s\n", "loaded+blackout",
		res.Multi.Percentile(50).Round(time.Microsecond),
		res.Multi.Percentile(99).Round(time.Microsecond),
		fmt.Sprintf("%d/%d", res.MultiLost, res.MultiSent))
	fmt.Printf("handover: wifi declared down %v after blackout; transfer completed in %v\n",
		res.HandoverDetect.Round(time.Millisecond), res.Transfer.Round(time.Millisecond))
	fmt.Printf("wire split UAV→GS: wifi %dKB, radio %dKB; bulk recovered to %.0f B/s = %.0f%% of the radio's shaped rate\n",
		res.WifiBytes/1024, res.RadioBytes/1024, res.RecoveredBPS, 100*res.RecoveredBPS/float64(res.RadioShaped))
	fmt.Printf("single-bearer baseline: %d of %d alarms lost across a %v wifi blackout (no second link to fail to)\n",
		res.SingleLost, res.SingleSent, res.SingleBlackout)
	return map[string]any{
		"multi_lost": res.MultiLost, "multi_sent": res.MultiSent,
		"multi_p99_us":        us(res.Multi.Percentile(99)),
		"handover_detect_ms":  float64(res.HandoverDetect) / float64(time.Millisecond),
		"recovered_bps":       res.RecoveredBPS,
		"wifi_bytes":          res.WifiBytes,
		"radio_bytes":         res.RadioBytes,
		"single_lost":         res.SingleLost,
		"single_sent":         res.SingleSent,
		"transfer_ms":         float64(res.Transfer) / float64(time.Millisecond),
		"single_blackout_sec": res.SingleBlackout.Seconds(),
	}, res.MetricsText, nil
}

func runE15(clk clock.Clock, quick bool) (map[string]any, string, error) {
	header("E15 — zero-allocation wire path: pooled encode/decode and batch syscalls")
	samples := 400
	includeUDP := true
	if quick {
		samples = 100
		includeUDP = false
	}
	res, err := experiments.RunE15(clk, samples, includeUDP, 15)
	if err != nil {
		return nil, "", err
	}
	// Flat float metrics only: the baseline guard replays this record and
	// parses Metrics as map[string]float64.
	metrics := map[string]float64{}
	fmt.Printf("%-8s %10s %12s %14s\n", "size", "B/frame", "pooled a/f", "pooled Mf/s")
	for _, c := range res.Codec {
		fmt.Printf("%-8s %10.1f %12.3f %14.2f\n",
			c.Name, c.WireBytesPerFrame, c.PooledAllocsPerFrame, c.PooledFramesPerSec/1e6)
		metrics["codec_"+c.Name+"_wire_b"] = c.WireBytesPerFrame
		metrics["codec_"+c.Name+"_pooled_allocs"] = c.PooledAllocsPerFrame
		metrics["codec_"+c.Name+"_pooled_fps"] = c.PooledFramesPerSec
	}
	ns := res.Netsim
	fmt.Printf("netsim: %d/%d samples delivered, %d packets %d bytes on the wire (%.1f B/sample)\n",
		ns.Delivered, ns.Samples, ns.WirePackets, ns.WireBytes, ns.BytesPerSample)
	metrics["netsim_samples"] = float64(ns.Samples)
	metrics["netsim_delivered"] = float64(ns.Delivered)
	metrics["netsim_wire_packets"] = float64(ns.WirePackets)
	metrics["netsim_wire_bytes"] = float64(ns.WireBytes)
	metrics["netsim_bytes_per_sample"] = ns.BytesPerSample
	if res.UDPSkipped != "" {
		fmt.Printf("udp loopback: skipped (%s)\n", res.UDPSkipped)
	}
	for _, u := range res.UDP {
		fmt.Printf("udp %-10s %5dB: %7.0f kframes/s pushed (%.0f MB/s), %d/%d kept by the reader\n",
			u.Mode, u.PayloadBytes, u.FramesPerSec/1e3, u.MBPerSec, u.Delivered, u.Sent)
		key := fmt.Sprintf("udp_%s_%db", u.Mode, u.PayloadBytes)
		metrics[key+"_fps"] = u.FramesPerSec
		metrics[key+"_delivered"] = float64(u.Delivered)
	}
	out := make(map[string]any, len(metrics))
	for k, v := range metrics {
		out[k] = v
	}
	return out, res.MetricsText, nil
}

func runE16(clk clock.Clock, quick bool) (map[string]any, string, error) {
	header("E16 — ground gateway: encode-once fan-out to external clients (shared subs, LVC)")
	counts := []int{1000, 10_000, 100_000}
	samples := 20
	if quick {
		counts = []int{500, 5000}
		samples = 10
	}
	res, err := experiments.RunE16(clk, counts, samples, 16)
	if err != nil {
		return nil, "", err
	}
	// Flat float metrics only: the baseline guard replays this record and
	// parses Metrics as map[string]float64.
	metrics := map[string]float64{}
	fmt.Printf("%-10s %10s %12s %12s %14s %14s\n",
		"clients", "delivered", "air pkts", "air KB", "air B/sample", "client MB")
	for _, pt := range res.Sweep {
		fmt.Printf("%-10d %10d %12d %12.1f %14.1f %14.2f\n",
			pt.Clients, pt.Delivered, pt.AirPackets, float64(pt.AirBytes)/1024,
			pt.AirBytesPerSample, float64(pt.ClientBytes)/(1<<20))
		p := fmt.Sprintf("sweep_%d_", pt.Clients)
		metrics[p+"clients"] = float64(pt.Clients)
		metrics[p+"samples"] = float64(pt.Samples)
		metrics[p+"delivered"] = float64(pt.Delivered)
		metrics[p+"air_packets"] = float64(pt.AirPackets)
		metrics[p+"air_bytes"] = float64(pt.AirBytes)
		metrics[p+"air_bytes_per_sample"] = pt.AirBytesPerSample
		metrics[p+"client_bytes"] = float64(pt.ClientBytes)
	}
	fmt.Printf("air flatness (largest/smallest B/sample): %.2f — one fabric subscription feeds every audience size\n",
		res.AirFlatnessRatio)
	a := res.Alloc
	fmt.Printf("allocs/sample: %.1f @ %d clients, %.1f @ %d clients — marginal %.4f per extra client\n",
		a.SmallPerSample, a.SmallClients, a.BigPerSample, a.BigClients, a.PerClientMarginal)
	s := res.Slow
	fmt.Printf("slow consumers: %d/%d stalled clients evicted; healthy p99 %.2fms with stalls vs %.2fms clean (%d healthy, %d samples)\n",
		s.Evicted, s.StalledClients, s.StalledP99Ms, s.BaselineP99Ms, s.HealthyClients, s.Samples)
	metrics["air_flatness_ratio"] = res.AirFlatnessRatio
	metrics["alloc_small_clients"] = float64(a.SmallClients)
	metrics["alloc_big_clients"] = float64(a.BigClients)
	metrics["alloc_small_per_sample"] = a.SmallPerSample
	metrics["alloc_big_per_sample"] = a.BigPerSample
	metrics["alloc_per_client_marginal"] = a.PerClientMarginal
	metrics["slow_healthy"] = float64(s.HealthyClients)
	metrics["slow_stalled"] = float64(s.StalledClients)
	metrics["slow_samples"] = float64(s.Samples)
	metrics["slow_evicted"] = float64(s.Evicted)
	metrics["slow_baseline_p50_ms"] = s.BaselineP50Ms
	metrics["slow_baseline_p99_ms"] = s.BaselineP99Ms
	metrics["slow_stalled_p50_ms"] = s.StalledP50Ms
	metrics["slow_stalled_p99_ms"] = s.StalledP99Ms
	out := make(map[string]any, len(metrics))
	for k, v := range metrics {
		out[k] = v
	}
	return out, res.MetricsText, nil
}

func runE17(clk clock.Clock, quick bool) (map[string]any, string, error) {
	header("E17 — sharded ingress: multi-sender ingest scaling and receive-path allocations")
	samples := 300
	scalingDur := 200 * time.Millisecond
	if quick {
		samples = 80
		scalingDur = 0 // skip the wall-clock flood on smoke runs
	}
	res, err := experiments.RunE17(clk, samples, scalingDur, 17)
	if err != nil {
		return nil, "", err
	}
	// Flat float metrics only: the baseline guard replays this record and
	// parses Metrics as map[string]float64.
	metrics := map[string]float64{}
	a := res.Alloc
	fmt.Printf("allocs/frame through the full receive path: owned %.3f, pooled copy %.3f, ack-required %.3f\n",
		a.OwnedPerFrame, a.CopyPerFrame, a.AckedPerFrame)
	metrics["alloc_owned_per_frame"] = a.OwnedPerFrame
	metrics["alloc_copy_per_frame"] = a.CopyPerFrame
	metrics["alloc_acked_per_frame"] = a.AckedPerFrame
	if len(res.Scaling) > 0 {
		fmt.Printf("%-8s %10s %12s %12s %14s\n", "shards", "senders", "delivered", "dropped", "Mframes/s")
		for _, pt := range res.Scaling {
			fmt.Printf("%-8d %10d %12d %12d %14.2f\n",
				pt.Shards, pt.Senders, pt.Delivered, pt.Dropped, pt.FramesPerSec/1e6)
			p := fmt.Sprintf("scaling_%d_", pt.Shards)
			metrics[p+"delivered"] = float64(pt.Delivered)
			metrics[p+"dropped"] = float64(pt.Dropped)
			metrics[p+"fps"] = pt.FramesPerSec
		}
		fmt.Printf("scaling ratio 4/1 shards: %.2fx, 8/1 shards: %.2fx (host has %d cores)\n",
			res.ScalingRatio(4, 1), res.ScalingRatio(8, 1), runtime.GOMAXPROCS(0))
		metrics["scaling_ratio_4_over_1"] = res.ScalingRatio(4, 1)
		metrics["scaling_ratio_8_over_1"] = res.ScalingRatio(8, 1)
	}
	ns := res.Netsim
	fmt.Printf("netsim: %d senders x %d samples into a 4-shard subscriber, %d delivered, %d packets %d bytes on the wire\n",
		ns.Senders, ns.Samples, ns.Delivered, ns.WirePackets, ns.WireBytes)
	metrics["netsim_senders"] = float64(ns.Senders)
	metrics["netsim_samples"] = float64(ns.Samples)
	metrics["netsim_delivered"] = float64(ns.Delivered)
	metrics["netsim_wire_packets"] = float64(ns.WirePackets)
	metrics["netsim_wire_bytes"] = float64(ns.WireBytes)
	out := make(map[string]any, len(metrics))
	for k, v := range metrics {
		out[k] = v
	}
	return out, res.MetricsText, nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
