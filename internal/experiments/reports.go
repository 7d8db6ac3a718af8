package experiments

import (
	"fmt"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/qos"
)

// The functions below are the table's run entries: each owns its
// experiment's full and quick parameters, runs the scenario (a sweep calls
// it once per point) and lays the result out as a Report.

// pick chooses between an experiment's quick (smoke-run) and full-size
// parameter.
func pick[T any](quick bool, quickSize, fullSize T) T {
	if quick {
		return quickSize
	}
	return fullSize
}

// byteSize prints as KB/MB and records as the byte count.
func byteSize(n int) fig {
	show := fmt.Sprintf("%dB", n)
	switch {
	case n >= 1<<20:
		show = fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		show = fmt.Sprintf("%dKB", n>>10)
	}
	return fig{num: float64(n), show: show}
}

func reportE1(_ clock.Clock, _ int64, quick bool) (*Report, error) {
	n := pick(quick, 200, 2000)
	r := &Report{}
	t := r.Table("sizes", Col{"payload", "%d", "payload"},
		Col{"event p50", "%v", "event_p50_us"}, Col{"event p99", "%v", "event_p99_us"},
		Col{"rpc p50", "%v", "rpc_p50_us"}, Col{"rpc p99", "%v", "rpc_p99_us"},
		Col{"rpc/event", "%.2fx", "rpc_over_event"})
	for _, size := range []int{16, 64, 256, 1024} {
		res, err := RunE1(n, size)
		if err != nil {
			return nil, err
		}
		event, rpc := quantile(res.Event, 0.50), quantile(res.RPC, 0.50)
		t.Row(fmt.Sprint(size), size, usec(event), usec(quantile(res.Event, 0.99)),
			usec(rpc), usec(quantile(res.RPC, 0.99)), float64(rpc)/float64(event))
	}
	return r, nil
}

func reportE2(_ clock.Clock, seed int64, quick bool) (*Report, error) {
	n := pick(quick, 100, 400)
	r := &Report{}
	t := r.Table("loss", Col{"loss", "%.2f", "loss"},
		Col{"arq total", "%v", "arq_total_ms"}, Col{"gbn total", "%v", "gbn_total_ms"},
		Col{"arq p99", "%v", "arq_p99_us"}, Col{"gbn p99", "%v", "gbn_p99_us"},
		Col{"arq retx", "%d", "arq_retx"}, Col{"gbn retx", "%d", "gbn_retx"})
	for _, loss := range []float64{0, 0.01, 0.02, 0.05, 0.10} {
		res, err := RunE2(n, loss, 64, seed)
		if err != nil {
			return nil, err
		}
		t.Row(fmt.Sprintf("%.0fpct", 100*loss), loss, msec(res.ARQTotal), msec(res.GBNTotal),
			usec(quantile(res.ARQPerMsg, 0.99)), usec(quantile(res.GBNPerMsg, 0.99)),
			res.ARQRetrans, res.GBNRetrans)
	}
	return r, nil
}

func reportE3(clk clock.Clock, seed int64, quick bool) (*Report, error) {
	samples := pick(quick, 50, 200)
	r := &Report{}
	t := r.Table("fanout", Col{"subscribers", "%d", "subscribers"},
		Col{"mcast pkts", "%d", "mcast_pkts"}, Col{"mcast KB", "%.1f", "mcast_bytes"},
		Col{"ucast pkts", "%d", "ucast_pkts"}, Col{"ucast KB", "%.1f", "ucast_bytes"},
		Col{"saving", "%.1fx", "saving"})
	for _, subs := range []int{2, 8, 32} {
		res, err := RunE3(clk, subs, samples, seed)
		if err != nil {
			return nil, err
		}
		t.Row(fmt.Sprint(subs), subs, res.McastPackets, per(res.McastBytes, 1024),
			res.UcastPackets, per(res.UcastBytes, 1024), float64(res.UcastBytes)/float64(res.McastBytes))
	}
	return r, nil
}

func reportE4(_ clock.Clock, seed int64, quick bool) (*Report, error) {
	sizes := pick(quick, []int{64 << 10, 256 << 10}, []int{64 << 10, 512 << 10, 2 << 20})
	receivers := pick(quick, []int{1, 4}, []int{1, 4, 8})
	const loss = 0.02
	r := &Report{}
	t := r.Table("matrix", Col{"size", "%s", "size"}, Col{"receivers", "%d", "receivers"}, Col{"loss", "%.2f", ""},
		Col{"mftp time", "%v", "mftp_ms"}, Col{"events time", "%v", "events_ms"},
		Col{"mftp KB", "%.0f", "mftp_wire_kb"}, Col{"events KB", "%.0f", "events_wire_kb"},
		Col{"speedup", "%.1fx", "speedup"})
	for _, size := range sizes {
		for _, recv := range receivers {
			res, err := RunE4(size, recv, loss, seed)
			if err != nil {
				return nil, err
			}
			t.Row(fmt.Sprintf("%s_%d", byteSize(size).show, recv), byteSize(size), recv, loss,
				msec(res.MFTPTime), msec(res.EventsTime), res.MFTPWireKB, res.EventsWireKB,
				float64(res.EventsTime)/float64(res.MFTPTime))
		}
	}
	return r, nil
}

func reportE5(_ clock.Clock, _ int64, quick bool) (*Report, error) {
	res, err := RunE5(1<<20, pick(quick, 200, 2000))
	if err != nil {
		return nil, err
	}
	r := &Report{}
	r.Notef("file fetch 1MB : local %10v   remote %10v   (%.0fx)",
		rec("local_fetch_us", usec(res.LocalFetch)), rec("remote_fetch_us", usec(res.RemoteFetch)),
		float64(res.RemoteFetch)/float64(res.LocalFetch))
	r.Notef("variable publish: local %10v   remote %10v   (%.0fx)",
		rec("local_var_us", usec(res.LocalVar)), rec("remote_var_us", usec(res.RemoteVar)),
		float64(res.RemoteVar)/float64(res.LocalVar))
	return r, nil
}

func reportE7(_ clock.Clock, seed int64, quick bool) (*Report, error) {
	deadlines := []time.Duration{100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second}
	deadlines = pick(quick, deadlines[:2], deadlines)
	r := &Report{}
	t := r.Table("deadline", Col{"failure deadline", "%v", "deadline_ms"},
		Col{"redirect time", "%v", "redirect_ms"}, Col{"failed calls", "%d", "failed"})
	for _, d := range deadlines {
		res, err := RunE7(d, seed)
		if err != nil {
			return nil, err
		}
		t.Row(d.String(), msec(d), msec(res.Redirect), res.CallsFailed)
	}
	return r, nil
}

func reportE8(_ clock.Clock, _ int64, quick bool) (*Report, error) {
	res, err := RunE8(4, pick(quick, 500, 5000), pick(quick, 50, 200), 50*time.Microsecond)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	t := r.Table("", Col{"priority", "%s", ""},
		Col{"p50", "%v", "p50_us"}, Col{"p99", "%v", "p99_us"}, Col{"max", "%v", "max_us"})
	levels := qos.Levels()
	for i := len(levels) - 1; i >= 0; i-- {
		h := res.Priorities[levels[i]]
		t.Row(levels[i].String(), levels[i].String(), usec(h.Percentile(50)), usec(h.Percentile(99)), usec(h.Max()))
	}
	return r, nil
}

func reportE9(_ clock.Clock, _ int64, quick bool) (*Report, error) {
	res, err := RunE9(pick(quick, 2, 3))
	if err != nil {
		return nil, err
	}
	r := &Report{}
	r.Notef("waypoints %d  photo sites %d  wall clock %v",
		rec("waypoints", res.Waypoints), res.Photos, res.Elapsed.Round(time.Millisecond))
	r.Notef("photos %d  stored %d  detections %d  gs positions %d  track %d",
		rec("photos", res.Photos), rec("stored", res.Stored), rec("detections", res.Detections),
		rec("gs_positions", res.GSPositions), rec("track_points", res.TrackPoints))
	return r, nil
}

func reportE11(clk clock.Clock, seed int64, quick bool) (*Report, error) {
	calls := pick(quick, 5, 20)
	r := &Report{}
	r.Notef("static pin lands on a provider that stalls past the 250ms deadline;")
	r.Notef("2%% loss; hedge dispatches to the redundant provider at 20%% of the deadline")
	t := r.Table("sweep", Col{"callers", "%d", "callers"}, Col{"hedged", "%v", "hedged"},
		Col{"ok", "%d", "ok"}, Col{"failed", "%d", "failed"}, Col{"thruput/s", "%.1f", "throughput"},
		Col{"p50", "%v", "p50_us"}, Col{"p99", "%v", "p99_us"},
		Col{"hedges", "%d", "hedges"}, Col{"busy", "%d", "busy_rejects"})
	for _, callers := range []int{1, 8, 64} {
		for _, hedged := range []bool{false, true} {
			res, err := RunE11(clk, callers, calls, hedged, 0.02, 400*time.Millisecond, seed)
			if err != nil {
				return nil, err
			}
			t.Row(fmt.Sprintf("%d_%s", callers, pick(hedged, "hedged", "unhedged")), callers, hedged,
				res.OK, res.Failed, res.Throughput,
				usec(res.Latency.Percentile(50)), usec(res.Latency.Percentile(99)), res.Hedges, res.BusyRej)
		}
	}
	return r, nil
}

func reportE12(clk clock.Clock, seed int64, quick bool) (*Report, error) {
	nodeCounts := pick(quick, []int{4, 16}, []int{4, 16, 64})
	recordCounts := pick(quick, []int{10, 100}, []int{10, 100, 1000})
	r := &Report{}
	r.Notef("steady state sends constant-size digests (O(nodes) bytes/period); the old")
	r.Notef("protocol re-broadcast every record every period (O(total records))")
	t := r.Table("sweep", Col{"nodes", "%d", "nodes"}, Col{"records", "%d", "records"},
		Col{"steady B/prd", "%.0f", "steady_bytes_per_period"},
		Col{"full B/prd", "%.0f", "baseline_bytes_per_period"},
		Col{"saving", "%.1fx", "saving"}, Col{"new-offer lat", "%v", "converge_us"})
	for _, nodes := range nodeCounts {
		for _, records := range recordCounts {
			res, err := RunE12(clk, nodes, records, seed)
			if err != nil {
				return nil, err
			}
			r.Snapshot = res.MetricsText
			t.Row(fmt.Sprintf("%dx%d", nodes, records), nodes, records,
				res.SteadyBytesPerPeriod, res.BaselineBytesPerPeriod,
				res.BaselineBytesPerPeriod/res.SteadyBytesPerPeriod, usec(res.Converge))
		}
	}
	churn, err := RunE12Churn(clk, pick(quick, 4, 16), pick(quick, 20, 100), 50, seed+1)
	if err != nil {
		return nil, err
	}
	r.Notef("churn: %d nodes × %d records, %d offers missed behind a partition",
		rec("churn_nodes", churn.Nodes), rec("churn_records", churn.RecordsPerNode), churn.MissedOffers)
	r.Notef("heal re-convergence %v (%d sync requests, %d heartbeats observed)",
		rec("churn_heal_converge_ms", msec(churn.HealConverge)), rec("churn_syncs", churn.SyncsUsed),
		churn.HeartbeatsAfter)
	// The 256-node fleet exists only under virtual time: its staggered
	// bootstrap paces out minutes of scenario time.
	if clk != nil && !quick {
		scale, err := RunE12Scale(clk, 256, 2, seed+2)
		if err != nil {
			return nil, err
		}
		r.Notef("scale: %d nodes boot-converged in %v; steady %.0f pkts/period; fresh offer in %v",
			rec("scale_nodes", scale.Nodes), rec("scale_boot_converge_ms", msec(scale.BootConverge)),
			rec("scale_steady_packets_per_period", scale.SteadyPacketsPerPeriod),
			rec("scale_converge_us", usec(scale.Converge)))
	}
	return r, nil
}

func reportE13(clk clock.Clock, seed int64, quick bool) (*Report, error) {
	const linkBPS, alarmHz = 125_000, 50
	fileBytes := pick(quick, 192<<10, 1<<20)
	res, err := RunE13(clk, fileBytes, linkBPS, alarmHz, seed)
	if err != nil {
		return nil, err
	}
	r := &Report{Snapshot: res.MetricsText}
	r.Notef("%dKB transfer UAV→GS over a %d B/s air-to-ground link, %dHz critical alarms",
		fileBytes/1024, linkBPS, alarmHz)
	r.Notef("flood: bulk unshaped — alarms queue behind the chunk backlog at the link")
	r.Notef("shaped: egress bulk lane paced at %.0f%% of line rate, strict-priority drain", 100*e13ShapeFraction)
	t := r.Table("", Col{"mode", "%s", ""}, Col{"alarm p50", "%v", "p50_us"}, Col{"alarm p99", "%v", "p99_us"},
		Col{"lost", "%d", "lost"}, Col{"sent", "%d", "sent"}, Col{"transfer", "%v", "transfer_ms"},
		Col{"KB/s", "%.0f", "goodput_bps"}, Col{"util", "%.0f%%", ""})
	row := func(mode string, h *metrics.Histogram, lost, sent int, transfer time.Duration, goodput float64) {
		t.Row(mode, mode, usec(h.Percentile(50)), usec(h.Percentile(99)), lost, sent,
			msec(transfer), per(goodput, 1024), 100*goodput/linkBPS)
	}
	row("unloaded", res.Unloaded, 0, int(res.Unloaded.Count()), 0, 0)
	row("flood", res.Flood, res.FloodLost, res.FloodSent, res.FloodTransfer, res.FloodGoodput)
	row("shaped", res.Shaped, res.ShapedLost, res.ShapedSent, res.ShapedTransfer, res.ShapedGoodput)
	unloaded := float64(res.Unloaded.Percentile(99))
	r.Notef("inversion: flood alarm p99 is %.0fx unloaded; shaped is %.1fx (bulk dropped by egress: %d, frames coalesced: %d)",
		float64(res.Flood.Percentile(99))/unloaded, float64(res.Shaped.Percentile(99))/unloaded,
		rec("shaped_dropped", res.ShapedDropped), rec("shaped_coalesced", res.ShapedCoalesced))
	r.Notef("ARQ: flood %d retransmissions, %d duplicates received; shaped %d, %d",
		rec("flood_retransmits", res.FloodRetransmits), rec("flood_duplicates", res.FloodDuplicates),
		rec("shaped_retransmits", res.ShapedRetransmits), rec("shaped_duplicates", res.ShapedDuplicates))
	return r, nil
}

func reportE14(clk clock.Clock, seed int64, quick bool) (*Report, error) {
	res, err := RunE14(clk, pick(quick, 96<<10, 256<<10),
		pick(quick, 400*time.Millisecond, 800*time.Millisecond), seed)
	if err != nil {
		return nil, err
	}
	r := &Report{Snapshot: res.MetricsText}
	r.Notef("%dKB transfer UAV→GS; wifi %d B/s (shaped %d) + radio %d B/s (shaped %d); %dHz critical alarms",
		res.FileBytes/1024, res.WifiBPS, res.WifiShapedBPS, res.RadioBPS, res.RadioShaped, res.AlarmHz)
	r.Notef("policy: critical pins to the robust radio, bulk rides the fat wifi; wifi blacks out %v into the transfer",
		res.BlackoutAfter)
	t := r.Table("", Col{"alarms", "%s", ""}, Col{"p50", "%v", "p50_us"}, Col{"p99", "%v", "p99_us"},
		Col{"lost", "%d", "lost"}, Col{"sent", "%d", "sent"})
	t.Row("unloaded", "unloaded", usec(res.Unloaded.Percentile(50)), usec(res.Unloaded.Percentile(99)),
		0, res.Unloaded.Count())
	t.Row("multi", "loaded+blackout", usec(res.Multi.Percentile(50)), usec(res.Multi.Percentile(99)),
		res.MultiLost, res.MultiSent)
	r.Notef("handover: wifi declared down %v after blackout; transfer completed in %v",
		rec("handover_detect_ms", msec(res.HandoverDetect)), rec("transfer_ms", msec(res.Transfer)))
	r.Notef("wire split UAV→GS: wifi %.0fKB, radio %.0fKB; bulk recovered to %.0f B/s = %.0f%% of the radio's shaped rate",
		rec("wifi_bytes", per(res.WifiBytes, 1024)), rec("radio_bytes", per(res.RadioBytes, 1024)),
		rec("recovered_bps", res.RecoveredBPS), 100*res.RecoveredBPS/float64(res.RadioShaped))
	r.Notef("single-bearer baseline: %d of %d alarms lost across a %v wifi blackout (no second link to fail to)",
		rec("single_lost", res.SingleLost), rec("single_sent", res.SingleSent),
		rec("single_blackout_sec", fig{num: res.SingleBlackout.Seconds(), show: res.SingleBlackout}))
	r.Notef("ARQ: multi-bearer %d retransmissions, %d duplicates received; single-bearer %d, %d",
		rec("multi_retransmits", res.MultiRetransmits), rec("multi_duplicates", res.MultiDuplicates),
		rec("single_retransmits", res.SingleRetransmits), rec("single_duplicates", res.SingleDuplicates))
	return r, nil
}

func reportE15(clk clock.Clock, seed int64, quick bool) (*Report, error) {
	return fanIn{name: "e15", senders: 1, latency: 2 * time.Millisecond}.report(clk, seed, pick(quick, 100, 400))
}

func reportE16(clk clock.Clock, seed int64, quick bool) (*Report, error) {
	res, err := RunE16(clk, pick(quick, []int{500, 5000}, []int{1000, 10_000, 100_000}), pick(quick, 10, 20), seed)
	if err != nil {
		return nil, err
	}
	r := &Report{Snapshot: res.MetricsText}
	t := r.Table("sweep", Col{"clients", "%d", "clients"}, Col{"samples", "%d", "samples"},
		Col{"delivered", "%d", "delivered"}, Col{"air pkts", "%d", "air_packets"},
		Col{"air KB", "%.1f", "air_bytes"}, Col{"air B/sample", "%.1f", "air_bytes_per_sample"},
		Col{"client MB", "%.2f", "client_bytes"})
	for _, pt := range res.Sweep {
		t.Row(fmt.Sprint(pt.Clients), pt.Clients, pt.Samples, pt.Delivered, pt.AirPackets,
			per(pt.AirBytes, 1024), pt.AirBytesPerSample, per(pt.ClientBytes, 1<<20))
	}
	r.Notef("air flatness (largest/smallest B/sample): %.2f — one fabric subscription feeds every audience size",
		rec("air_flatness_ratio", res.AirFlatnessRatio))
	a, s := res.Alloc, res.Slow
	r.Notef("allocs/sample: %.1f @ %d clients, %.1f @ %d clients — marginal %.4f per extra client",
		rec("alloc_small_per_sample", a.SmallPerSample), rec("alloc_small_clients", a.SmallClients),
		rec("alloc_big_per_sample", a.BigPerSample), rec("alloc_big_clients", a.BigClients),
		rec("alloc_per_client_marginal", a.PerClientMarginal))
	r.Notef("slow consumers: %d/%d stalled clients evicted; healthy p50/p99/max %.2f/%.2f/%.2fms with stalls vs p50/p99 %.2f/%.2fms clean (%d healthy, %d samples)",
		rec("slow_evicted", s.Evicted), rec("slow_stalled", s.StalledClients),
		rec("slow_stalled_p50_ms", s.StalledP50Ms), rec("slow_stalled_p99_ms", s.StalledP99Ms), rec("slow_stalled_max_ms", s.StalledMaxMs),
		rec("slow_baseline_p50_ms", s.BaselineP50Ms), rec("slow_baseline_p99_ms", s.BaselineP99Ms),
		rec("slow_healthy", s.HealthyClients), rec("slow_samples", s.Samples))
	return r, nil
}

func reportE17(clk clock.Clock, seed int64, quick bool) (*Report, error) {
	return fanIn{name: "e17", senders: 4, latency: time.Millisecond, shards: 4}.report(clk, seed, pick(quick, 80, 300))
}
