package main

import (
	"uavmw/internal/core"
	"uavmw/internal/metrics"
)

// snapshots exports every node's metric registry.
func snapshots(nodes []*core.Node) []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(nodes))
	for i, n := range nodes {
		out[i] = n.MetricsSnapshot()
	}
	return out
}

// family folds every series of one metric family, across all the nodes'
// snapshots, into its counters-and-gauges total and its histograms' count
// and sum (the ingress batch-size histogram stores frames as nanoseconds).
func family(snaps []metrics.Snapshot, component, name string) (total float64, count uint64, sum int64) {
	for _, snap := range snaps {
		for _, fam := range snap.Families {
			if fam.Component != component || fam.Name != name {
				continue
			}
			for _, s := range fam.Series {
				switch {
				case s.Counter != nil:
					total += float64(*s.Counter)
				case s.Gauge != nil:
					total += float64(*s.Gauge)
				case s.Histogram != nil:
					count += s.Histogram.Count
					sum += s.Histogram.SumNS
				}
			}
		}
	}
	return
}

// inSitu fills in the per-layer figures of one traced repetition: deltas
// of the nodes' metric snapshots (counts at the program's own boundaries)
// and the aggregates of the benchmark's decorators (time at the
// boundaries it can reach from outside).
func inSitu(out map[string]float64, tr *tracer, a, b []metrics.Snapshot, ops, packets float64, rounds uint64) {
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	delta := func(component, name string) float64 {
		after, _, _ := family(b, component, name)
		before, _, _ := family(a, component, name)
		return after - before
	}
	p50 := func(l *latencies) (float64, *latencySummary) {
		s := l.take()
		v, _ := s.percentileUS(50)
		return v, s
	}
	busy := func(ns int64) float64 { return perOp(float64(ns) / 1e3) }

	out["engine.call_p50_us"], _ = p50(tr.calls)
	out["encoding.marshal_busy_us_per_op"] = busy(tr.marshalBusy.Load())
	out["encoding.unmarshal_busy_us_per_op"] = busy(tr.unmarshalBusy.Load())

	out["egress.residence_p50_us"], _ = p50(tr.egressRes)
	if dg := delta("egress", "datagrams"); dg > 0 {
		out["egress.frames_per_datagram"] = delta("egress", "sent") / dg
	}
	out["egress.dropped_per_op"] = perOp(delta("egress", "dropped"))

	out["transport.send_busy_us_per_op"] = busy(tr.sendBusy.Load())
	out["transport.wire_packets_per_op"] = perOp(packets)
	out["transport.dropped"] = delta("transport", "packets_dropped")

	out["ingress.residence_p50_us"], _ = p50(tr.ingressRes)
	_, countA, sumA := family(a, "ingress", "batch_frames")
	_, countB, sumB := family(b, "ingress", "batch_frames")
	if n := countB - countA; n > 0 {
		out["ingress.batch_frames_mean"] = float64(sumB-sumA) / float64(n)
	}
	out["ingress.drops"] = delta("ingress", "drops")

	wait, waits := p50(tr.schedWait)
	out["scheduler.wait_p50_us"] = wait
	if v, ok := waits.percentileUS(99); ok {
		out["scheduler.wait_p99_us"] = v
	}
	out["scheduler.run_busy_us_per_op"] = busy(tr.runBusy.Load())

	out["protocol.arq_sent_per_op"] = perOp(delta("arq", "sent"))
	out["protocol.arq_retransmits_per_op"] = perOp(delta("arq", "retransmits"))
	out["protocol.arq_failed"] = delta("arq", "failed")

	out["filetransfer.rounds_per_fetch"] = perOp(float64(rounds))
}
