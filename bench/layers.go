package main

import "strings"

// stagePairs are the isolated stages reported as both "<name>_ns" and
// "<name>_allocs" per item; stageNS are reported as time only (a hand-off
// or a table probe has no allocation story).
var stagePairs = []string{
	"presentation.coerce", "presentation.deepcopy",
	"encoding.marshal", "encoding.unmarshal", "encoding.codec_encode", "encoding.codec_decode",
	"protocol.frame_append", "protocol.frame_decode", "protocol.frame_legacy_encode",
	"protocol.batch_append", "protocol.arq_send_ack",
	"egress.enqueue_drain",
	"transport.bus_send_deliver", "transport.udp_send_deliver",
	"ingress.enqueue_deliver",
	"scheduler.submit_run",
	"variables.publish", "variables.handle_sample",
	"events.publish", "events.handle_event",
	"rpc.call_loopback",
	"core.send_group", "core.send_reliable",
}

var stageNS = []string{
	"protocol.dedup_seen_ns", "bufpool.get_put_ns",
	"egress.handoff_ns", "transport.udp_handoff_ns", "ingress.handoff_ns", "scheduler.handoff_ns",
}

// inSituNames are the figures of the repetitions themselves (measure.go,
// insitu.go) and the two ledger-level ones.
var inSituNames = []string{
	"e2e.ops_per_s", "e2e.lat_p50_us", "e2e.cpu_us_per_op", "e2e.failed_share",
	"e2e.lat_p90_us", "e2e.lat_p99_us", "e2e.lat_max_us", "e2e.lat_samples", "e2e.gen_late_p99_us",
	"engine.call_p50_us",
	"encoding.marshal_busy_us_per_op", "encoding.unmarshal_busy_us_per_op",
	"egress.residence_p50_us", "egress.frames_per_datagram", "egress.dropped_per_op",
	"transport.send_busy_us_per_op", "transport.wire_packets_per_op", "transport.dropped",
	"ingress.residence_p50_us", "ingress.batch_frames_mean", "ingress.drops",
	"scheduler.wait_p50_us", "scheduler.wait_p99_us", "scheduler.run_busy_us_per_op",
	"protocol.arq_sent_per_op", "protocol.arq_retransmits_per_op", "protocol.arq_failed",
	"filetransfer.rounds_per_fetch",
	"runtime.gc_pause_us_per_kop", "host.steal_share",
	"trace.overhead_share", "ledger.attributed_share",
}

// layerNames is every per-layer metric, in report order: the per_layer
// list of BENCHMARK.json.
var layerNames = func() []string {
	names := append([]string(nil), inSituNames...)
	for _, s := range stagePairs {
		names = append(names, s+"_ns", s+"_allocs")
	}
	return append(names, stageNS...)
}()

// layerUnits derives a per-layer metric's unit from its name's suffix.
func layerUnits(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_op"), strings.HasSuffix(name, "_us_per_kop"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.HasSuffix(name, "_allocs"):
		return "1"
	default:
		return "count"
	}
}

// higherIsBetter lists the per-layer metrics where more is better; every
// other one is better lower. Per-layer metrics carry no bound; the
// direction only tells a reader which way an optimisation should move it.
var higherIsBetter = map[string]bool{
	"e2e.ops_per_s":              true,
	"e2e.lat_samples":            true,
	"egress.frames_per_datagram": true,
	"ingress.batch_frames_mean":  true,
	"ledger.attributed_share":    true,
}
