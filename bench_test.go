package uavmw

// One benchmark per experiment in README "Benchmarks and experiments".
// Each wraps a single point of the corresponding uavbench sweep in
// testing.B so regressions surface in ordinary `go test -bench=.` runs; the
// full parameter sweeps (loss rates, subscriber counts, file sizes) are
// printed by cmd/uavbench.

import (
	"fmt"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/experiments"
	"uavmw/internal/flightsim"
	"uavmw/internal/imaging"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/scheduler"
	"uavmw/internal/services"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// BenchmarkE1_EventVsRPC reports median one-way notification latency for
// the event primitive and its remote-invocation equivalent (§4.3 claim:
// "events seem faster than their function equivalent").
func BenchmarkE1_EventVsRPC(b *testing.B) {
	res, err := experiments.RunE1(max(b.N, 100), 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Event.Percentile(50).Nanoseconds()), "event-p50-ns")
	b.ReportMetric(float64(res.RPC.Percentile(50).Nanoseconds()), "rpc-p50-ns")
	b.ReportMetric(float64(res.RPC.Percentile(50))/float64(res.Event.Percentile(50)), "rpc/event")
}

// BenchmarkE2_EventARQvsTCP compares per-message ARQ with a TCP-like
// in-order stream at 5% loss (§4.2 claim).
func BenchmarkE2_EventARQvsTCP(b *testing.B) {
	res, err := experiments.RunE2(200, 0.05, 64, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.ARQTotal.Milliseconds()), "arq-total-ms")
	b.ReportMetric(float64(res.GBNTotal.Milliseconds()), "gbn-total-ms")
	b.ReportMetric(float64(res.GBNPerMsg.Percentile(99))/float64(res.ARQPerMsg.Percentile(99)), "gbn/arq-p99")
}

// BenchmarkE3_MulticastBandwidth reports bytes-on-wire per delivered event
// occurrence for group-addressed multicast vs unicast ARQ fan-out at
// 2/8/32 subscribers (§4.1 claim applied to the §4.2 event primitive):
// multicast sends each payload once per group instead of once per
// subscriber.
func BenchmarkE3_MulticastBandwidth(b *testing.B) {
	for _, subs := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			res, err := experiments.RunE3(nil, subs, 100)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.McastBytes), "mcast-bytes")
			b.ReportMetric(float64(res.UcastBytes), "ucast-bytes")
			b.ReportMetric(float64(res.UcastBytes)/float64(res.McastBytes), "saving-x")
		})
	}
}

// BenchmarkE4_MFTPvsEventTransfer distributes 256 KB to 4 receivers at 2%
// loss through the file primitive and through chunked events (§4.4 claim).
func BenchmarkE4_MFTPvsEventTransfer(b *testing.B) {
	res, err := experiments.RunE4(256<<10, 4, 0.02, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.MFTPTime.Milliseconds()), "mftp-ms")
	b.ReportMetric(float64(res.EventsTime.Milliseconds()), "events-ms")
	b.ReportMetric(float64(res.EventsTime)/float64(res.MFTPTime), "speedup-x")
}

// BenchmarkE5_LocalBypass measures same-container vs networked access for
// a 1 MB file resource and for variable delivery (§4.4 bypass, figure F2).
func BenchmarkE5_LocalBypass(b *testing.B) {
	res, err := experiments.RunE5(1<<20, max(b.N, 50))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.LocalFetch.Microseconds()), "local-fetch-us")
	b.ReportMetric(float64(res.RemoteFetch.Microseconds()), "remote-fetch-us")
	b.ReportMetric(float64(res.LocalVar.Nanoseconds()), "local-var-ns")
	b.ReportMetric(float64(res.RemoteVar.Nanoseconds()), "remote-var-ns")
}

// BenchmarkE6_EncodingCodec measures the PEPt encoding layer on the
// telemetry payload: the one encode walk into a fresh slice (Marshal) and
// into a reused writer (Codec.Encode), the one decode walk, and the debug
// encoding (F4 pluggability; §6 efficiency focus).
func BenchmarkE6_EncodingCodec(b *testing.B) {
	typ := services.TypePosition
	val := services.PositionValue(flightStateForBench())
	codec, err := encoding.Compile(typ)
	if err != nil {
		b.Fatal(err)
	}
	data, err := codec.Marshal(val)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encoding.Marshal(typ, val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append-reused", func(b *testing.B) {
		b.ReportAllocs()
		w := encoding.NewWriter(64)
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := codec.Encode(w, val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.Unmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("debug-marshal", func(b *testing.B) {
		b.ReportAllocs()
		enc := encoding.Debug{}
		for i := 0; i < b.N; i++ {
			if _, err := enc.Marshal(typ, val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func flightStateForBench() flightsim.State {
	return flightsim.State{
		Lat: 41.275, Lon: 1.987, AltM: 120, HeadingDeg: 270, SpeedMS: 25, Waypoint: 2,
	}
}

// BenchmarkE7_FailoverRedirect measures redirection latency after the
// pinned provider dies, at a 100 ms failure deadline (§4.3).
func BenchmarkE7_FailoverRedirect(b *testing.B) {
	res, err := experiments.RunE7(100 * time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Redirect.Milliseconds()), "redirect-ms")
	b.ReportMetric(float64(res.CallsFailed), "failed-calls")
}

// BenchmarkE11_RPCHedgedFailover runs 8 concurrent callers against a
// statically-pinned provider that stalls past the 250ms QoS deadline, at
// 2% loss. Hedged calls must complete within the deadline via the
// redundant provider; the unhedged baseline burns the whole budget and
// fails (§4.3 bounded-latency redirection).
func BenchmarkE11_RPCHedgedFailover(b *testing.B) {
	unhedged, err := experiments.RunE11(nil, 8, 10, false, 0.02, 400*time.Millisecond, 11)
	if err != nil {
		b.Fatal(err)
	}
	hedged, err := experiments.RunE11(nil, 8, 10, true, 0.02, 400*time.Millisecond, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(unhedged.OK), "unhedged-ok")
	b.ReportMetric(float64(hedged.OK), "hedged-ok")
	b.ReportMetric(hedged.Throughput, "hedged-calls/s")
	b.ReportMetric(float64(hedged.Latency.Percentile(99).Milliseconds()), "hedged-p99-ms")
}

// BenchmarkE12_DiscoveryWireCost measures steady-state discovery bytes per
// announce period for 16 nodes × 100 records under the incremental plane
// (constant-size digests + registration deltas) against the old full-state
// re-broadcast, plus the latency from a new offer to fleet-wide
// resolvability (§3 name management at scale).
func BenchmarkE12_DiscoveryWireCost(b *testing.B) {
	res, err := experiments.RunE12(nil, 16, 100, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.SteadyBytesPerPeriod, "steady-B/period")
	b.ReportMetric(res.BaselineBytesPerPeriod, "fullstate-B/period")
	b.ReportMetric(res.BaselineBytesPerPeriod/res.SteadyBytesPerPeriod, "saving-x")
	b.ReportMetric(float64(res.Converge.Microseconds()), "converge-us")
}

// BenchmarkE13_EgressPriorityInversion runs a 96KB bulk transfer to a
// ground station over a simulated 1 Mb/s air-to-ground link while 50Hz
// PriorityCritical alarms flow. Unshaped (flood) bulk queues seconds of
// chunks ahead of every alarm at the link; the egress plane (strict
// priority lanes + paced bulk) keeps alarm p99 near the unloaded baseline
// while bulk stays near line rate.
func BenchmarkE13_EgressPriorityInversion(b *testing.B) {
	res, err := experiments.RunE13(nil, 96*1024, 125_000, 50, 13)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Unloaded.Percentile(99).Microseconds()), "unloaded-p99-us")
	b.ReportMetric(float64(res.Flood.Percentile(99).Microseconds()), "flood-p99-us")
	b.ReportMetric(float64(res.Shaped.Percentile(99).Microseconds()), "shaped-p99-us")
	b.ReportMetric(res.ShapedGoodput/1024, "shaped-KB/s")
	b.ReportMetric(100*res.ShapedGoodput/125_000, "shaped-line-%")
}

// BenchmarkE8_SchedulerPriority loads the fixed-priority pool and reports
// p99 queue latency for the critical and bulk classes (§6 soft real time).
func BenchmarkE8_SchedulerPriority(b *testing.B) {
	res, err := experiments.RunE8(4, 2000, 100, 50*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Priorities[qos.PriorityCritical].Percentile(99).Microseconds()), "critical-p99-us")
	b.ReportMetric(float64(res.Priorities[qos.PriorityBulk].Percentile(99).Microseconds()), "bulk-p99-us")
}

// BenchmarkE8_InlineSchedulerBaseline is the F4 ablation partner: the
// pass-through scheduler has no queueing at all (and no isolation).
func BenchmarkE8_InlineSchedulerBaseline(b *testing.B) {
	s := scheduler.NewInline()
	defer s.Stop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Submit(qos.PriorityNormal, func() {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_Figure3Mission runs the full §5 mission per iteration on the
// in-process bus: 4 containers, 6 services, 4 photo sites.
func BenchmarkE9_Figure3Mission(b *testing.B) {
	plan := flightsim.SurveyPlan("bench", 41.2750, 1.9870, 2, 600, 200, 120, 25)
	for i := 0; i < b.N; i++ {
		bus := transport.NewBus()
		res, err := services.RunMission(services.MissionConfig{
			Plan: plan,
			Transports: func(id transport.NodeID) (transport.Transport, error) {
				return bus.Endpoint(id)
			},
			TimeScale:  80,
			SampleRate: 15 * time.Millisecond,
			Timeout:    2 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Photos != 4 {
			b.Fatalf("photos = %d", res.Photos)
		}
	}
}

// BenchmarkE10_ValidityCache measures serving a cached variable value
// (the §4.1 stale-value path) against a fresh decode of the same sample.
func BenchmarkE10_ValidityCache(b *testing.B) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("solo")
	if err != nil {
		b.Fatal(err)
	}
	node, err := newBenchNode(ep)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = node.Close() }()

	typ := services.TypePosition
	val := services.PositionValue(flightStateForBench())
	pub, err := node.Variables().Offer("b.pos", "bench", typ, qos.VariableQoS{Validity: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	sub, err := node.Variables().Subscribe("b.pos", typ, subscribeNothing())
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	if err := pub.Publish(val); err != nil {
		b.Fatal(err)
	}

	b.Run("cached-get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sub.Get(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-per-sample", func(b *testing.B) {
		data, err := encoding.Marshal(typ, val)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encoding.Unmarshal(typ, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkF2_LocalVsRemoteDelivery measures one publish through the local
// bypass against one acknowledged cross-node publish (figure F2).
func BenchmarkF2_LocalVsRemoteDelivery(b *testing.B) {
	res, err := experiments.RunE5(4096, max(b.N, 50))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.LocalVar.Nanoseconds()), "local-ns")
	b.ReportMetric(float64(res.RemoteVar.Nanoseconds()), "remote-ns")
}

// BenchmarkImagingPipeline measures the payload substrate: synthetic frame
// generation, PNG round trip and blob detection at the mission's default
// geometry (supporting workload for E9).
func BenchmarkImagingPipeline(b *testing.B) {
	spec := imaging.FrameSpec{Width: 640, Height: 480, TargetCount: 2, NoiseLevel: 40, Seed: 3}
	img, _, err := imaging.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	data, err := imaging.EncodePNG(img)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := imaging.Generate(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("detect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imaging.DetectBlobs(img, 150, 9)
		}
	})
	b.Run("png-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := imaging.DecodePNG(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPresentationCoerce measures the presentation layer's value
// coercion on the telemetry struct (hot path of every publish).
func BenchmarkPresentationCoerce(b *testing.B) {
	typ := services.TypePosition
	val := services.PositionValue(flightStateForBench())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := presentation.Coerce(typ, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameCodec measures protocol frame encode/decode.
func BenchmarkFrameCodec(b *testing.B) {
	payload := make([]byte, 64)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeBenchFrame(payload, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	raw, err := encodeBenchFrame(payload, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeBenchFrame(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func sizedName(n int) string { return fmt.Sprintf("%d", n) }

var _ = sizedName // reserved for sweep-style sub-benchmarks

// BenchmarkWirePath measures one end-to-end telemetry publish between two
// containers on the in-process bus: the fused coerce+append value encode
// onto the pooled sample payload, pooled frame encode, egress lane drain,
// transport delivery, pooled frame decode, value decode, and sample
// dispatch on the receiver's scheduler. Run with -benchmem: the publish
// side and the wire path proper (encode → egress → transport → frame
// decode) allocate nothing, so the allocs/op reported here are the
// receiver's: the map[string]any the callback contract hands out (map plus
// boxed fields), the closure that carries it to the scheduler, and the
// scheduler hand-off itself.
func BenchmarkWirePath(b *testing.B) {
	bus := transport.NewBus()
	epA, err := bus.Endpoint("wp-a")
	if err != nil {
		b.Fatal(err)
	}
	epB, err := bus.Endpoint("wp-b")
	if err != nil {
		b.Fatal(err)
	}
	src, err := newBenchNode(epA)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	dst, err := newBenchNode(epB)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = dst.Close() }()

	typ := services.TypePosition
	val := services.PositionValue(flightStateForBench())
	pub, err := src.Variables().Offer("wp.pos", "bench", typ, qos.VariableQoS{Validity: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	received := make(chan struct{}, 1)
	sub, err := dst.Variables().Subscribe("wp.pos", typ, variables.SubscribeOptions{
		OnSample: func(any, time.Time) {
			select {
			case received <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()

	// Publish until the cross-node subscription handshake lands and the
	// first sample arrives; everything after is steady state.
	warm := time.After(5 * time.Second)
	for ready := false; !ready; {
		if err := pub.Publish(val); err != nil {
			b.Fatal(err)
		}
		select {
		case <-received:
			ready = true
		case <-warm:
			b.Fatal("wire path: subscriber never received a sample")
		case <-time.After(2 * time.Millisecond):
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(val); err != nil {
			b.Fatal(err)
		}
		<-received
	}
}

// BenchmarkE14_BearerHandover drives the multi-bearer link plane through a
// WiFi→radio handover: a 96KB transfer rides the 1 Mb/s wifi bearer while
// 50Hz critical alarms pin to the 250 kb/s radio; wifi blacks out
// mid-transfer. Reported: alarm p99 across the blackout vs unloaded, the
// handover detection time, and the bulk rate recovered on the surviving
// radio against its shaped rate.
func BenchmarkE14_BearerHandover(b *testing.B) {
	res, err := experiments.RunE14(nil, 96*1024, 400*time.Millisecond, 14)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Unloaded.Percentile(99).Microseconds()), "unloaded-p99-us")
	b.ReportMetric(float64(res.Multi.Percentile(99).Microseconds()), "loaded-p99-us")
	b.ReportMetric(float64(res.MultiLost), "alarms-lost")
	b.ReportMetric(float64(res.HandoverDetect.Milliseconds()), "handover-ms")
	b.ReportMetric(res.RecoveredBPS/1024, "recovered-KB/s")
	b.ReportMetric(100*res.RecoveredBPS/float64(res.RadioShaped), "recovered-shaped-%")
	b.ReportMetric(float64(res.SingleLost), "single-bearer-lost")
}
