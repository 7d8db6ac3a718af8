package uavmw

// BenchmarkExperiment puts every entry of the experiment table (README
// "Benchmarks and experiments") in testing.B, so regressions surface in
// ordinary `go test -bench=.` runs; the full-size sweeps are printed by
// cmd/uavbench. The other benchmarks here measure single layers that are
// not scenarios: the codec (E6), the inline scheduler ablation (E8), the
// validity cache (E10), the payload substrate and the end-to-end wire path.

import (
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

// BenchmarkExperiment/<name> runs one table entry per iteration, the way
// uavbench -quick does (virtual clock for the simulation-backed ones), and
// reports every figure of its last report under its flat metric key.
func BenchmarkExperiment(b *testing.B) {
	for _, exp := range experiments.All() {
		b.Run(exp.Name, func(b *testing.B) {
			var rep *experiments.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, _, err = exp.Run(true /* quick */, false /* virtual clock */); err != nil {
					b.Fatal(err)
				}
			}
			for key, v := range rep.Flatten() {
				b.ReportMetric(v, key)
			}
		})
	}
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
	sub, err := node.Variables().Subscribe("b.pos", typ, variables.SubscribeOptions{})
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
