package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/naming"
	"uavmw/internal/netsim"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// E15 quantifies the zero-allocation wire path: the pooled
// encode→egress→transport→decode pipeline.
//
// Three phases:
//
//   - codec: exact allocs/frame (testing.AllocsPerRun — deterministic) and
//     report-only frames/s for the pooled round trip (bufpool +
//     AppendFrame + DecodeFrameInto + frame pool) at a small payload, an
//     MTU-filling payload, and a 16-frame coalesced batch.
//   - netsim: N telemetry samples between two containers over a simulated
//     link under the injected clock — deterministic delivered counts and
//     bytes-per-sample on the wire, exercising the full middleware stack.
//   - udp (optional, report-only): the same frames over real UDP loopback,
//     one syscall per datagram vs sendmmsg batching through
//     transport.BatchSender. Wall-clock rates, host-dependent; skipped
//     gracefully where loopback sockets are unavailable.
type E15Result struct {
	Codec  []E15CodecPoint
	Netsim E15NetsimResult
	UDP    []E15UDPPoint
	// UDPSkipped carries the reason when the loopback phase did not run.
	UDPSkipped string
	// MetricsText is the netsim publisher node's observability snapshot.
	MetricsText string
}

// E15CodecPoint is one payload-size point of the codec phase.
// Allocs and rates are normalized per frame (the batch point moves 16 per
// operation).
type E15CodecPoint struct {
	Name              string
	WireBytesPerFrame float64

	PooledAllocsPerFrame float64
	// PooledFramesPerSec is host wall-clock: printed, never asserted.
	PooledFramesPerSec float64
}

// E15NetsimResult is the deterministic end-to-end phase.
type E15NetsimResult struct {
	Samples   int
	Delivered int
	// WirePackets / WireBytes cover the publish window (discovery
	// heartbeats included — they are part of steady-state cost).
	WirePackets, WireBytes uint64
	BytesPerSample         float64
}

// E15UDPPoint is one loopback measurement. FramesPerSec/MBPerSec are
// send-side syscall throughput — the cost sendmmsg batching amortizes; an
// unpaced loopback flood overruns the receive socket buffer, so Delivered
// reports how much of it the reader kept up with, not the wire capacity.
type E15UDPPoint struct {
	Mode         string // "sequential" or "batched"
	PayloadBytes int
	Sent         int
	Delivered    int
	FramesPerSec float64
	MBPerSec     float64
}

const (
	e15BatchWidth   = 16
	e15UDPBatchRun  = 32
	e15SmallPayload = 64
)

// e15Frame builds the canonical test frame for one payload size.
func e15Frame(payload []byte) *protocol.Frame {
	return &protocol.Frame{
		Type:     protocol.MTSample,
		Priority: qos.PriorityNormal,
		Channel:  "e15.telemetry/pos",
		Seq:      7,
		Payload:  payload,
	}
}

// e15MTUPayload returns the payload size at which the encoded frame fills
// protocol.DefaultMTU exactly.
func e15MTUPayload() int {
	return protocol.DefaultMTU - protocol.FrameWireSize(e15Frame(nil))
}

// RunE15 runs the sweep. samples sizes the netsim phase; includeUDP gates
// the loopback phase (baseline replays leave it off — its numbers are
// wall-clock and host-dependent).
func RunE15(clk clock.Clock, samples int, includeUDP bool, seed int64) (*E15Result, error) {
	clk = clock.Or(clk)
	res := &E15Result{}

	// Codec phase first: no nodes or simulated networks exist yet, so
	// AllocsPerRun sees only the measured path.
	res.Codec = append(res.Codec,
		e15CodecPoint("small", e15SmallPayload),
		e15CodecPoint("mtu", e15MTUPayload()),
		e15BatchPoint())

	if err := e15Netsim(clk, res, samples, seed); err != nil {
		return nil, fmt.Errorf("e15 netsim: %w", err)
	}

	if includeUDP {
		if err := e15UDP(res); err != nil {
			// Loopback sockets can be unavailable (sandboxes, exotic
			// CI); the phase is report-only, so record and move on.
			res.UDPSkipped = err.Error()
			res.UDP = nil
		}
	} else {
		res.UDPSkipped = "disabled"
	}
	return res, nil
}

// e15CodecPoint measures one single-frame payload size.
func e15CodecPoint(name string, payload int) E15CodecPoint {
	src := e15Frame(make([]byte, payload))
	wire := protocol.FrameWireSize(src)

	pooled := func() {
		buf, err := protocol.AppendFrame(bufpool.Get(wire), src)
		if err != nil {
			panic(err)
		}
		f := protocol.GetFrame()
		if err := protocol.DecodeFrameInto(f, buf); err != nil {
			panic(err)
		}
		protocol.PutFrame(f)
		bufpool.Put(buf)
	}
	pt := E15CodecPoint{Name: name, WireBytesPerFrame: float64(wire)}
	pt.PooledAllocsPerFrame, pt.PooledFramesPerSec = e15Measure(pooled, 1)
	return pt
}

// e15BatchPoint measures the coalesced path: 16 small frames appended into
// one pooled wire buffer (the egress drain shape) and split back out.
func e15BatchPoint() E15CodecPoint {
	frames := make([][]byte, e15BatchWidth)
	size := protocol.BatchOverhead(e15BatchWidth)
	for i := range frames {
		raw, err := protocol.EncodeFrame(e15Frame(make([]byte, e15SmallPayload)))
		if err != nil {
			panic(err)
		}
		frames[i] = raw
		size += len(raw)
	}
	pooled := func() {
		buf, err := protocol.AppendBatch(bufpool.Get(size), frames, qos.PriorityNormal)
		if err != nil {
			panic(err)
		}
		outer := protocol.GetFrame()
		if err := protocol.DecodeFrameInto(outer, buf); err != nil {
			panic(err)
		}
		// DecodeBatch's entry slice is the remaining per-batch (not
		// per-frame) allocation on the receive side.
		inner, err := protocol.DecodeBatch(outer.Payload)
		if err != nil {
			panic(err)
		}
		f := protocol.GetFrame()
		for _, raw := range inner {
			if err := protocol.DecodeFrameInto(f, raw); err != nil {
				panic(err)
			}
		}
		protocol.PutFrame(f)
		protocol.PutFrame(outer)
		bufpool.Put(buf)
	}
	pt := E15CodecPoint{Name: "batch", WireBytesPerFrame: float64(size) / e15BatchWidth}
	pt.PooledAllocsPerFrame, pt.PooledFramesPerSec = e15Measure(pooled, e15BatchWidth)
	return pt
}

// e15Measure returns (allocs/frame, frames/s) for op, which processes
// framesPerOp frames. Alloc counts come from testing.AllocsPerRun and are
// exact for a deterministic op; the rate is wall-clock.
func e15Measure(op func(), framesPerOp int) (allocsPerFrame, framesPerSec float64) {
	// Warm pools and intern tables out of the measurement.
	for i := 0; i < 8; i++ {
		op()
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(200, op)

	const minOps, minDur = 2000, 20 * time.Millisecond
	ops := 0
	start := time.Now()
	for elapsed := time.Duration(0); ops < minOps || elapsed < minDur; {
		for i := 0; i < 500; i++ {
			op()
		}
		ops += 500
		elapsed = time.Since(start)
	}
	rate := float64(ops*framesPerOp) / time.Since(start).Seconds()
	return allocs / float64(framesPerOp), rate
}

// e15Netsim publishes `samples` telemetry samples UAV→GS over a simulated
// link and counts deliveries and wire cost. Deterministic under the
// virtual clock for a given seed.
func e15Netsim(clk clock.Clock, res *E15Result, samples int, seed int64) error {
	net := netsim.New(netsim.Config{Seed: seed, Latency: 2 * time.Millisecond, Clock: clk})
	defer net.Close()

	uav, err := simNode(clk, net, "uav", core.WithAnnouncePeriod(100*time.Millisecond))
	if err != nil {
		return err
	}
	defer func() { _ = uav.Close() }()
	gs, err := simNode(clk, net, "gs", core.WithAnnouncePeriod(100*time.Millisecond))
	if err != nil {
		return err
	}
	defer func() { _ = gs.Close() }()

	typ := presentation.Uint32()
	pub, err := uav.Variables().Offer("e15.pos", "bench", typ, qos.VariableQoS{Validity: time.Hour})
	if err != nil {
		return err
	}
	if err := waitProviders(clk, gs, naming.KindVariable, "e15.pos", 1, 5*time.Second); err != nil {
		return err
	}
	var delivered atomic.Int64
	sub, err := gs.Variables().Subscribe("e15.pos", typ, variables.SubscribeOptions{
		OnSample: func(any, time.Time) { delivered.Add(1) },
	})
	if err != nil {
		return err
	}
	defer sub.Close()

	// Wait for the group subscription to land (first sample observed).
	deadline := clk.Now().Add(5 * time.Second)
	for delivered.Load() == 0 {
		if clk.Now().After(deadline) {
			return fmt.Errorf("subscriber never received a sample")
		}
		if err := pub.Publish(uint32(0)); err != nil {
			return err
		}
		clk.Sleep(5 * time.Millisecond)
	}

	startPkts, startBytes, _ := net.WireStats()
	before := delivered.Load()
	for i := 0; i < samples; i++ {
		if err := pub.Publish(uint32(i + 1)); err != nil {
			return err
		}
		clk.Sleep(2 * time.Millisecond)
	}
	deadline = clk.Now().Add(5 * time.Second)
	for delivered.Load()-before < int64(samples) && clk.Now().Before(deadline) {
		clk.Sleep(5 * time.Millisecond)
	}
	pkts, bytes, _ := net.WireStats()

	res.Netsim = E15NetsimResult{
		Samples:     samples,
		Delivered:   int(delivered.Load() - before),
		WirePackets: pkts - startPkts,
		WireBytes:   bytes - startBytes,
	}
	if res.Netsim.Delivered > 0 {
		res.Netsim.BytesPerSample = float64(res.Netsim.WireBytes) / float64(res.Netsim.Delivered)
	}
	res.MetricsText = uav.MetricsSnapshot().Text()
	return nil
}

// e15UDP pushes pre-encoded frames across real loopback sockets, one
// datagram per syscall and then in sendmmsg runs via transport.BatchSender.
func e15UDP(res *E15Result) error {
	recv, err := transport.NewUDP("e15-rx", "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer func() { _ = recv.Close() }()
	send, err := transport.NewUDP("e15-tx", "127.0.0.1:0",
		map[transport.NodeID]string{"e15-rx": recv.LocalAddr()})
	if err != nil {
		return err
	}
	defer func() { _ = send.Close() }()

	var got atomic.Int64
	recv.SetHandler(func(transport.Packet) { got.Add(1) })

	for _, size := range []int{e15SmallPayload, e15MTUPayload()} {
		raw, err := protocol.EncodeFrame(e15Frame(make([]byte, size)))
		if err != nil {
			return err
		}
		n := 20000
		if size > 1000 {
			n = 5000
		}
		seq, err := e15UDPRun(&got, "sequential", raw, n, func(count int) error {
			for i := 0; i < count; i++ {
				if err := send.Send("e15-rx", raw); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		bs, ok := transport.Transport(send).(transport.BatchSender)
		if !ok {
			return fmt.Errorf("udp transport is not a BatchSender")
		}
		msgs := make([]transport.BatchMessage, e15UDPBatchRun)
		for i := range msgs {
			msgs[i] = transport.BatchMessage{To: "e15-rx", Payload: raw}
		}
		bat, err := e15UDPRun(&got, "batched", raw, n, func(count int) error {
			for done := 0; done < count; done += len(msgs) {
				run := msgs
				if rem := count - done; rem < len(run) {
					run = run[:rem]
				}
				if err := bs.SendBatch(run); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.UDP = append(res.UDP, seq, bat)
	}
	return nil
}

// e15UDPRun times one loopback push and drains the receive side. Loopback
// is still lossy under burst (socket buffers), so Delivered ≤ Sent; rates
// are computed over frames actually delivered, up to the last arrival.
func e15UDPRun(got *atomic.Int64, mode string, raw []byte, n int, push func(int) error) (E15UDPPoint, error) {
	start := got.Load()
	t0 := time.Now()
	if err := push(n); err != nil {
		return E15UDPPoint{}, err
	}
	pushed := time.Since(t0).Seconds()
	// Drain: wait until arrivals go quiet before the next run reuses the
	// shared counter.
	last := got.Load()
	for settle := 0; settle < 10; {
		time.Sleep(5 * time.Millisecond)
		if now := got.Load(); now != last {
			last, settle = now, 0
			continue
		}
		settle++
	}
	pt := E15UDPPoint{
		Mode: mode, PayloadBytes: len(raw), Sent: n,
		Delivered: int(got.Load() - start),
	}
	if pushed > 0 {
		pt.FramesPerSec = float64(n) / pushed
		pt.MBPerSec = float64(n*len(raw)) / pushed / (1 << 20)
	}
	return pt, nil
}
