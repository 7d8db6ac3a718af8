package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/ingress"
	"uavmw/internal/naming"
	"uavmw/internal/netsim"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// E17 quantifies the sharded receive pipeline: multi-sender ingest
// throughput against shard count, and the zero-allocation contract on the
// routed-frame path.
//
// Three phases:
//
//   - alloc: exact allocs per routed frame (testing.AllocsPerRun) through a
//     full container on a real clock — transport handler → ingress enqueue →
//     shard worker → decode → dispatch — for the zero-copy Owner handoff,
//     the pooled-copy fallback, and the ack-required path (dedup + pooled
//     ack encode + egress). All three pin at zero. The real clock matters:
//     the virtual clock's trigger park allocates a waiter per wake, which
//     is simulation bookkeeping, not wire-path cost.
//   - scaling: eight senders flood one container through the bearer handler
//     at 1/2/4/8 ingress shards; delivered frames/s is the drain-side
//     throughput (drop-oldest sheds the overrun, so producers never
//     block). Sender identities are chosen to spread evenly at every shard
//     count. Wall-clock, host-dependent.
//   - netsim: four publisher containers feed one four-shard subscriber over
//     a simulated network under the injected clock — deterministic
//     delivered counts through the full middleware stack.
type E17Result struct {
	Alloc   E17AllocResult
	Scaling []E17ScalingPoint
	Netsim  E17NetsimResult
	// MetricsText is the netsim subscriber's observability snapshot (the
	// ingress.* families included).
	MetricsText string
}

// E17AllocResult is the exact allocation count per routed frame for each
// receive-path variant.
type E17AllocResult struct {
	// OwnedPerFrame: the transport provided a refcounted buffer (UDP, bus)
	// and the pipeline retained it — the zero-copy handoff.
	OwnedPerFrame float64
	// CopyPerFrame: no Owner (netsim, stream) — one pooled copy, still no
	// GC allocation.
	CopyPerFrame float64
	// AckedPerFrame: FlagAckRequired adds dedup, pooled ack encode and an
	// egress enqueue to the owned path.
	AckedPerFrame float64
}

// E17ScalingPoint is one shard count of the multi-sender ingest sweep.
type E17ScalingPoint struct {
	Shards    int
	Senders   int
	Delivered uint64
	Dropped   uint64
	// FramesPerSec is delivered frames per wall second — drain throughput.
	FramesPerSec float64
}

// E17NetsimResult is the deterministic end-to-end phase.
type E17NetsimResult struct {
	Senders   int
	Samples   int // per sender
	Delivered int
	// WirePackets / WireBytes cover the publish window.
	WirePackets, WireBytes uint64
}

// RunE17 runs the sweep. samples sizes the netsim phase (per sender);
// scalingDur is the flood window per shard count (0 skips the wall-clock
// scaling phase); clk drives only the netsim phase — the alloc and scaling
// phases construct their own real-clock containers.
func RunE17(clk clock.Clock, samples int, scalingDur time.Duration, seed int64) (*E17Result, error) {
	clk = clock.Or(clk)
	res := &E17Result{}
	if err := e17Alloc(res); err != nil {
		return nil, fmt.Errorf("e17 alloc: %w", err)
	}
	if scalingDur > 0 {
		for _, shards := range []int{1, 2, 4, 8} {
			pt, err := e17ScalingPoint(shards, scalingDur)
			if err != nil {
				return nil, fmt.Errorf("e17 scaling %d shards: %w", shards, err)
			}
			res.Scaling = append(res.Scaling, pt)
		}
	}
	if err := e17Netsim(clk, res, samples, seed); err != nil {
		return nil, fmt.Errorf("e17 netsim: %w", err)
	}
	return res, nil
}

// ScalingRatio returns frames/s at `num` shards over frames/s at `den`
// shards (0 when either point is missing or empty).
func (r *E17Result) ScalingRatio(num, den int) float64 {
	var n, d float64
	for _, pt := range r.Scaling {
		if pt.Shards == num {
			n = pt.FramesPerSec
		}
		if pt.Shards == den {
			d = pt.FramesPerSec
		}
	}
	if d == 0 {
		return 0
	}
	return n / d
}

// e17Bearer is a minimal datagram bearer: it records the container's
// receive handler so the harness can inject packets exactly as a NIC
// dispatch loop would, and discards egress output (the measured path is
// receive-side). Group membership and addressing are irrelevant to it.
type e17Bearer struct {
	id transport.NodeID
	mu sync.Mutex
	h  transport.Handler
}

func (b *e17Bearer) Node() transport.NodeID              { return b.id }
func (b *e17Bearer) Send(transport.NodeID, []byte) error { return nil }
func (b *e17Bearer) SendGroup(string, []byte) error      { return nil }
func (b *e17Bearer) Join(string) error                   { return nil }
func (b *e17Bearer) Leave(string) error                  { return nil }
func (b *e17Bearer) Stats() transport.Stats              { return transport.Stats{} }
func (b *e17Bearer) Close() error                        { return nil }

func (b *e17Bearer) SetHandler(h transport.Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.h = h
}

func (b *e17Bearer) handler() transport.Handler {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.h
}

// e17Node builds a quiet container for ingest measurement: real clock, no
// peers, discovery ticking once an hour so nothing fires during a
// measurement window.
func e17Node(id transport.NodeID, shards int) (*core.Node, *e17Bearer, error) {
	bearer := &e17Bearer{id: id}
	node, err := core.NewNode(
		core.WithDatagram(bearer),
		core.WithAnnouncePeriod(time.Hour),
		core.WithIngressShards(shards),
	)
	if err != nil {
		return nil, nil, err
	}
	if bearer.handler() == nil {
		_ = node.Close()
		return nil, nil, fmt.Errorf("node installed no receive handler")
	}
	return node, bearer, nil
}

// e17Frame encodes the canonical ingest frame: a type the dispatcher
// decodes, dedups and drops at the routing switch, so the measurement is
// pure receive machinery with no engine behind it.
func e17Frame(flags uint8, seq uint64, payload int) []byte {
	raw, err := protocol.EncodeFrame(&protocol.Frame{
		Type:     protocol.MTFileCancel,
		Flags:    flags,
		Seq:      seq,
		Priority: qos.PriorityNormal,
		Channel:  "e17.ingest",
		Payload:  make([]byte, payload),
	})
	if err != nil {
		panic(err)
	}
	return raw
}

// e17Alloc measures exact allocations per routed frame through the full
// container receive path.
func e17Alloc(res *E17Result) error {
	node, bearer, err := e17Node("e17-alloc", 1)
	if err != nil {
		return err
	}
	defer func() { _ = node.Close() }()
	h := bearer.handler()

	// Each op injects one packet and spins until the pipeline has
	// dispatched it, so the shard worker's decode and dispatch land inside
	// the measurement window (AllocsPerRun counts process-global mallocs).
	done := node.IngressDelivered()
	feed := func(pkt transport.Packet) {
		done++
		h(pkt)
		for node.IngressDelivered() < done {
			runtime.Gosched()
		}
	}

	raw := e17Frame(0, 7, 64)
	copyOp := func() {
		feed(transport.Packet{From: "e17-src-copy", Payload: raw})
	}
	ownedOp := func() {
		buf := append(bufpool.Get(len(raw)), raw...)
		owner := bufpool.Share(buf)
		feed(transport.Packet{From: "e17-src-owned", Payload: buf, Owner: owner})
		owner.Release()
	}
	ackSeq := uint64(0)
	ackTemplate := protocol.Frame{
		Type:     protocol.MTFileCancel,
		Flags:    protocol.FlagAckRequired,
		Priority: qos.PriorityNormal,
		Channel:  "e17.ingest",
		Payload:  make([]byte, 64),
	}
	wire := protocol.FrameWireSize(&ackTemplate)
	ackedOp := func() {
		ackSeq++
		f := ackTemplate
		f.Seq = ackSeq
		buf, err := protocol.AppendFrame(bufpool.Get(wire), &f)
		if err != nil {
			panic(err)
		}
		owner := bufpool.Share(buf)
		feed(transport.Packet{From: "e17-src-acked", Payload: buf, Owner: owner})
		owner.Release()
	}

	measure := func(op func()) float64 {
		// Warm pools, per-sender dedup windows, lane state and intern
		// tables out of the measurement.
		for i := 0; i < 64; i++ {
			op()
		}
		runtime.GC()
		return testing.AllocsPerRun(200, op)
	}
	res.Alloc.CopyPerFrame = measure(copyOp)
	res.Alloc.OwnedPerFrame = measure(ownedOp)
	res.Alloc.AckedPerFrame = measure(ackedOp)
	return nil
}

// e17Senders picks `count` source identities that hash onto distinct
// shards of an 8-way pipeline — residues 0..count-1 in order — so the
// flood spreads evenly at every shard count in the sweep (distinct mod 8
// residues cover mod 4 and mod 2 evenly too).
func e17Senders(count int) []transport.NodeID {
	ids := make([]transport.NodeID, count)
	for i, probe := 0, 0; i < count; probe++ {
		id := transport.NodeID(fmt.Sprintf("e17-sender-%d", probe))
		if ingress.ShardFor(id, 8) == i {
			ids[i] = id
			i++
		}
	}
	return ids
}

// e17ScalingPoint floods one container with 8 concurrent senders for dur
// and reports drain-side throughput.
func e17ScalingPoint(shards int, dur time.Duration) (E17ScalingPoint, error) {
	node, bearer, err := e17Node("e17-scale", shards)
	if err != nil {
		return E17ScalingPoint{}, err
	}
	defer func() { _ = node.Close() }()
	h := bearer.handler()

	senders := e17Senders(8)
	pt := E17ScalingPoint{Shards: shards, Senders: len(senders)}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, id := range senders {
		id := id
		raw := e17Frame(0, 7, 200)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkt := transport.Packet{From: id, Payload: raw}
			for !stop.Load() {
				h(pkt)
			}
		}()
	}
	start := time.Now()
	base := node.IngressDelivered()
	time.Sleep(dur)
	delivered := node.IngressDelivered() - base
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()

	pt.Delivered = delivered
	pt.Dropped = node.Metrics().SumCounters("ingress", "drops")
	pt.FramesPerSec = float64(delivered) / elapsed.Seconds()
	return pt, nil
}

// e17Netsim: four publishers feed one four-shard subscriber over a
// simulated network; deterministic under the injected clock.
func e17Netsim(clk clock.Clock, res *E17Result, samples int, seed int64) error {
	const senders = 4
	net := netsim.New(netsim.Config{Seed: seed, Latency: time.Millisecond, Clock: clk})
	defer net.Close()

	period := core.WithAnnouncePeriod(100 * time.Millisecond)
	gs, err := simNode(clk, net, "gs", period, core.WithIngressShards(4))
	if err != nil {
		return err
	}
	defer func() { _ = gs.Close() }()

	typ := presentation.Uint32()
	var delivered atomic.Int64
	pubs := make([]*variables.Publisher, senders)
	for i := 0; i < senders; i++ {
		uav, err := simNode(clk, net, transport.NodeID(fmt.Sprintf("uav%d", i)), period)
		if err != nil {
			return err
		}
		defer func() { _ = uav.Close() }()
		name := fmt.Sprintf("e17.pos%d", i)
		pubs[i], err = uav.Variables().Offer(name, "bench", typ, qos.VariableQoS{Validity: time.Hour})
		if err != nil {
			return err
		}
		if err := waitProviders(clk, gs, naming.KindVariable, name, 1, 5*time.Second); err != nil {
			return err
		}
		sub, err := gs.Variables().Subscribe(name, typ, variables.SubscribeOptions{
			OnSample: func(any, time.Time) { delivered.Add(1) },
		})
		if err != nil {
			return err
		}
		defer sub.Close()
	}

	// Warm up until every flow delivers (group subscriptions landed).
	deadline := clk.Now().Add(5 * time.Second)
	for delivered.Load() < senders {
		if clk.Now().After(deadline) {
			return fmt.Errorf("only %d/%d flows delivered a first sample", delivered.Load(), senders)
		}
		for _, p := range pubs {
			if err := p.Publish(uint32(0)); err != nil {
				return err
			}
		}
		clk.Sleep(5 * time.Millisecond)
	}

	startPkts, startBytes, _ := net.WireStats()
	before := delivered.Load()
	for i := 0; i < samples; i++ {
		for _, p := range pubs {
			if err := p.Publish(uint32(i + 1)); err != nil {
				return err
			}
		}
		clk.Sleep(2 * time.Millisecond)
	}
	deadline = clk.Now().Add(5 * time.Second)
	for delivered.Load()-before < int64(samples*senders) && clk.Now().Before(deadline) {
		clk.Sleep(5 * time.Millisecond)
	}
	pkts, bytes, _ := net.WireStats()

	res.Netsim = E17NetsimResult{
		Senders:     senders,
		Samples:     samples,
		Delivered:   int(delivered.Load() - before),
		WirePackets: pkts - startPkts,
		WireBytes:   bytes - startBytes,
	}
	res.MetricsText = gs.MetricsSnapshot().Text()
	return nil
}
