package core

import (
	"sync"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/ingress"
	"uavmw/internal/metrics"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// TestIngressPerSourceOrderingVirtual is the pipeline's ordering proof at
// the container level: two sources interleave publishes into a receiver
// running four ingress shards under virtual time, and each source's
// samples must arrive at the application in publish order — the per-source
// FIFO guarantee that keeps ARQ, dedup and reorder filters sound however
// many shards drain in parallel. Runs in -short so the -race -shuffle CI
// lane exercises it.
func TestIngressPerSourceOrderingVirtual(t *testing.T) {
	v := clock.NewVirtual()
	var failure string
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 7, Latency: time.Millisecond, Clock: v})
		defer net.Close()
		mk := func(id transport.NodeID, opts ...NodeOption) *Node {
			ep, err := net.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			n, err := NewNode(append([]NodeOption{
				WithClock(v),
				WithDatagram(ep),
				WithAnnouncePeriod(20 * time.Millisecond),
			}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		srcA := mk("uav-alpha")
		defer func() { _ = srcA.Close() }()
		srcB := mk("uav-bravo")
		defer func() { _ = srcB.Close() }()
		gs := mk("gs", WithIngressShards(4))
		defer func() { _ = gs.Close() }()

		typ := presentation.Uint32()
		pubA, err := srcA.Variables().Offer("ord.alpha", "t", typ, qos.VariableQoS{Validity: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		pubB, err := srcB.Variables().Offer("ord.bravo", "t", typ, qos.VariableQoS{Validity: time.Hour})
		if err != nil {
			t.Fatal(err)
		}

		var mu sync.Mutex
		got := map[string][]uint32{}
		record := func(name string) func(v any, _ time.Time) {
			return func(v any, _ time.Time) {
				mu.Lock()
				got[name] = append(got[name], v.(uint32))
				mu.Unlock()
			}
		}
		for name, n := range map[string]*Node{"ord.alpha": gs, "ord.bravo": gs} {
			sub, err := n.Variables().Subscribe(name, typ, variables.SubscribeOptions{OnSample: record(name)})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
		}

		// Warm up until both flows deliver: subscriptions propagate by
		// discovery, so publish until the first sample of each lands.
		deadline := v.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			ready := len(got["ord.alpha"]) > 0 && len(got["ord.bravo"]) > 0
			mu.Unlock()
			if ready {
				break
			}
			if v.Now().After(deadline) {
				failure = "subscriptions never delivered a first sample"
				return
			}
			_ = pubA.Publish(uint32(0))
			_ = pubB.Publish(uint32(0))
			v.Sleep(5 * time.Millisecond)
		}

		const samples = 150
		for i := 1; i <= samples; i++ {
			_ = pubA.Publish(uint32(i))
			_ = pubB.Publish(uint32(i))
			v.Sleep(2 * time.Millisecond)
		}
		deadline = v.Now().Add(5 * time.Second)
		last := func(name string) uint32 {
			mu.Lock()
			defer mu.Unlock()
			s := got[name]
			if len(s) == 0 {
				return 0
			}
			return s[len(s)-1]
		}
		for (last("ord.alpha") < samples || last("ord.bravo") < samples) && v.Now().Before(deadline) {
			v.Sleep(5 * time.Millisecond)
		}

		mu.Lock()
		defer mu.Unlock()
		for name, seq := range got {
			for i := 1; i < len(seq); i++ {
				if seq[i] < seq[i-1] {
					t.Fatalf("%s: sample %d (value %d) arrived after value %d — per-source FIFO violated",
						name, i, seq[i], seq[i-1])
				}
			}
			if seq[len(seq)-1] != samples {
				t.Fatalf("%s: last sample %d, want %d", name, seq[len(seq)-1], samples)
			}
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

// nestBatch wraps raw frames into an MTBatch datagram, depth times.
func nestBatch(t *testing.T, raw []byte, depth int) []byte {
	t.Helper()
	for i := 0; i < depth; i++ {
		var err error
		raw, err = protocol.AppendBatch(nil, [][]byte{raw}, qos.PriorityHigh)
		if err != nil {
			t.Fatal(err)
		}
	}
	return raw
}

// TestNestedBatchDepthRejected: the dispatcher unpacks a batch datagram but
// refuses a batch nested inside one, which this stack never builds, counting
// the drop under the protocol-violation taxonomy instead of recursing into
// attacker-controlled depth.
func TestNestedBatchDepthRejected(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")

	inner, err := protocol.EncodeFrame(&protocol.Frame{Type: protocol.MTFileCancel, Seq: 1, Priority: qos.PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	nested := func() uint64 {
		return n.metrics.SumCounters("core", "errors", metrics.L("code", "batch_nested"))
	}
	// Each datagram is handed to the dispatcher as the peer's shard worker
	// would after draining it.
	deliver := func(raw []byte) {
		n.deliverBatch(n.ingress.ShardOf("peer"), []ingress.Packet{{Bearer: DefaultBearer, From: "peer", Payload: raw}})
	}

	// Depth 1 (egress coalescing) is the deepest shape this stack produces
	// and must pass.
	deliver(nestBatch(t, inner, 1))
	if got := nested(); got != 0 {
		t.Fatalf("legitimate batch counted as nested violation (%d)", got)
	}
	// Depth 2 cannot occur and is rejected at the second level.
	deliver(nestBatch(t, inner, 2))
	if got := nested(); got != 1 {
		t.Fatalf("over-nested batch: violation count %d, want 1", got)
	}
}

// TestAckBatchCoalescing: acks generated within one ingress drain batch for
// the same peer leave as a single range MTAck — one egress enqueue and one
// wire datagram for a burst that would otherwise cost one datagram each.
func TestAckBatchCoalescing(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "recv")

	peer, err := bus.Endpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = peer.Close() })
	var mu sync.Mutex
	var batches [][]uint64 // ack seqs per arriving datagram
	peer.SetHandler(func(pkt transport.Packet) {
		f, err := protocol.DecodeFrame(pkt.Payload)
		if err != nil {
			t.Errorf("peer received undecodable frame: %v", err)
			return
		}
		if f.Type != protocol.MTAck {
			return // discovery chatter is not under test
		}
		seqs, err := ackedSeqs(f)
		if err != nil {
			t.Errorf("peer received undecodable ack: %v", err)
			return
		}
		mu.Lock()
		batches = append(batches, seqs)
		mu.Unlock()
	})

	// Hand the dispatcher one pipeline drain batch of four ack-required
	// frames from the same source, the way a shard worker would after a
	// burst: the acks must coalesce.
	var batch []ingress.Packet
	for seq := uint64(1); seq <= 4; seq++ {
		raw, err := protocol.EncodeFrame(&protocol.Frame{
			Type:     protocol.MTFileCancel,
			Flags:    protocol.FlagAckRequired,
			Seq:      seq,
			Priority: qos.PriorityHigh,
		})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, ingress.Packet{Bearer: DefaultBearer, From: "peer", Payload: raw})
	}
	n.deliverBatch(n.ingress.ShardOf("peer"), batch)

	waitUntil(t, 2*time.Second, "coalesced range ack", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(batches) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 {
		t.Fatalf("acks arrived in %d datagrams, want 1 range ack: %v", len(batches), batches)
	}
	want := []uint64{1, 2, 3, 4}
	if len(batches[0]) != len(want) {
		t.Fatalf("range ack has seqs %v, want %v", batches[0], want)
	}
	for i, seq := range batches[0] {
		if seq != want[i] {
			t.Fatalf("range ack has seqs %v, want %v", batches[0], want)
		}
	}
}
