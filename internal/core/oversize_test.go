package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/ingress"
	"uavmw/internal/metrics"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// Frames larger than the MTU (protocol.DefaultMTU), on every send path. The observable is
// an event subscription fed by hand-built unsequenced MTEvent frames
// (per-topic sequence 0): the events engine then applies no duplicate
// filter of its own, so every delivery the container lets through —
// including a wrongly repeated one — reaches the handler.

const (
	oversizeTopic = "oversize.blob"
	oversizeBody  = 4096
)

// blobSink is the receiving side: it records every delivered body.
type blobSink struct {
	mu   sync.Mutex
	seen [][]byte
}

func (s *blobSink) handle(v any, _ transport.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen = append(s.seen, v.([]byte))
}

func (s *blobSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// deliveries reports how many times body arrived, byte for byte.
func (s *blobSink) deliveries(body []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, got := range s.seen {
		if bytes.Equal(got, body) {
			n++
		}
	}
	return n
}

// subscribeBlobs attaches a sink to the oversize topic on n.
func subscribeBlobs(t *testing.T, n *Node) *blobSink {
	t.Helper()
	sink := &blobSink{}
	if _, err := n.Events().Subscribe(oversizeTopic, presentation.Bytes(), qos.EventQoS{}, sink.handle); err != nil {
		t.Fatal(err)
	}
	return sink
}

// blobFrame builds an unsequenced event frame carrying body. PriorityLow is
// a lane nothing else in the container uses, so its egress counters see
// exactly the frames under test.
func blobFrame(t *testing.T, body []byte) *protocol.Frame {
	t.Helper()
	enc, err := encoding.Marshal(presentation.Bytes(), body)
	if err != nil {
		t.Fatal(err)
	}
	return &protocol.Frame{
		Type:     protocol.MTEvent,
		Encoding: encoding.Binary{}.ID(),
		Priority: qos.PriorityLow,
		Channel:  oversizeTopic,
		Payload:  protocol.EncodeEventPayload(0, 0, enc, nil),
	}
}

func randomBody(seed int64) []byte {
	body := make([]byte, oversizeBody)
	rand.New(rand.NewSource(seed)).Read(body)
	return body
}

// mtuGuard sits between a container and its transport and records the
// largest datagram the container ever handed down.
type mtuGuard struct {
	transport.Transport
	largest atomic.Int64
}

func (g *mtuGuard) note(payload []byte) {
	for {
		seen := g.largest.Load()
		if int64(len(payload)) <= seen || g.largest.CompareAndSwap(seen, int64(len(payload))) {
			return
		}
	}
}

func (g *mtuGuard) Send(to transport.NodeID, payload []byte) error {
	g.note(payload)
	return g.Transport.Send(to, payload)
}

func (g *mtuGuard) SendGroup(group string, payload []byte) error {
	g.note(payload)
	return g.Transport.SendGroup(group, payload)
}

// newGuardedNode builds the sending container on tr, behind an mtuGuard
// that must never see a datagram larger than the MTU.
func newGuardedNode(t *testing.T, tr transport.Transport) *Node {
	t.Helper()
	guard := &mtuGuard{Transport: tr}
	n, err := NewNode(
		WithDatagram(guard),
		WithAnnouncePeriod(25*time.Millisecond),
		WithARQ(protocol.WithMaxRetries(12)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = n.Close()
		if got := guard.largest.Load(); got > protocol.DefaultMTU {
			t.Errorf("container handed its transport a %d-byte datagram, MTU is %d", got, protocol.DefaultMTU)
		}
	})
	return n
}

// lowLaneDatagrams reports how many datagrams n's egress plane has sent on
// the test lane.
func lowLaneDatagrams(t testing.TB, n *Node) uint64 {
	t.Helper()
	n.FlushEgress()
	return counter(t, n, "egress", "datagrams", metrics.L("class", qos.PriorityLow.String()))
}

// quiet asserts the sink's delivery count stays put for a settle interval —
// long enough for any duplicate still in flight to land.
func quiet(t *testing.T, sink *blobSink, want int) {
	t.Helper()
	time.Sleep(60 * time.Millisecond)
	if got := sink.count(); got != want {
		t.Fatalf("%d deliveries after settling, want %d", got, want)
	}
}

func TestOversizeBestEffortUnicastAndGroup(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("uav")
	if err != nil {
		t.Fatal(err)
	}
	src := newGuardedNode(t, ep)
	dst := newBusNode(t, bus, "gs")
	syncNodes(t, src, dst)
	sink := subscribeBlobs(t, dst)

	unicast, group := randomBody(1), randomBody(2)
	if err := src.SendBestEffort("gs", blobFrame(t, unicast)); err != nil {
		t.Fatalf("SendBestEffort: %v", err)
	}
	afterUnicast := lowLaneDatagrams(t, src)
	if afterUnicast < oversizeBody/protocol.DefaultMTU {
		t.Fatalf("4 KB frame at MTU %d left in %d datagram(s); it was not split", protocol.DefaultMTU, afterUnicast)
	}
	if err := src.SendGroup(fabric.EventGroup(oversizeTopic), blobFrame(t, group)); err != nil {
		t.Fatalf("SendGroup: %v", err)
	}
	if sent := lowLaneDatagrams(t, src) - afterUnicast; sent < oversizeBody/protocol.DefaultMTU {
		t.Fatalf("4 KB group frame left in %d datagram(s); it was not split", sent)
	}
	waitUntil(t, 2*time.Second, "both oversize frames", func() bool { return sink.count() == 2 })
	quiet(t, sink, 2)
	if sink.deliveries(unicast) != 1 || sink.deliveries(group) != 1 {
		t.Fatalf("reassembled bodies differ from what was sent (unicast ×%d, group ×%d)",
			sink.deliveries(unicast), sink.deliveries(group))
	}
}

func TestOversizeReliableUnderLoss(t *testing.T) {
	// 20% loss hits fragments and their acks alike, so fragments are
	// retransmitted and re-acknowledged; the message must still surface
	// exactly once and its completion fire exactly once.
	net := transport.NewSimBus(transport.SimConfig{Loss: 0.2, Seed: 41, Latency: time.Millisecond})
	defer net.Close()
	ep, err := net.Endpoint("uav")
	if err != nil {
		t.Fatal(err)
	}
	src := newGuardedNode(t, ep)
	dst := newSimNode(t, net, "gs")
	syncNodes(t, src, dst)
	sink := subscribeBlobs(t, dst)

	const messages = 8
	var (
		mu       sync.Mutex
		outcomes = make(map[int][]error)
	)
	bodies := make([][]byte, messages)
	for i := range bodies {
		i := i
		bodies[i] = randomBody(int64(100 + i))
		src.SendReliable("gs", blobFrame(t, bodies[i]), qos.ReliableARQ, func(err error) {
			mu.Lock()
			outcomes[i] = append(outcomes[i], err)
			mu.Unlock()
		})
	}
	waitUntil(t, 10*time.Second, "every reliable send to complete", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(outcomes) == messages
	})
	waitUntil(t, 5*time.Second, "every body to be delivered", func() bool { return sink.count() >= messages })
	waitUntil(t, 5*time.Second, "ARQ to drain", func() bool { return src.arq.Pending() == 0 })
	quiet(t, sink, messages)

	mu.Lock()
	defer mu.Unlock()
	for i, body := range bodies {
		if got := outcomes[i]; len(got) != 1 || got[0] != nil {
			t.Errorf("message %d: completions %v, want exactly one nil", i, got)
		}
		if got := sink.deliveries(body); got != 1 {
			t.Errorf("message %d delivered %d times, want once and intact", i, got)
		}
	}
	if counter(t, src, "arq", "retransmits") == 0 {
		t.Error("no fragment was retransmitted; the loss path was not exercised")
	}
}

func TestOversizeReliableRetryBudgetExhausted(t *testing.T) {
	net := transport.NewSimBus(transport.SimConfig{Seed: 43, Latency: time.Millisecond})
	defer net.Close()
	src := newSimNode(t, net, "uav", WithARQ(protocol.WithMaxRetries(2)))
	dst := newSimNode(t, net, "gs")
	syncNodes(t, src, dst)
	sink := subscribeBlobs(t, dst)
	net.Partition("uav", "gs")

	var (
		mu       sync.Mutex
		outcomes []error
	)
	src.SendReliable("gs", blobFrame(t, randomBody(7)), qos.ReliableARQ, func(err error) {
		mu.Lock()
		outcomes = append(outcomes, err)
		mu.Unlock()
	})
	waitUntil(t, 5*time.Second, "the retry budget to run out", func() bool { return src.arq.Pending() == 0 })
	quiet(t, sink, 0)
	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 1 || !errors.Is(outcomes[0], protocol.ErrTimeout) {
		t.Fatalf("completions %v, want exactly one ErrTimeout although every fragment timed out", outcomes)
	}
}

func TestOversizeSelfLoopbackNeverFragments(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")
	sink := subscribeBlobs(t, n)

	bestEffort, reliable := randomBody(11), randomBody(12)
	if err := n.SendBestEffort("solo", blobFrame(t, bestEffort)); err != nil {
		t.Fatalf("SendBestEffort to self: %v", err)
	}
	completions := 0 // loopback completes synchronously, on this goroutine
	n.SendReliable("solo", blobFrame(t, reliable), qos.ReliableARQ, func(err error) {
		completions++
		if err != nil {
			t.Errorf("reliable loopback completed with %v", err)
		}
	})
	if completions != 1 {
		t.Fatalf("reliable loopback completed %d times, want 1", completions)
	}
	waitUntil(t, 2*time.Second, "both loopback frames", func() bool { return sink.count() == 2 })
	quiet(t, sink, 2)
	if sink.deliveries(bestEffort) != 1 || sink.deliveries(reliable) != 1 {
		t.Fatal("loopback bodies differ from what was sent")
	}
	if sent := lowLaneDatagrams(t, n); sent != 0 {
		t.Fatalf("loopback put %d datagram(s) on the egress plane, want 0", sent)
	}
	if pending := n.arq.Pending(); pending != 0 {
		t.Fatalf("loopback registered %d message(s) with ARQ, want 0", pending)
	}
}

// ackedSeqs lists the seqs an MTAck acknowledges.
func ackedSeqs(f *protocol.Frame) ([]uint64, error) {
	var seqs []uint64
	err := protocol.EachAckRange(f, func(lo, hi uint64) {
		for seq := lo; seq <= hi && seq >= lo; seq++ {
			seqs = append(seqs, seq)
		}
	})
	return seqs, err
}

// acksIn lists the seqs a datagram acknowledges: a lone MTAck, or MTAcks
// coalesced into a batch; other frames acknowledge nothing.
func acksIn(raw []byte) ([]uint64, error) {
	f, err := protocol.DecodeFrame(raw)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case protocol.MTAck:
		return ackedSeqs(f)
	case protocol.MTBatch:
		subs, err := protocol.DecodeBatch(f.Payload)
		if err != nil {
			return nil, err
		}
		var seqs []uint64
		for _, sub := range subs {
			more, err := acksIn(sub)
			if err != nil {
				return nil, err
			}
			seqs = append(seqs, more...)
		}
		return seqs, nil
	}
	return nil, nil
}

// TestOversizeAckBurstStaysWithinMTU: a drain batch owing one peer more
// ack ranges than a datagram holds, interleaved with a second peer's
// frames, acknowledges every seq of each peer exactly once, to that peer,
// in datagrams within the MTU. The first peer's seqs are spread far apart,
// so each is its own range with a multi-byte gap; one frame arrives twice.
func TestOversizeAckBurstStaysWithinMTU(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("recv")
	if err != nil {
		t.Fatal(err)
	}
	n := newGuardedNode(t, ep)
	var mu sync.Mutex
	acked := map[transport.NodeID]map[uint64]int{}
	datagrams := map[transport.NodeID]int{}
	for _, id := range []transport.NodeID{"peer", "other"} {
		peer, err := bus.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = peer.Close() })
		acked[id] = map[uint64]int{}
		peer.SetHandler(func(pkt transport.Packet) {
			seqs, err := acksIn(pkt.Payload)
			if err != nil {
				t.Errorf("%s: undecodable datagram: %v", id, err)
			}
			if len(seqs) == 0 {
				return // discovery chatter is not under test
			}
			mu.Lock()
			defer mu.Unlock()
			datagrams[id]++
			for _, seq := range seqs {
				acked[id][seq]++
			}
		})
	}

	const burst = 400 // ranges × ~6 B each: beyond one 1,400 B datagram
	rng := rand.New(rand.NewSource(5))
	sent := map[transport.NodeID][]uint64{}
	var batch []ingress.Packet
	frame := func(from transport.NodeID, seq uint64) {
		raw, err := protocol.EncodeFrame(&protocol.Frame{
			Type: protocol.MTFileCancel, Flags: protocol.FlagAckRequired, Seq: seq, Priority: qos.PriorityHigh,
		})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, ingress.Packet{Bearer: DefaultBearer, From: from, Payload: raw})
	}
	seq := uint64(1)
	for i := 0; i < burst; i++ {
		seq += 2 + uint64(rng.Int63n(1<<36))
		frame("peer", seq)
		sent["peer"] = append(sent["peer"], seq)
		// The second peer's seqs sit in the first one's gaps, in runs.
		for j := uint64(1); j <= uint64(i%3); j++ {
			frame("other", seq+j)
			sent["other"] = append(sent["other"], seq+j)
		}
		seq += 3
	}
	frame("peer", sent["peer"][burst/2]) // a retransmission in the same drain
	n.deliverBatch(n.ingress.ShardOf("peer"), batch)

	waitUntil(t, 2*time.Second, "every ack of the burst", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked["peer"]) == len(sent["peer"]) && len(acked["other"]) == len(sent["other"])
	})
	mu.Lock()
	defer mu.Unlock()
	for id, seqs := range sent {
		for _, seq := range seqs {
			if times := acked[id][seq]; times != 1 {
				t.Errorf("%s: seq %d acknowledged %d times", id, seq, times)
			}
		}
	}
	if datagrams["peer"] < 2 {
		t.Errorf("%d ack ranges left in %d datagram(s); they cannot fit one", burst, datagrams["peer"])
	}
}
