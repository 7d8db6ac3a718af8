package core

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/filetransfer"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// wireSink is a transport that discards what it is sent and says so on
// sent, when that has room: the allocation gates below count process-wide,
// so the sink must not allocate and the test must know when the egress
// drainer is done. It keeps the node's receive handler so a gate can inject
// packets as a NIC read loop would.
type wireSink struct {
	id      transport.NodeID
	sent    chan struct{}
	handler transport.Handler
}

func (s *wireSink) Node() transport.NodeID         { return s.id }
func (s *wireSink) Join(string) error              { return nil }
func (s *wireSink) Leave(string) error             { return nil }
func (s *wireSink) SetHandler(h transport.Handler) { s.handler = h }
func (s *wireSink) Stats() transport.Stats         { return transport.Stats{} }
func (s *wireSink) Close() error                   { return nil }

func (s *wireSink) Send(to transport.NodeID, _ []byte) error {
	if to == "peer" {
		select {
		case s.sent <- struct{}{}:
		default:
		}
	}
	return nil
}

func (s *wireSink) SendGroup(string, []byte) error { return nil }

// TestReliableTransmitAllocs gates the send side of a reliable unicast that
// fits one datagram — transmit, ARQ registration, the egress lane and its
// drain, and the acknowledgment that ends it — at zero: the frame is
// encoded into a pooled buffer, ARQ's retained copy and the plane's own are
// pooled too, and the pending record and its timer come off ARQ's free
// list.
func TestReliableTransmitAllocs(t *testing.T) {
	sink := &wireSink{id: "alloc-gate", sent: make(chan struct{}, 1)}
	// Discovery stays quiet for the length of the measurement.
	n, err := NewNode(WithDatagram(sink), WithAnnouncePeriod(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()

	f := &protocol.Frame{
		Type:     protocol.MTEvent,
		Priority: qos.PriorityCritical,
		Channel:  "alloc.gate/alarm",
		Payload:  make([]byte, 48),
	}
	done := func(error) {}
	send := func() {
		f.Seq, f.Flags = 0, 0
		n.SendReliable("peer", f, qos.ReliableARQ, done)
		<-sink.sent
		n.arq.Ack("peer", f.Seq)
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("reliable unicast transmit: %v allocs/op, want 0", allocs)
	}
}

// TestReceivePathAllocs gates the receive side at zero per routed frame:
// transport handler → ingress shard ring → worker decode → dispatch, for a
// transport that hands over a refcounted buffer (owned), one that does not
// (one pooled copy), a frame that asks for an acknowledgment (dedup, a
// pooled ack encode and an egress enqueue on top of owned), and a
// three-range ack (range decode and an ARQ lookup per seq). The frame type
// is one the dispatcher drops at its routing switch, so no engine runs
// behind the measurement. The node runs on the real clock: a virtual
// clock's park allocates a waiter per wake, which is simulation
// bookkeeping, not receive-path cost.
func TestReceivePathAllocs(t *testing.T) {
	sink := &wireSink{id: "rx-gate", sent: make(chan struct{}, 1)}
	n, err := NewNode(WithDatagram(sink), WithAnnouncePeriod(time.Hour), WithIngressShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	h := sink.handler
	if h == nil {
		t.Fatal("node installed no receive handler")
	}

	// Each op injects one packet and spins until a shard worker has
	// dispatched it, so decode and dispatch land inside the measurement.
	done := n.IngressDelivered()
	feed := func(pkt transport.Packet) {
		done++
		h(pkt)
		for n.IngressDelivered() < done {
			runtime.Gosched()
		}
	}
	f := protocol.Frame{
		Type:     protocol.MTFileCancel,
		Priority: qos.PriorityNormal,
		Channel:  "alloc.gate/ingest",
		Seq:      7,
		Payload:  make([]byte, 64),
	}
	raw, err := protocol.AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	owned := func(from transport.NodeID, frame *protocol.Frame) {
		buf, err := protocol.AppendFrame(bufpool.Get(protocol.FrameWireSize(frame)), frame)
		if err != nil {
			t.Fatal(err)
		}
		owner := bufpool.Share(buf)
		feed(transport.Packet{From: from, Payload: buf, Owner: owner})
		owner.Release()
	}
	acked := f
	acked.Flags = protocol.FlagAckRequired
	var ranges protocol.Frame
	protocol.AppendAck(&ranges, nil, []uint64{100, 99, 97, 90, 89, 88}, protocol.DefaultMTU)
	for _, v := range []struct {
		name string
		op   func()
	}{
		{"pooled copy", func() { feed(transport.Packet{From: "src-copy", Payload: raw}) }},
		{"owned", func() { owned("src-owned", &f) }},
		{"ack required", func() {
			acked.Seq++ // a fresh sequence each time, or dedup drops it
			owned("src-acked", &acked)
		}},
		{"range ack", func() { owned("src-ranges", &ranges) }},
	} {
		// Warm pools, the sender's dedup window, lane state and the
		// channel intern table out of the measurement.
		for i := 0; i < 64; i++ {
			v.op()
		}
		runtime.GC()
		if allocs := testing.AllocsPerRun(200, v.op); allocs != 0 {
			t.Errorf("receive path, %s: %v allocs/frame, want 0", v.name, allocs)
		}
	}
}

// handClock is the wall clock frozen at one instant, which the test moves,
// whose timers fire only when the test says: a gate that drives ARQ's timer
// for its one peer runs it on its own goroutine.
type handClock struct {
	clock.Real
	mu    sync.Mutex
	now   time.Time
	timer func() // the last timer made
}

func newHandClock() *handClock { return &handClock{now: time.Unix(1_000_000, 0)} }

func (c *handClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *handClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *handClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *handClock) AfterFunc(_ time.Duration, f func()) clock.Timer {
	c.mu.Lock()
	c.timer = f
	c.mu.Unlock()
	return handTimer{}
}

func (c *handClock) fire() {
	c.mu.Lock()
	f := c.timer
	c.mu.Unlock()
	f()
}

type handTimer struct{}

func (handTimer) Stop() bool               { return true }
func (handTimer) Reset(time.Duration) bool { return true }

// TestHeldCallAckAllocs gates a held acknowledgment at zero: a call's held
// and then cancelled by its reply, a reply's held and then carried by the
// next frame to its peer, and one held and then sent when its delay runs
// out, the transmit and drain included. ARQ runs on a hand-driven clock,
// so the peer's one timer, made in the warm-up, fires on the test's
// goroutine.
func TestHeldCallAckAllocs(t *testing.T) {
	sink := &wireSink{id: "held-gate", sent: make(chan struct{}, 1)}
	hand := newHandClock()
	n, err := NewNode(WithDatagram(sink), WithAnnouncePeriod(time.Hour), WithIngressShards(1),
		WithARQ(protocol.WithClock(hand)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	seq := uint64(0)
	hold := func(reply bool) {
		seq++
		if _, held := n.arq.Arrive(hand.Now(), "peer", protocol.HeldAck{Bearer: DefaultBearer, Seq: seq, Priority: qos.PriorityNormal, Reply: reply}, true); !held {
			t.Fatal("hold refused")
		}
	}
	for _, v := range []struct {
		name string
		op   func()
	}{
		{"hold, cancel", func() {
			hold(false)
			if !n.arq.Cancel("peer", seq) {
				t.Fatalf("call %d: no held ack to cancel", seq)
			}
		}},
		{"hold reply, carry", func() {
			hold(true)
			f := protocol.Frame{Type: protocol.MTEvent, Priority: qos.PriorityNormal, Channel: "held.gate"}
			if err := n.SendBestEffort("peer", &f); err != nil {
				t.Fatal(err)
			}
			<-sink.sent
			if n.arq.HeldReplies("peer") != 0 {
				t.Fatalf("reply %d: its held ack was not carried", seq)
			}
		}},
		{"hold, flush", func() {
			hold(false)
			hand.advance(2 * protocol.MaxAckDelay)
			hand.fire()
			<-sink.sent
		}},
	} {
		for i := 0; i < 64; i++ {
			v.op()
		}
		if allocs := testing.AllocsPerRun(200, v.op); allocs != 0 {
			t.Errorf("held call ack, %s: %v allocs/op, want 0", v.name, allocs)
		}
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestBulkFetchStaysInPool gates the heap allocations of a 1 MiB fetch
// between two bus nodes at a mean of 60 over 24 fetches after a warm-up one,
// with the benchmark's node settings (50 ms announce period, default failure
// deadline and directory TTL) and its 5 ms pause between fetches. The file's
// 874 chunks each cross a pooled MTU buffer; a transfer loop that runs ahead
// of its receiver leaves more of them queued between the two than the pool
// keeps, and every one past the pool's depth is a fresh allocation. That
// backlog comes in bursts, so the mean is gated, not the median.
func TestBulkFetchStaysInPool(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled frames at random")
	}
	bus := transport.NewBus()
	node := func(id transport.NodeID) *Node {
		ep, err := bus.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(WithDatagram(ep), WithAnnouncePeriod(50*time.Millisecond),
			WithFailureDeadline(5*DefaultAnnouncePeriod))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	camera, storage := node("camera"), node("storage")
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := camera.Files().Offer("frame", "camera", data, qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	syncNodes(t, camera, storage)
	waitUntil(t, 2*time.Second, "file record", func() bool {
		return storage.Directory().ProviderCount(naming.KindFile, "frame") == 1
	})

	fetch := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		got, _, err := storage.Files().Fetch(ctx, "frame", filetransfer.FetchOptions{})
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("fetched bytes differ from the offer")
		}
	}
	fetch()
	var perFetch [24]uint64
	var total uint64
	var ms runtime.MemStats
	for i := range perFetch {
		time.Sleep(5 * time.Millisecond)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		fetch()
		runtime.ReadMemStats(&ms)
		perFetch[i] = ms.Mallocs - before
		total += perFetch[i]
	}
	if mean := float64(total) / float64(len(perFetch)); mean > 60 {
		t.Errorf("a 1 MiB fetch allocates %.1f times (mean; per fetch %v), want at most 60", mean, perFetch)
	} else {
		t.Logf("allocs per fetch: mean %.1f, %v", mean, perFetch)
	}
}
