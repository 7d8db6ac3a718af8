package egress

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/ingress"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// holder is a bus receiver that keeps every datagram it is handed, as a
// lagging receiver's ingress ring does, until the test releases it.
type holder struct {
	ep   *transport.BusEndpoint
	mu   sync.Mutex
	held []*bufpool.Shared
}

func (h *holder) handle(pkt transport.Packet) {
	h.mu.Lock()
	h.held = append(h.held, pkt.Owner.Retain())
	h.mu.Unlock()
}

func (h *holder) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held)
}

// release drops the oldest n references it holds (all of them for n < 0).
func (h *holder) release(n int) {
	h.mu.Lock()
	if n < 0 || n > len(h.held) {
		n = len(h.held)
	}
	out := append([]*bufpool.Shared(nil), h.held[:n]...)
	h.held = append(h.held[:0], h.held[n:]...)
	h.mu.Unlock()
	for _, s := range out {
		s.Release()
	}
}

// busPlane is a plane whose one bearer sends from an in-process bus
// endpoint — a transport.SharedSender — to receivers holders, each joined
// to group "g" and reachable as "rx<i>".
func busPlane(t *testing.T, cfg Config, receivers int) (*Plane, []*holder) {
	t.Helper()
	bus := transport.NewBus()
	tx, err := bus.Endpoint("tx")
	if err != nil {
		t.Fatal(err)
	}
	p := New(tx, cfg)
	hs := make([]*holder, receivers)
	for i := range hs {
		ep, err := bus.Endpoint(transport.NodeID(fmt.Sprintf("rx%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = &holder{ep: ep}
		ep.SetHandler(hs[i].handle)
		if err := ep.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		p.Close()
		_ = tx.Close()
		for _, h := range hs {
			_ = h.ep.Close()
			h.release(-1)
		}
	})
	return p, hs
}

// unreleased reads the default bearer's count of bulk datagrams that a
// receiver still holds.
func unreleased(p *Plane) int64 {
	p.mu.RLock()
	b := p.bearers[DefaultBearer]
	p.mu.RUnlock()
	return b.unreleased.Value()
}

// bulkChunk is a 1200-byte file chunk frame: too big to coalesce, so each
// is one datagram.
func bulkChunk(t *testing.T, seq uint64) []byte {
	return frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, seq, 1200)
}

// waitFor polls cond every millisecond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBulkCreditHookFiresOncePerDatagram: a bulk datagram's credit returns
// on the release of its last receiver, once, and only bulk datagrams take
// credit.
func TestBulkCreditHookFiresOncePerDatagram(t *testing.T) {
	p, hs := busPlane(t, Config{}, 2)
	if err := p.EnqueueTo(Dest{Group: "g"}, qos.PriorityCritical, frameBytes(t, protocol.MTEvent, qos.PriorityCritical, 999, 600)); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	const n = creditWindow - 10 // below the window: nothing parks
	for i := 0; i < n; i++ {
		if err := p.EnqueueTo(Dest{Group: "g"}, qos.PriorityBulk, bulkChunk(t, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	if got := unreleased(p); got != n {
		t.Fatalf("unreleased = %d after sending one critical and %d bulk datagrams, want %d", got, n, n)
	}
	if hs[0].count() != n+1 || hs[1].count() != n+1 {
		t.Fatalf("receivers hold %d and %d datagrams, want %d each", hs[0].count(), hs[1].count(), n+1)
	}
	hs[0].release(-1)
	if got := unreleased(p); got != n {
		t.Fatalf("unreleased = %d with the second receiver still holding all, want %d", got, n)
	}
	hs[1].release(1) // the critical datagram
	if got := unreleased(p); got != n {
		t.Fatalf("unreleased = %d after the critical datagram's release, want %d", got, n)
	}
	for i := 1; i <= n; i++ {
		hs[1].release(1)
		if got := unreleased(p); got != int64(n-i) {
			t.Fatalf("after %d final releases unreleased = %d, want %d", i, got, n-i)
		}
	}
}

// parkOnCredit starts a producer of total bulk datagrams to rx0 and returns
// once it is parked on credit: its lane is empty and the bearer has at
// least creditWindow bulk datagrams out, all held by the receiver.
func parkOnCredit(t *testing.T, p *Plane, h *holder, total int) (sent *atomic.Int64, done chan error) {
	t.Helper()
	sent, done = new(atomic.Int64), make(chan error, 1)
	raws := make([][]byte, total)
	for i := range raws {
		raws[i] = bulkChunk(t, uint64(i+1))
	}
	go func() {
		for _, raw := range raws {
			if err := p.EnqueueTo(Dest{Node: "rx0"}, qos.PriorityBulk, raw); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()
	waitFor(t, "credit to run out", func() bool { return unreleased(p) >= creditWindow })
	for { // settle: the lane drains, the producer stops
		before := sent.Load()
		p.Flush()
		time.Sleep(10 * time.Millisecond)
		if sent.Load() == before {
			break
		}
	}
	if got := unreleased(p); got < creditWindow || got > creditWindow+bulkWindow {
		t.Fatalf("producer parked with %d datagrams unreleased, want %d to %d", got, creditWindow, creditWindow+bulkWindow)
	}
	if got := int64(h.count()); got != unreleased(p) {
		t.Fatalf("receiver holds %d datagrams, bearer counts %d unreleased", got, unreleased(p))
	}
	return sent, done
}

// TestBulkProducerParksOnCreditAndWakesAtHalf: with its lane empty, a bulk
// producer waits while the receiver holds creditWindow of its bearer's
// datagrams, stays parked until the count falls to half, then runs on, and
// the count returns to zero once the receiver has released everything.
func TestBulkProducerParksOnCreditAndWakesAtHalf(t *testing.T) {
	p, hs := busPlane(t, Config{}, 1)
	h := hs[0]
	const total = 4 * creditWindow
	sent, done := parkOnCredit(t, p, h, total)
	parked := sent.Load()
	if parked >= total {
		t.Fatal("producer never parked")
	}

	h.release(int(unreleased(p)) - creditWindow/2 - 1)
	time.Sleep(20 * time.Millisecond)
	if got := sent.Load(); got != parked {
		t.Fatalf("producer ran on (%d -> %d) with %d unreleased, above half the window", parked, got, unreleased(p))
	}
	h.release(1)
	waitFor(t, "the producer to wake at half the window", func() bool { return sent.Load() > parked })

	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			p.Flush()
			h.release(-1)
			if got := unreleased(p); got != 0 {
				t.Fatalf("unreleased = %d after the transfer, want 0", got)
			}
			return
		default:
			h.release(-1)
			time.Sleep(time.Millisecond)
		}
	}
}

// TestBulkProducerParkedOnCreditWakesOnClose: Close ends a wait on credit,
// and the datagrams the receiver still holds give their credit back after
// the sender is gone.
func TestBulkProducerParkedOnCreditWakesOnClose(t *testing.T) {
	p, hs := busPlane(t, Config{}, 1)
	_, done := parkOnCredit(t, p, hs[0], 2*creditWindow)
	p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked producer returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the producer parked on credit")
	}
	hs[0].release(-1)
	if got := unreleased(p); got != 0 {
		t.Fatalf("unreleased = %d after the sender closed and the receiver released, want 0", got)
	}
}

// TestBulkCreditLeavesCriticalUnblocked: a critical datagram enqueued while
// bulk is parked on credit is queued and sent without waiting for any.
func TestBulkCreditLeavesCriticalUnblocked(t *testing.T) {
	p, hs := busPlane(t, Config{}, 1)
	h := hs[0]
	parkOnCredit(t, p, h, 2*creditWindow)
	held := h.count()
	enqueued := make(chan error, 1)
	go func() {
		enqueued <- p.EnqueueTo(Dest{Node: "rx0"}, qos.PriorityCritical, frameBytes(t, protocol.MTEvent, qos.PriorityCritical, 999, 48))
	}()
	select {
	case err := <-enqueued:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a critical enqueue waited on bulk credit")
	}
	waitFor(t, "the critical datagram to arrive", func() bool { return h.count() == held+1 })
}

// throttle shapes a running bearer's bulk lane to bps from now on.
func throttle(b *bearer, bps int64) {
	b.mu.Lock()
	b.refillLocked(b.clk.Now())
	b.cfg.BulkRateBPS = bps
	b.mu.Unlock()
	b.signal()
}

// TestBulkCreditFinalReleaseOnSenderGoroutine: once the receiver is gone
// the bearer's own reference is each datagram's last, so the release hook
// runs on the sender's goroutine — the drainer, and Close's final flush.
// There, at the half-window edge, it takes the bearer lock, and neither
// may be holding it.
func TestBulkCreditFinalReleaseOnSenderGoroutine(t *testing.T) {
	// A burst of one chunk: once shaped, one datagram passes and the rest
	// wait in the lane for Close.
	p, hs := busPlane(t, Config{BulkBurst: 1300}, 1)
	for i := 0; i < creditWindow/2; i++ {
		if err := p.EnqueueTo(Dest{Group: "g"}, qos.PriorityBulk, bulkChunk(t, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	if got := unreleased(p); got != creditWindow/2 {
		t.Fatalf("unreleased = %d, want %d", got, creditWindow/2)
	}
	_ = hs[0].ep.Close()
	throttle(p.bearers[DefaultBearer], 1)
	for i := 0; i < 3; i++ {
		if err := p.EnqueueTo(Dest{Group: "g"}, qos.PriorityBulk, bulkChunk(t, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitDequeued(t, p, qos.PriorityBulk, creditWindow/2+1)
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a release hook run inside its flush")
	}
	if got := counter(t, p, DefaultBearer, "sent", qos.PriorityBulk); got != creditWindow/2+3 {
		t.Fatalf("bulk sent = %d, want %d", got, creditWindow/2+3)
	}
	if got := unreleased(p); got != creditWindow/2 {
		t.Fatalf("unreleased = %d with the old receiver's %d still held, want %d", got, creditWindow/2, creditWindow/2)
	}
	hs[0].release(-1)
	if got := unreleased(p); got != 0 {
		t.Fatalf("unreleased = %d after the receiver released, want 0", got)
	}
}

// ingressReceiver wires a bus endpoint to a one-shard ingress pipeline
// whose dispatch signals dispatching, then waits at gate.
func ingressReceiver(t *testing.T, ep *transport.BusEndpoint, gate chan struct{}) (pipe *ingress.Pipeline, dispatching <-chan struct{}) {
	t.Helper()
	entered := make(chan struct{}, 1)
	pipe = ingress.New(ingress.Config{Shards: 1, Deliver: func(int, []ingress.Packet) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}})
	ep.SetHandler(func(pkt transport.Packet) { pipe.Enqueue("bus", pkt) })
	return pipe, entered
}

// TestBulkCreditReturnsAfterIngressDropOldest: datagrams a full ingress
// ring evicts give their credit back at eviction, the rest once dispatched.
func TestBulkCreditReturnsAfterIngressDropOldest(t *testing.T) {
	p, hs := busPlane(t, Config{}, 1)
	gate := make(chan struct{})
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	pipe, dispatching := ingressReceiver(t, hs[0].ep, gate)
	defer pipe.Close()
	defer open()
	// A filler packet wedges the worker in dispatch with the ring empty.
	filler := transport.Packet{From: "tx", Payload: []byte{0}}
	pipe.Enqueue("bus", filler)
	<-dispatching
	const n, kept = 20, 4
	for i := 0; i < n; i++ {
		if err := p.EnqueueTo(Dest{Node: "rx0"}, qos.PriorityBulk, bulkChunk(t, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	if got := unreleased(p); got != n {
		t.Fatalf("unreleased = %d with every datagram in the ring, want %d", got, n)
	}
	// Fillers behind the datagrams overflow the ring, which sheds all but
	// the newest kept of them.
	for i := 0; i < ingress.DefaultRing-kept; i++ {
		pipe.Enqueue("bus", filler)
	}
	if got := unreleased(p); got != kept {
		t.Fatalf("unreleased = %d with %d datagrams left in the ring, want %d: evicted datagrams kept their credit", got, kept, kept)
	}
	open()
	waitFor(t, "the ring to drain", func() bool { return unreleased(p) == 0 })
}

// TestBulkCreditReturnsWhenReceiverClosesMidTransfer: a receiver that
// closes with a producer parked on its datagrams releases them all, the
// producer runs to the end into the void, and every credit comes back.
func TestBulkCreditReturnsWhenReceiverClosesMidTransfer(t *testing.T) {
	p, hs := busPlane(t, Config{}, 1)
	gate := make(chan struct{})
	pipe, _ := ingressReceiver(t, hs[0].ep, gate)
	raws := make([][]byte, 3*creditWindow)
	for i := range raws {
		raws[i] = bulkChunk(t, uint64(i+1))
	}
	done := make(chan error, 1)
	go func() {
		for _, raw := range raws {
			if err := p.EnqueueTo(Dest{Group: "g"}, qos.PriorityBulk, raw); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	waitFor(t, "credit to run out", func() bool { return unreleased(p) >= creditWindow })
	_ = hs[0].ep.Close()
	close(gate)
	pipe.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still parked after the receiver closed")
	}
	p.Flush()
	if got := unreleased(p); got != 0 {
		t.Fatalf("unreleased = %d after the receiver closed, want 0", got)
	}
}
