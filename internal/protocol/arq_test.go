package protocol

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/metrics/metricstest"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// stillClock is the wall clock with timers that never fire: a test that
// drives every ack and retransmission by hand gets none it did not ask
// for, and re-arming a timer allocates nothing.
type stillClock struct{ clock.Real }

func (stillClock) AfterFunc(time.Duration, func()) clock.Timer { return stillTimer{} }

type stillTimer struct{}

func (stillTimer) Stop() bool               { return true }
func (stillTimer) Reset(time.Duration) bool { return true }

// lossySend wraps a send function, dropping the first n calls per key.
type lossySend struct {
	mu      sync.Mutex
	dropped map[uint64]int
	drops   int
	sent    [][]byte
	onSend  func(seq uint64, frame []byte)
}

func (l *lossySend) send(drops int) SendFunc {
	l.dropped = make(map[uint64]int)
	l.drops = drops
	return func(to transport.NodeID, frame []byte) error {
		l.mu.Lock()
		defer l.mu.Unlock()
		f, err := DecodeFrame(frame)
		if err != nil {
			return err
		}
		if l.dropped[f.Seq] < l.drops {
			l.dropped[f.Seq]++
			return nil // dropped silently, like UDP
		}
		l.sent = append(l.sent, frame)
		if l.onSend != nil {
			l.onSend(f.Seq, frame)
		}
		return nil
	}
}

func mustFrame(t *testing.T, seq uint64) []byte {
	t.Helper()
	raw, err := EncodeFrame(&Frame{Type: MTEvent, Channel: "c", Seq: seq})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestARQImmediateAck(t *testing.T) {
	var arq *ARQ
	ls := &lossySend{}
	ls.onSend = func(seq uint64, _ []byte) { go arq.Ack("peer", seq) }
	arq = NewARQ(ls.send(0))
	defer arq.Close()

	done := make(chan error, 1)
	if err := arq.Send("peer", 1, mustFrame(t, 1), func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("result: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("no result")
	}
	if arq.Pending() != 0 {
		t.Errorf("Pending = %d", arq.Pending())
	}
	count := func(name string) uint64 { return metricstest.Counter(t, arq.reg, "arq", name) }
	if sent, acked, re := count("sent"), count("acked"), count("retransmits"); sent != 1 || acked != 1 || re != 0 {
		t.Errorf("sent, acked, retransmits = %d, %d, %d, want 1, 1, 0", sent, acked, re)
	}
}

func TestARQRetransmitsUntilAck(t *testing.T) {
	var arq *ARQ
	ls := &lossySend{}
	ls.onSend = func(seq uint64, _ []byte) { go arq.Ack("peer", seq) }
	// Drop the first 3 transmissions of every message.
	arq = NewARQ(ls.send(3), WithMaxRetries(10))
	defer arq.Close()

	done := make(chan error, 1)
	if err := arq.Send("peer", 7, mustFrame(t, 7), func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("result after retransmits: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no result")
	}
	if re := metricstest.Counter(t, arq.reg, "arq", "retransmits"); re < 3 {
		t.Errorf("retransmits = %d, want >= 3", re)
	}
}

func TestARQTimeoutAfterBudget(t *testing.T) {
	ls := &lossySend{}
	arq := NewARQ(ls.send(1000), WithMaxRetries(3))
	defer arq.Close()

	done := make(chan error, 1)
	if err := arq.Send("peer", 9, mustFrame(t, 9), func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("want ErrTimeout, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no result")
	}
	if failed := metricstest.Counter(t, arq.reg, "arq", "failed"); failed != 1 {
		t.Errorf("failed = %d", failed)
	}
}

func TestARQFirstSendErrorFailsFast(t *testing.T) {
	sendErr := errors.New("no route")
	arq := NewARQ(func(transport.NodeID, []byte) error { return sendErr })
	defer arq.Close()

	done := make(chan error, 1)
	if err := arq.Send("peer", 1, mustFrame(t, 1), func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, sendErr) {
			t.Errorf("want wrapped send error, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("no result")
	}
}

func TestARQDuplicateInFlight(t *testing.T) {
	arq := NewARQ(func(transport.NodeID, []byte) error { return nil }, WithClock(stillClock{}))
	defer arq.Close()
	if err := arq.Send("p", 5, mustFrame(t, 5), nil); err != nil {
		t.Fatal(err)
	}
	if err := arq.Send("p", 5, mustFrame(t, 5), nil); err == nil {
		t.Error("duplicate in-flight seq must be rejected")
	}
	// Same seq to a different peer is fine.
	if err := arq.Send("q", 5, mustFrame(t, 5), nil); err != nil {
		t.Errorf("distinct peer, same seq: %v", err)
	}
}

func TestARQLateAckIgnored(t *testing.T) {
	arq := NewARQ(func(transport.NodeID, []byte) error { return nil })
	defer arq.Close()
	arq.Ack("peer", 42) // nothing pending; must not panic
	if arq.Pending() != 0 {
		t.Error("phantom pending")
	}
}

func TestARQCloseFailsPending(t *testing.T) {
	arq := NewARQ(func(transport.NodeID, []byte) error { return nil }, WithClock(stillClock{}))
	done := make(chan error, 1)
	if err := arq.Send("p", 1, mustFrame(t, 1), func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	arq.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrARQClosed) {
			t.Errorf("want ErrARQClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending not failed on Close")
	}
	if err := arq.Send("p", 2, mustFrame(t, 2), nil); !errors.Is(err, ErrARQClosed) {
		t.Errorf("send after close: %v", err)
	}
	arq.Close() // idempotent
}

func TestARQManyConcurrent(t *testing.T) {
	var arq *ARQ
	ls := &lossySend{}
	ls.onSend = func(seq uint64, _ []byte) { go arq.Ack("peer", seq) }
	arq = NewARQ(ls.send(1), WithMaxRetries(10))
	defer arq.Close()

	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inner := make(chan error, 1)
			if err := arq.Send("peer", uint64(i), mustFrame(t, uint64(i)), func(err error) { inner <- err }); err != nil {
				errs <- err
				return
			}
			errs <- <-inner
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent send failed: %v", err)
		}
	}
}

func TestDedup(t *testing.T) {
	d := NewDedup(4)
	if d.Seen("a", 1) {
		t.Error("fresh seq marked duplicate")
	}
	if !d.Seen("a", 1) {
		t.Error("repeat not detected")
	}
	// Per-sender isolation.
	if d.Seen("b", 1) {
		t.Error("seq of different sender marked duplicate")
	}
	// Window eviction: after 4 newer seqs, 1 is forgotten.
	for _, s := range []uint64{2, 3, 4, 5} {
		d.Seen("a", s)
	}
	if d.Seen("a", 1) {
		t.Error("evicted seq still remembered")
	}
	if len(d.senders) != 2 {
		t.Errorf("%d senders have windows, want 2", len(d.senders))
	}
}

func TestDedupDefaultWindow(t *testing.T) {
	d := NewDedup(0)
	for i := uint64(0); i < DefaultDedupWindow; i++ {
		if d.Seen("s", i) {
			t.Fatalf("seq %d falsely duplicate", i)
		}
	}
	if !d.Seen("s", 0) {
		t.Error("seq 0 should still be in the default window")
	}
}

// TestAckRangeCostFollowsPending sends a datagram-sized batch of maximal
// range acks — thousands of MTAcks that each claim 4,096 seqs — at an
// engine holding 256 messages to the acking peer and 256 to another. The
// work must follow what is pending, not what the acks claim: every range
// costs a binary search of the peer's records, and each completed message
// one more. The other peer's messages, whose seqs the ranges also span,
// stay pending.
func TestAckRangeCostFollowsPending(t *testing.T) {
	a := NewARQ(func(transport.NodeID, []byte) error { return nil }, WithClock(stillClock{}))
	defer a.Close()
	const perPeer = 256
	var acked atomic.Int64
	done := func(err error) {
		if err == nil {
			acked.Add(1)
		}
	}
	for i := uint64(0); i < perPeer; i++ {
		for _, to := range []transport.NodeID{"peer", "other"} {
			if err := a.Send(to, 100+3*i, mustFrame(t, 100+3*i), done); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Lone acks in the gaps between the peer's seqs come first, so their
	// searches run over all 256 records; then maximal ranges, one of them
	// covering every pending seq and the rest past it.
	var frames [][]byte
	size := BatchOverhead(0)
	add := func(f *Frame) bool {
		raw, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if size+BatchEntryOverhead+len(raw) > 65507 { // the largest UDP datagram
			return false
		}
		size += BatchEntryOverhead + len(raw)
		frames = append(frames, raw)
		return true
	}
	for i := uint64(0); i < perPeer; i++ {
		add(&Frame{Type: MTAck, Seq: 101 + 3*i})
	}
	for top := uint64(MaxAckSeqs - 1); add(&Frame{Type: MTAck, Seq: top, Payload: []byte{0xff, 0x1f}}); top += MaxAckSeqs {
	}
	raw, err := AppendBatch(nil, frames, 0)
	if err != nil {
		t.Fatal(err)
	}

	batch, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := ReadBatch(batch.Payload)
	if err != nil {
		t.Fatal(err)
	}
	e := a.entry("peer", false)
	e.p.probes = 0
	e.mu.Unlock()
	ranges, claimed := 0, 0
	for sub, ok := subs.Next(); ok; sub, ok = subs.Next() {
		f, err := DecodeFrame(sub)
		if err != nil {
			t.Fatal(err)
		}
		err = EachAckRange(f, func(lo, hi uint64) {
			ranges++
			claimed += int(hi - lo + 1)
			a.AckRange("peer", lo, hi)
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := acked.Load(); got != perPeer {
		t.Fatalf("%d messages acknowledged, want the peer's %d", got, perPeer)
	}
	if got := a.Pending(); got != perPeer {
		t.Fatalf("%d messages pending, want the other peer's %d", got, perPeer)
	}
	e = a.entry("peer", false)
	probes := e.p.probes
	e.mu.Unlock()
	// A search of n records probes at most bits.Len(n)+1 of them.
	if bound := (ranges + perPeer) * (bits.Len(perPeer) + 1); probes > bound {
		t.Errorf("%d probes for %d ranges claiming %d seqs, want at most %d", probes, ranges, claimed, bound)
	}
	if claimed < 3000*MaxAckSeqs {
		t.Fatalf("the batch claims only %d seqs", claimed)
	}
	t.Logf("%d-byte datagram: %d ranges claiming %d seqs cost %d probes", len(raw), ranges, claimed, probes)
}

// TestARQBackoffIsCapped gives one message a large retry budget and moves
// it to its sixtieth attempt. Uncapped, 20 ms × 1.6^61 overflows
// time.Duration to a negative delay, the timer fires at once, and the
// budget goes out in a burst; capped, the next retransmission is a minute
// away.
func TestARQBackoffIsCapped(t *testing.T) {
	var sends atomic.Int64
	arq := NewARQ(func(transport.NodeID, []byte) error { sends.Add(1); return nil }, WithMaxRetries(1000))
	defer arq.Close()
	if err := arq.Send("peer", 1, mustFrame(t, 1), nil); err != nil {
		t.Fatal(err)
	}
	e := arq.entry("peer", false)
	e.p.recs[0].attempt = 60
	e.mu.Unlock()
	time.Sleep(150 * time.Millisecond)
	// The first transmission, then the retransmission the 20 ms timer
	// fires, then nothing for arqMaxDelay.
	if n := sends.Load(); n > 2 {
		t.Errorf("%d sends in 150 ms from attempt 60, want at most 2", n)
	}
}

// TestARQRetryDelay pins the backoff: the default budget's delays are the
// uncapped 20 ms × 1.6^k, and no attempt count yields a delay that is
// negative, above arqMaxDelay, or below the one before it.
func TestARQRetryDelay(t *testing.T) {
	want := DefaultARQTimeout
	for k := 0; k <= DefaultARQRetries; k++ {
		if got := retryDelay(DefaultARQTimeout, k); got != want {
			t.Errorf("retryDelay(20ms, %d) = %v, want %v", k, got, want)
		}
		want = time.Duration(float64(want) * arqBackoff)
	}
	prev := time.Duration(0)
	for k := 0; k <= 10000; k++ {
		d := retryDelay(DefaultARQTimeout, k)
		if d < prev || d > arqMaxDelay {
			t.Fatalf("retryDelay(20ms, %d) = %v after %v, want ascending to at most %v", k, d, prev, arqMaxDelay)
		}
		prev = d
	}
	if prev != arqMaxDelay {
		t.Errorf("retryDelay(20ms, 10000) = %v, want the cap %v", prev, arqMaxDelay)
	}
	if d := retryDelay(2*time.Minute, 5); d != 2*time.Minute {
		t.Errorf("retryDelay(2m, 5) = %v, want 2m: a first timeout above the cap is its own ceiling", d)
	}
}

// TestARQCloseEndsRetransmissions closes an engine while slow
// retransmissions are under way. Once Close returns the engine must make
// no send and hold no pooled copy: retransmissions that had already passed
// the pending-table check finish before Close returns, not after.
func TestARQCloseEndsRetransmissions(t *testing.T) {
	var closed atomic.Bool
	var lateSends atomic.Int64
	var sent sync.Map
	arq := NewARQ(func(_ transport.NodeID, raw []byte) error {
		if closed.Load() {
			lateSends.Add(1)
		}
		if _, again := sent.LoadOrStore(string(raw), true); again {
			time.Sleep(5 * time.Millisecond) // keep the retransmission in flight
		}
		return nil
	}, WithMaxRetries(1<<20))
	ledger := trackBuffers(arq)
	for seq := uint64(1); seq <= 32; seq++ {
		if err := arq.Send("peer", seq, mustFrame(t, seq), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Every message's first retransmission is under way.
	time.Sleep(DefaultARQTimeout + 2*time.Millisecond)
	arq.Close()
	closed.Store(true)
	if held, foreign := ledger.state(); held != 0 || foreign != 0 {
		t.Errorf("after Close the engine holds %d pooled buffers and gave back %d it did not hold, want 0 and 0", held, foreign)
	}
	time.Sleep(2 * time.Millisecond)
	if n := lateSends.Load(); n != 0 {
		t.Errorf("%d sends after Close returned", n)
	}
}

// TestRetransmissionHoldsNoPeerLock parks the retransmission of a
// bulk-priority message in send, as the egress plane parks a bulk frame
// until its lane has room. The peer's arrivals, fragments and acks go on
// meanwhile: a send made under the peer's lock would stall the ingress
// worker that brings them, and with it the credits the parked send waits
// for. The parked send reads its own copy, which the ack does not free,
// and Close waits for it.
func TestRetransmissionHoldsNoPeerLock(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark()
	var sends atomic.Int32
	arq := NewARQ(func(_ transport.NodeID, frame []byte) error {
		if sends.Add(1) == 2 {
			if PeekPriority(frame) != qos.PriorityBulk {
				t.Errorf("retransmitted priority %v, want bulk", PeekPriority(frame))
			}
			close(parked)
			<-release
		}
		return nil
	})
	ledger := trackBuffers(arq)
	raw, err := EncodeFrame(&Frame{Type: MTEvent, Priority: qos.PriorityBulk, Channel: "c", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	if err := arq.Send("peer", 1, raw, func(err error) { result <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("no retransmission")
	}

	went := make(chan struct{})
	go func() {
		defer close(went)
		arq.Arrive(time.Now(), "peer", HeldAck{Seq: 9}, false)
		frag := &Frame{Type: MTFragment, Payload: append(fragHeader(3, 0, 2), 1, 2, 3)}
		if _, err := arq.Offer(time.Now(), "peer", frag); err != nil {
			t.Error(err)
		}
		arq.Ack("peer", 1)
	}()
	select {
	case <-went:
	case <-time.After(5 * time.Second):
		t.Fatal("the peer's arrivals waited for its parked retransmission")
	}
	if err := <-result; err != nil {
		t.Fatalf("result %v, want the ack", err)
	}

	closed := make(chan struct{})
	go func() { arq.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a retransmission was parked in send")
	case <-time.After(20 * time.Millisecond):
	}
	unpark()
	<-closed
	if held, foreign := ledger.state(); held != 0 || foreign != 0 {
		t.Errorf("after Close the engine holds %d pooled buffers and gave back %d it did not hold, want 0 and 0", held, foreign)
	}
}
