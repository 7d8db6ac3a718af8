package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/metrics/metricstest"
	"uavmw/internal/transport"
)

// TestARQAckedCountsCompletions is the regression for arq.acked counting
// Ack calls instead of completions: duplicate acks (every retransmission
// whose first ack was lost) and acks for unknown seqs inflated it past
// arq.sent.
func TestARQAckedCountsCompletions(t *testing.T) {
	arq := NewARQ(func(transport.NodeID, []byte) error { return nil }, WithClock(stillClock{}))
	defer arq.Close()
	if err := arq.Send("peer", 1, mustFrame(t, 1), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		arq.Ack("peer", 1)
	}
	arq.Ack("peer", 99) // never sent
	if acked := metricstest.Counter(t, arq.reg, "arq", "acked"); acked != 1 {
		t.Errorf("acked = %d after one send, three acks of it and one stray ack, want 1", acked)
	}
}

// reuseFrame is the datagram of message seq in the churn tests: its channel
// and its peer both derive from seq, so a transmission that pairs one
// message's key with another's bytes is detectable from the bytes alone.
func reuseFrame(t testing.TB, seq uint64) []byte {
	t.Helper()
	raw, err := EncodeFrame(&Frame{Type: MTEvent, Channel: fmt.Sprintf("c%d", seq), Seq: seq, Payload: make([]byte, 40)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func reusePeer(seq uint64) transport.NodeID { return transport.NodeID(fmt.Sprintf("p%d", seq%4)) }

// TestARQRecordReuseUnderAckRetransmitRace churns each peer's record array
// while a quarter of the acks arrive around the retransmission timeout, so
// a peer's timer fires while acks shift the records under it and acks race
// retransmissions constantly; the quick acks keep the measured timeout
// near its floor. A record slot must never retransmit for, or complete, a
// message it no longer holds: every transmission is one message's own
// bytes to its own peer, none comes sooner after its message's Send than
// the floor, and every message completes exactly once, acknowledged.
func TestARQRecordReuseUnderAckRetransmitRace(t *testing.T) {
	const (
		messages, senders = 2000, 4
		timeout           = DefaultARQTimeout
	)
	var (
		arq       *ARQ
		badSends  atomic.Int64
		earlySend atomic.Int64
		began     = make([]atomic.Int64, messages) // UnixNano just before Send
		sends     = make([]atomic.Int32, messages)
	)
	send := func(to transport.NodeID, raw []byte) error {
		f, err := DecodeFrame(raw)
		if err != nil || f.Seq >= messages || f.Channel != fmt.Sprintf("c%d", f.Seq) || to != reusePeer(f.Seq) {
			badSends.Add(1)
			return nil
		}
		seq := f.Seq
		if sends[seq].Add(1) > 1 && time.Now().UnixNano()-began[seq].Load() < int64(timeout) {
			earlySend.Add(1) // a timer armed for an earlier message fired for this one
		}
		delay := rand.Int63n(int64(timeout / 20))
		if rand.Intn(4) == 0 {
			delay = int64(timeout/2) + rand.Int63n(int64(timeout))
		}
		go func() {
			time.Sleep(time.Duration(delay))
			arq.Ack(to, seq)
			if seq%3 == 0 {
				arq.Ack(to, seq) // a duplicate, as after a retransmission
			}
		}()
		return nil
	}
	arq = NewARQ(send, WithMaxRetries(1<<20))
	defer arq.Close()

	results := make([]atomic.Int32, messages)
	var failures atomic.Int64
	var wg, done sync.WaitGroup
	done.Add(messages)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := uint64(s); seq < messages; seq += senders {
				began[seq].Store(time.Now().UnixNano())
				err := arq.Send(reusePeer(seq), seq, reuseFrame(t, seq), func(err error) {
					if err != nil {
						failures.Add(1)
					}
					results[seq].Add(1)
					done.Done()
				})
				if err != nil {
					t.Errorf("send %d: %v", seq, err)
					done.Done()
				}
			}
		}(s)
	}
	wg.Wait()
	done.Wait()
	if n := badSends.Load(); n != 0 {
		t.Errorf("%d transmissions carried another message's bytes or peer", n)
	}
	if n := earlySend.Load(); n != 0 {
		t.Errorf("%d retransmissions came before their message's timeout", n)
	}
	if n := failures.Load(); n != 0 {
		t.Errorf("%d messages failed, want every one acknowledged", n)
	}
	for seq := range results {
		if n := results[seq].Load(); n != 1 {
			t.Fatalf("message %d completed %d times", seq, n)
		}
	}
	if arq.Pending() != 0 {
		t.Errorf("Pending = %d", arq.Pending())
	}
	if acked := metricstest.Counter(t, arq.reg, "arq", "acked"); acked != messages {
		t.Errorf("acked = %d, want %d", acked, messages)
	}
}

// bufLedger holds one engine to exactly the pooled buffers it took: it
// wraps the engine's clone and release and counts every buffer given back
// that the engine did not hold — a second Put of one buffer, or a Put of
// one it never took.
type bufLedger struct {
	mu      sync.Mutex
	held    map[*byte]bool
	foreign int
}

func trackBuffers(a *ARQ) *bufLedger {
	l := &bufLedger{held: make(map[*byte]bool)}
	a.clone = func(b []byte) []byte {
		c := bufpool.Clone(b)
		l.mu.Lock()
		l.held[&c[:1][0]] = true
		l.mu.Unlock()
		return c
	}
	a.release = func(b []byte) {
		l.mu.Lock()
		if id := &b[:1][0]; l.held[id] {
			delete(l.held, id)
		} else {
			l.foreign++
		}
		l.mu.Unlock()
		bufpool.Put(b)
	}
	return l
}

func (l *bufLedger) state() (held, foreign int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held), l.foreign
}

// TestARQRetainedBufferRecycledOnce checks each way a reliable send ends.
// The engine takes one pooled buffer per message and one per
// retransmission, and must give back exactly those: a second Put would hand
// one buffer to two owners, a missing one leaks it to the GC. The ledger
// watches this engine alone; the pool's idle count is shared with whatever
// else is running, such as retransmissions an earlier test's engine had
// started before it closed.
func TestARQRetainedBufferRecycledOnce(t *testing.T) {
	frame := mustFrame(t, 1)
	sendErr := errors.New("no route")
	cases := []struct {
		name string
		send SendFunc
		opts []ARQOption
		end  func(*ARQ)
		want error
	}{
		{name: "ack", send: func(transport.NodeID, []byte) error { return nil },
			opts: []ARQOption{WithClock(stillClock{})},
			end:  func(a *ARQ) { a.Ack("peer", 1) }},
		{name: "retry exhaustion", send: func(transport.NodeID, []byte) error { return nil },
			opts: []ARQOption{WithMaxRetries(3)},
			end:  func(*ARQ) {}, want: ErrTimeout},
		{name: "first transmit failure", send: func(transport.NodeID, []byte) error { return sendErr },
			end: func(*ARQ) {}, want: sendErr},
		{name: "close", send: func(transport.NodeID, []byte) error { return nil },
			opts: []ARQOption{WithClock(stillClock{})},
			end:  func(a *ARQ) { a.Close() }, want: ErrARQClosed},
		{name: "forget", send: func(transport.NodeID, []byte) error { return nil },
			opts: []ARQOption{WithClock(stillClock{})},
			end:  func(a *ARQ) { a.Forget("peer") }, want: ErrPeerForgotten},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arq := NewARQ(tc.send, tc.opts...)
			defer arq.Close()
			ledger := trackBuffers(arq)
			result := make(chan error, 1)
			if err := arq.Send("peer", 1, frame, func(err error) { result <- err }); err != nil {
				t.Fatal(err)
			}
			tc.end(arq)
			select {
			case err := <-result:
				if !errors.Is(err, tc.want) {
					t.Fatalf("result %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no result")
			}
			// A retransmission's own copy may still be on its way back.
			deadline := time.Now().Add(time.Second)
			held, foreign := ledger.state()
			for held != 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				held, foreign = ledger.state()
			}
			if held != 0 || foreign != 0 {
				t.Errorf("after the send ended the engine holds %d pooled buffers and gave back %d it did not hold, want 0 and 0", held, foreign)
			}
		})
	}
}
