package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/transport"
)

// TestARQRTOArithmetic folds a fixed sample sequence into one peer's
// estimate and checks each step against RFC 6298 §2.2–2.3 worked by hand:
// the first sample sets SRTT = R and RTTVAR = R/2, each later one moves
// RTTVAR by a quarter of its deviation from the old SRTT and SRTT by an
// eighth, and RTO = SRTT + max(G, 4·RTTVAR) with G = DefaultARQTimeout, so
// it never falls below DefaultARQTimeout.
func TestARQRTOArithmetic(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	pe := &Peer{backoff: time.Second}
	for i, step := range []struct {
		sample, srtt, rttvar, rto time.Duration
	}{
		{ms(100), ms(100), ms(50), ms(300)},
		{ms(120), ms(102.5), ms(42.5), ms(272.5)},
		{ms(80), ms(99.6875), ms(37.5), ms(249.6875)},
	} {
		pe.sample(step.sample)
		if pe.srtt != step.srtt || pe.rttvar != step.rttvar || pe.rto != step.rto {
			t.Fatalf("after sample %d (%v): srtt %v rttvar %v rto %v, want %v %v %v",
				i+1, step.sample, pe.srtt, pe.rttvar, pe.rto, step.srtt, step.rttvar, step.rto)
		}
		if pe.backoff != 0 {
			t.Fatalf("sample %d left a carried backoff of %v", i+1, pe.backoff)
		}
	}
	// A steady link drives RTTVAR to zero; the RTO keeps G above SRTT.
	for i := 0; i < 200; i++ {
		pe.sample(ms(1))
		if pe.rto < DefaultARQTimeout {
			t.Fatalf("RTO %v after %d 1 ms samples, below %v", pe.rto, i+1, DefaultARQTimeout)
		}
	}
	if want := pe.srtt + DefaultARQTimeout; pe.rttvar > ms(0.01) || pe.rto != want {
		t.Errorf("after 200 1 ms samples: rttvar %v rto %v, want about 0 and SRTT + %v = %v",
			pe.rttvar, pe.rto, DefaultARQTimeout, want)
	}
}

// rtoPeer reads the engine's estimate for peer; an unmeasured peer's RTO
// reads as DefaultARQTimeout, the one it starts messages at.
func rtoPeer(a *ARQ, peer transport.NodeID) Peer {
	if e := a.entry(peer, false); e != nil {
		defer e.mu.Unlock()
		return Peer{srtt: e.p.srtt, rttvar: e.p.rttvar, rto: max(DefaultARQTimeout, e.p.rto), measured: e.p.measured, backoff: e.p.backoff}
	}
	return Peer{}
}

// peerRecord reads record i of peer's pending messages; a negative i
// counts from the end.
func peerRecord(a *ARQ, peer transport.NodeID, i int) arqRecord {
	e := a.entry(peer, false)
	defer e.mu.Unlock()
	if i < 0 {
		i += len(e.p.recs)
	}
	return e.p.recs[i]
}

// TestARQSamplesFollowKarn runs the engine on the virtual clock. An ack
// 12 ms after the only transmission is a sample (RTO 12 + 4·6 = 36 ms); an
// ack of a message that was retransmitted is not, and the retry delay it
// armed carries over to the next message, whose ack then is a sample and
// ends the carry-over. Immediate acks measure 0 and bring the RTO down to
// DefaultARQTimeout, no lower.
func TestARQSamplesFollowKarn(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		var sends atomic.Int32
		a := NewARQ(func(transport.NodeID, []byte) error { sends.Add(1); return nil }, WithClock(v))
		defer a.Close()
		send := func(seq uint64) {
			if err := a.Send("peer", seq, mustFrame(t, seq), nil); err != nil {
				t.Fatal(err)
			}
		}

		send(1)
		v.Sleep(12 * time.Millisecond)
		a.Ack("peer", 1)
		if pe := rtoPeer(a, "peer"); !pe.measured || pe.srtt != 12*time.Millisecond || pe.rto != 36*time.Millisecond {
			t.Fatalf("after a 12 ms round trip: measured %v srtt %v rto %v, want true 12ms 36ms", pe.measured, pe.srtt, pe.rto)
		}

		// Retransmitted at 36 ms, acked at 40: no sample.
		sends.Store(0)
		send(2)
		v.Sleep(40 * time.Millisecond)
		a.Ack("peer", 2)
		if n := sends.Load(); n != 2 {
			t.Fatalf("message 2 went out %d times in 40 ms, want 2", n)
		}
		pe := rtoPeer(a, "peer")
		if pe.srtt != 12*time.Millisecond || pe.rto != 36*time.Millisecond {
			t.Fatalf("the ack of a retransmitted message moved the estimate: srtt %v rto %v", pe.srtt, pe.rto)
		}
		if want := retryDelay(36*time.Millisecond, 1); pe.backoff != want {
			t.Fatalf("carried backoff %v, want the armed retry delay %v", pe.backoff, want)
		}

		// The next message starts at the carried delay; its ack is a sample.
		send(3)
		if initial := peerRecord(a, "peer", 0).initial; initial != pe.backoff {
			t.Fatalf("message 3 starts at %v, want the carried %v", initial, pe.backoff)
		}
		v.Sleep(12 * time.Millisecond)
		a.Ack("peer", 3)
		if pe := rtoPeer(a, "peer"); pe.backoff != 0 || pe.srtt != 12*time.Millisecond {
			t.Fatalf("after a valid sample: backoff %v srtt %v, want 0 and 12ms", pe.backoff, pe.srtt)
		}

		// Immediate acks measure 0: the RTO falls to DefaultARQTimeout.
		for seq := uint64(4); seq < 200; seq++ {
			send(seq)
			a.Ack("peer", seq)
		}
		if pe := rtoPeer(a, "peer"); pe.rto-DefaultARQTimeout > time.Microsecond {
			t.Errorf("RTO %v after zero round trips, want %v", pe.rto, DefaultARQTimeout)
		}
	})
}

// TestARQBackoffCarriesWithoutCompounding sends N messages to a silent peer
// at once. Each times out and arms its first retry delay, 32 ms; the peer's
// carried backoff is the largest of them, 32 ms, not 20 ms × 1.6^N, and a
// message sent next starts there.
func TestARQBackoffCarriesWithoutCompounding(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		a := NewARQ(func(transport.NodeID, []byte) error { return nil }, WithClock(v))
		defer a.Close()
		const n = 10
		for seq := uint64(1); seq <= n; seq++ {
			if err := a.Send("peer", seq, mustFrame(t, seq), nil); err != nil {
				t.Fatal(err)
			}
		}
		v.Sleep(DefaultARQTimeout + time.Millisecond)
		want := retryDelay(DefaultARQTimeout, 1)
		if pe := rtoPeer(a, "peer"); pe.backoff != want || pe.rto != DefaultARQTimeout {
			t.Fatalf("after %d simultaneous timeouts: backoff %v rto %v, want %v and %v", n, pe.backoff, pe.rto, want, DefaultARQTimeout)
		}
		if err := a.Send("peer", n+1, mustFrame(t, n+1), nil); err != nil {
			t.Fatal(err)
		}
		if initial := peerRecord(a, "peer", -1).initial; initial != want {
			t.Errorf("the next message starts at %v, want %v", initial, want)
		}
	})
}

// TestARQForgetLeavesNothing forgets a peer with messages pending, some of
// them retransmitted: each fails with ErrPeerForgotten, the peer's entry,
// timer and pooled copies are gone, and it is sent nothing more. Another
// peer's messages, under their peer's one timer, are untouched.
func TestARQForgetLeavesNothing(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		var toPeer atomic.Int32
		a := NewARQ(func(to transport.NodeID, _ []byte) error {
			if to == "peer" {
				toPeer.Add(1)
			}
			return nil
		}, WithClock(v))
		defer a.Close()
		ledger := trackBuffers(a)
		var forgotten, other atomic.Int32
		for seq := uint64(1); seq <= 5; seq++ {
			if err := a.Send("peer", seq, mustFrame(t, seq), func(err error) {
				if errors.Is(err, ErrPeerForgotten) {
					forgotten.Add(1)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		v.Sleep(DefaultARQTimeout + time.Millisecond) // the first five retransmit
		for seq := uint64(6); seq <= 7; seq++ {
			if err := a.Send("peer", seq, mustFrame(t, seq), nil); err != nil {
				t.Fatal(err)
			}
			if err := a.Send("other", seq, mustFrame(t, seq), func(error) { other.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}

		a.Forget("peer")
		if n := forgotten.Load(); n != 5 {
			t.Errorf("%d of 5 results were ErrPeerForgotten", n)
		}
		a.mu.RLock()
		_, kept := a.peers["peer"]
		a.mu.RUnlock()
		if kept || a.Pending() != 2 {
			t.Errorf("after Forget: entry kept %v, %d pending, want false and the other peer's 2", kept, a.Pending())
		}
		if held, foreign := ledger.state(); held != 2 || foreign != 0 {
			t.Errorf("after Forget the engine holds %d pooled copies and gave back %d foreign ones, want 2 and 0", held, foreign)
		}
		if armed := v.Pending(); armed != 1 {
			t.Errorf("%d timers armed after Forget, want the other peer's one", armed)
		}
		before := toPeer.Load()
		a.Ack("other", 6)
		a.Ack("other", 7)
		v.Sleep(time.Second)
		if n := toPeer.Load() - before; n != 0 {
			t.Errorf("%d transmissions to the forgotten peer", n)
		}
		if n := other.Load(); n != 2 {
			t.Errorf("%d of the other peer's messages completed, want 2", n)
		}
	})
}

// TestARQForgetRecycle races Forget against acks and retransmissions, and
// against senders making each forgotten peer's entry anew: senders stream
// messages to four peers, a quarter of the acks arrive around the
// retransmission timeout, and a forgetter drops a random peer every
// millisecond. Every message completes
// exactly once, acknowledged or forgotten; no transmission carries another
// message's bytes or goes to another peer; and once the last completes the
// engine holds no record and no pooled copy.
func TestARQForgetRecycle(t *testing.T) {
	const messages, senders = 2000, 4
	var (
		arq      *ARQ
		badSends atomic.Int64
	)
	send := func(to transport.NodeID, raw []byte) error {
		f, err := DecodeFrame(raw)
		if err != nil || f.Seq >= messages || f.Channel != fmt.Sprintf("c%d", f.Seq) || to != reusePeer(f.Seq) {
			badSends.Add(1)
			return nil
		}
		delay := rand.Int63n(int64(DefaultARQTimeout / 20))
		if rand.Intn(4) == 0 {
			delay = int64(DefaultARQTimeout/2) + rand.Int63n(int64(DefaultARQTimeout))
		}
		go func() {
			time.Sleep(time.Duration(delay))
			arq.Ack(to, f.Seq)
		}()
		return nil
	}
	arq = NewARQ(send, WithMaxRetries(1<<20))
	defer arq.Close()
	ledger := trackBuffers(arq)

	stop := make(chan struct{})
	forgetter := make(chan struct{})
	go func() {
		defer close(forgetter)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				arq.Forget(reusePeer(uint64(rand.Intn(4))))
			}
		}
	}()

	results := make([]atomic.Int32, messages)
	var acked, forgotten, other atomic.Int64
	var wg, done sync.WaitGroup
	done.Add(messages)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := uint64(s); seq < messages; seq += senders {
				err := arq.Send(reusePeer(seq), seq, reuseFrame(t, seq), func(err error) {
					switch {
					case err == nil:
						acked.Add(1)
					case errors.Is(err, ErrPeerForgotten):
						forgotten.Add(1)
					default:
						other.Add(1)
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
	close(stop)
	<-forgetter
	if n := badSends.Load(); n != 0 {
		t.Errorf("%d transmissions carried another message's bytes or peer", n)
	}
	if n := other.Load(); n != 0 {
		t.Errorf("%d messages failed otherwise than by Forget", n)
	}
	for seq := range results {
		if n := results[seq].Load(); n != 1 {
			t.Fatalf("message %d completed %d times", seq, n)
		}
	}
	if arq.Pending() != 0 {
		t.Errorf("Pending = %d", arq.Pending())
	}
	// A retransmission's own copy may still be on its way back.
	deadline := time.Now().Add(time.Second)
	held, foreign := ledger.state()
	for held != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		held, foreign = ledger.state()
	}
	if held != 0 || foreign != 0 {
		t.Errorf("the engine holds %d pooled copies and gave back %d it did not hold, want 0 and 0", held, foreign)
	}
	t.Logf("%d acknowledged, %d forgotten", acked.Load(), forgotten.Load())
}
