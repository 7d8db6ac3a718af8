package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// maxAckDelay is how long the acknowledgment of an arrived MTCall waits for
// the call's reply, and that of an arrived reply for the next frame to its
// peer. A peer's retransmission timeout is never below
// protocol.DefaultARQTimeout (20 ms), so a held ack leaves at least
// nineteen twentieths of it before the peer would retransmit on a clean
// link.
const maxAckDelay = time.Millisecond

// heldAcks are one ingress shard's acknowledgments of arrived RPC frames
// that wait for traffic going back to their peer, which acknowledges them
// for free. As in Birrell and Nelson's RPC, the reply acknowledges its call
// and the next call acknowledges the previous reply:
//
//   - A call's ack waits for the call's reply. The caller settles the call's
//     ARQ record when the reply arrives (Node.callAnswered), and the reply's
//     transmit drops the held ack, on whatever goroutine the handler ran.
//   - A reply's ack waits for the next frame to the callee that may carry
//     it: transmit moves it into that frame's header ack block (carry). A
//     reply is sent with no completion waiter, so the wait delays nobody.
//
// The shard worker holds an ack as its frame arrives, before the engine sees
// it, and the shard's one timer sends what is still held when its delay
// runs out, as the drain batch's ack would have gone: a range MTAck on the
// bearer the frame arrived on.
type heldAcks struct {
	clk   clock.Clock
	send  func(*ackQueue) // Node.flushAcks, bound once
	fire  func()          // h.expire, bound once
	// replies counts the held reply acks, so a transmit to a peer with
	// nothing to carry skips the lock.
	replies atomic.Int32

	mu    sync.Mutex
	acks  []heldAck   // in arrival order, so by due time
	out   ackQueue    // the expired acks being sent
	timer clock.Timer // made on the first hold, re-armed with Reset
	armed bool        // the timer is pending
	// closed stops holding: the node is closing and what it holds is sent.
	closed bool
}

// heldAck is one acknowledgment waiting until due.
type heldAck struct {
	pendingAck
	due   time.Time
	pr    qos.Priority // the acknowledged frame's class
	reply bool         // it acknowledges a reply, not a call
}

// maxCarried bounds the held acks one frame carries; the rest wait for the
// next frame or their due time.
const maxCarried = 32

// carried is transmit's stack scratch for the acks one frame carries: their
// seqs, the block's range list and the copy of the frame that holds the
// block.
type carried struct {
	seqs   [maxCarried]uint64
	ranges [4 * maxCarried]byte
	frame  protocol.Frame
}

func newHeldAcks(clk clock.Clock, send func(*ackQueue)) *heldAcks {
	h := &heldAcks{clk: clk, send: send}
	h.fire = h.expire
	return h
}

// hold takes the acknowledgment of frame seq, of class pr, from peer to,
// arrived on bearer; reply says the frame is a reply rather than a call. It
// reports false once the node is closing; the caller then acknowledges at
// batch end.
func (h *heldAcks) hold(bearer string, to transport.NodeID, seq uint64, pr qos.Priority, reply bool) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false
	}
	h.acks = append(h.acks, heldAck{pendingAck{bearer: bearer, to: to, seq: seq}, h.clk.Now().Add(maxAckDelay), pr, reply})
	if reply {
		h.replies.Add(1)
	}
	if !h.armed {
		h.arm(maxAckDelay)
	}
	return true
}

// cancel drops the held acknowledgment of call seq from peer to, if any —
// its reply is leaving and acknowledges it — and reports whether it did.
func (h *heldAcks) cancel(to transport.NodeID, seq uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.acks {
		if !h.acks[i].reply && h.acks[i].seq == seq && h.acks[i].to == to {
			h.acks = slices.Delete(h.acks, i, i+1)
			return true
		}
	}
	return false
}

// carry moves into a header ack block the held reply acks that a frame of
// class pr to peer to, leaving on bearer, may carry: those of replies that
// arrived on that bearer in a class no higher than pr. The block takes at
// most room bytes; what does not fit stays held. It returns the block's
// largest seq and range list (in c), or zero when the frame carries none.
func (h *heldAcks) carry(to transport.NodeID, bearer string, pr qos.Priority, room int, c *carried) (uint64, []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	match := func(a *heldAck) bool { return a.reply && a.to == to && a.bearer == bearer && a.pr <= pr }
	seqs := c.seqs[:0]
	for i := range h.acks {
		if len(seqs) < len(c.seqs) && match(&h.acks[i]) {
			seqs = append(seqs, h.acks[i].seq)
		}
	}
	if len(seqs) == 0 {
		return 0, nil
	}
	slices.Sort(seqs)
	slices.Reverse(seqs)
	ranges, rest := protocol.AppendAckBlock(c.ranges[:0], seqs, min(room, len(c.ranges)))
	taken := seqs[:len(seqs)-len(rest)]
	if len(taken) == 0 {
		return 0, nil
	}
	before := len(h.acks)
	h.acks = slices.DeleteFunc(h.acks, func(a heldAck) bool { return match(&a) && slices.Contains(taken, a.seq) })
	h.replies.Add(int32(len(h.acks) - before))
	return taken[0], ranges
}

// forget drops every acknowledgment held for peer: its incarnation ended,
// and the next one does not expect them.
func (h *heldAcks) forget(peer transport.NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replies := int32(0)
	h.acks = slices.DeleteFunc(h.acks, func(a heldAck) bool {
		if a.to == peer && a.reply {
			replies++
		}
		return a.to == peer
	})
	h.replies.Add(-replies)
}

// arm starts the timer for d. Caller holds h.mu.
func (h *heldAcks) arm(d time.Duration) {
	h.armed = true
	if h.timer == nil {
		h.timer = h.clk.AfterFunc(d, h.fire)
		return
	}
	h.timer.Reset(d)
}

// expire is the timer's callback: it sends what is due now.
func (h *heldAcks) expire() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.armed = false
	if !h.closed {
		h.flushDue(h.clk.Now())
	}
}

// flushDue sends every held acknowledgment due by now and re-arms the timer
// for the next one. The sends run under h.mu: an ack transmit neither
// cancels nor carries a held ack, and a frame that does waits for them.
// Caller holds h.mu.
func (h *heldAcks) flushDue(now time.Time) {
	n := 0
	for n < len(h.acks) && !now.Before(h.acks[n].due) {
		h.out.acks = append(h.out.acks, h.acks[n].pendingAck)
		if h.acks[n].reply {
			h.replies.Add(-1)
		}
		n++
	}
	h.acks = slices.Delete(h.acks, 0, n)
	if len(h.acks) > 0 && !h.armed {
		h.arm(h.acks[0].due.Sub(now))
	}
	if len(h.out.acks) > 0 {
		h.send(&h.out)
	}
}

// close stops the timer and sends everything held; later holds are
// refused. A timer callback already on its way finds nothing to send.
func (h *heldAcks) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	if h.timer != nil && h.timer.Stop() {
		h.armed = false
	}
	h.flushDue(h.clk.Now().Add(maxAckDelay))
}
