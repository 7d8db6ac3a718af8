package core

import (
	"slices"
	"sync"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/transport"
)

// maxAckDelay bounds how long the acknowledgment of an arrived MTCall waits
// for the call's reply. A node holds it for min(maxAckDelay, its first ARQ
// timeout ÷ 4): with the default 20 ms timeout that is 1 ms, so a held ack
// leaves at least three quarters of the caller's first timeout before the
// caller would retransmit the call on a clean link.
const maxAckDelay = time.Millisecond

// heldAcks are one ingress shard's acknowledgments of arrived MTCalls that
// wait for their replies. An RPC reply acknowledges its call, as in Birrell
// and Nelson's RPC: the caller settles the call's ARQ record when the reply
// arrives (Node.callAnswered), so a call answered within the delay needs no
// ack datagram of its own. The shard worker holds the ack as the call
// arrives, before the engine sees it; the reply's transmit cancels it, on
// whatever goroutine the handler ran; and the shard's one timer sends what
// is still held when its delay runs out, as the drain batch's ack would
// have gone: a range MTAck on the bearer the call arrived on.
type heldAcks struct {
	clk   clock.Clock
	delay time.Duration
	send  func(*ackQueue) // Node.flushAcks, bound once
	fire  func()          // h.expire, bound once

	mu    sync.Mutex
	acks  []heldAck   // in arrival order, so by due time
	out   ackQueue    // the expired acks being sent
	timer clock.Timer // made on the first hold, re-armed with Reset
	armed bool        // the timer is pending
	// closed stops holding: the node is closing and what it holds is sent.
	closed bool
}

// heldAck is one call acknowledgment waiting for its reply until due.
type heldAck struct {
	pendingAck
	due time.Time
}

func newHeldAcks(clk clock.Clock, delay time.Duration, send func(*ackQueue)) *heldAcks {
	h := &heldAcks{clk: clk, delay: delay, send: send}
	h.fire = h.expire
	return h
}

// hold takes the acknowledgment of call seq from peer to, arrived on
// bearer. It reports false once the node is closing; the caller then
// acknowledges at batch end.
func (h *heldAcks) hold(bearer string, to transport.NodeID, seq uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false
	}
	h.acks = append(h.acks, heldAck{pendingAck{bearer: bearer, to: to, seq: seq}, h.clk.Now().Add(h.delay)})
	if !h.armed {
		h.arm(h.delay)
	}
	return true
}

// cancel drops the held acknowledgment of call seq from peer to, if any —
// its reply is leaving and acknowledges it — and reports whether it did.
func (h *heldAcks) cancel(to transport.NodeID, seq uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.acks {
		if h.acks[i].seq == seq && h.acks[i].to == to {
			h.acks = slices.Delete(h.acks, i, i+1)
			return true
		}
	}
	return false
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
// for the next one. The sends run under h.mu: an ack transmit never cancels
// a held ack, and a reply that does waits for them. Caller holds h.mu.
func (h *heldAcks) flushDue(now time.Time) {
	n := 0
	for n < len(h.acks) && !now.Before(h.acks[n].due) {
		h.out.acks = append(h.out.acks, h.acks[n].pendingAck)
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
	h.flushDue(h.clk.Now().Add(h.delay))
}
