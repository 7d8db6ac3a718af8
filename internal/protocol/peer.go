package protocol

import (
	"fmt"
	"slices"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/encoding"
	"uavmw/internal/qos"
)

// Peer is everything the reliable path keeps for one remote node: the
// messages sent to it and not yet acknowledged, its round-trip estimate,
// the seqs received from it, the acks held for traffic back to it and its
// partial messages. It has no lock, clock or goroutine: its methods take
// now and return what to send, deliver or complete, and Deadline says when
// it next needs OnTimer. ARQ keeps each Peer under one lock and one timer.
type Peer struct {
	// recs are the pending messages in ascending seq order, so a range ack
	// finds the ones it completes by binary search; next is no later than
	// the first timeout among them, and zero when there are none.
	recs []arqRecord
	next time.Time
	// The RFC 6298 estimate; rto is zero until measured.
	srtt, rttvar, rto time.Duration
	measured          bool
	// backoff is the longest retry delay armed since the last sample; new
	// messages start at no less (RFC 6298 §5.7), or a peer whose round
	// trip exceeds the RTO would never yield a Karn-valid sample.
	backoff time.Duration
	probes  int // records examined finding messages to complete

	window  dedupWindow // the seqs received, allocated on the first
	held    []HeldAck   // by due time
	replies int         // reply acks among held
	// partials are the messages being reassembled, the one touched last at
	// the end, and partialBytes their charge against reassemblyBudget.
	partials     []partial
	partialBytes int
}

// arqRecord is one unacknowledged message and the owner's pooled copy of
// its datagram. An ack of a message never retransmitted measures from sent
// (Karn); retries back off from initial, the first timeout.
type arqRecord struct {
	Message
	attempt int // retransmissions so far
	sent    time.Time
	initial time.Duration
	due     time.Time // the next timeout
}

// Message is a message a Peer hands back, to retransmit or ended.
type Message struct {
	Seq    uint64
	Frame  []byte
	Result ResultFunc
}

// HeldAck is the ack of an arrived call or reply that waits, up to
// MaxAckDelay, for its call's reply or the next frame that may carry it.
type HeldAck struct {
	Bearer   string // the bearer the frame arrived on, which the ack takes
	Seq      uint64
	Priority qos.Priority // the acknowledged frame's class
	Reply    bool         // it acknowledges a reply, not a call
	due      time.Time
}

// MaxAckDelay is how long an ack is held: a twentieth of the least
// retransmission timeout, DefaultARQTimeout.
const MaxAckDelay = time.Millisecond

// Due is what OnTimer and Drain hand back. Resend's frames alias the
// Peer's records: the caller sends them before it uses the Peer again.
type Due struct {
	Resend []Message
	Failed []Message // out of retries, or drained
	Acks   []HeldAck // held acks to send now
}

// sample folds one round trip into the estimate (RFC 6298 §2.2–2.3, α =
// 1/8, β = 1/4, K = 4) and ends any carried backoff. The RFC's granularity
// term G is DefaultARQTimeout: a steady link drives RTTVAR to zero, and an
// RTO of the bare SRTT fires at the first frame queued ahead of a message.
func (p *Peer) sample(rtt time.Duration) {
	if !p.measured {
		p.srtt, p.rttvar, p.measured = rtt, rtt/2, true
	} else {
		p.rttvar += (max(p.srtt-rtt, rtt-p.srtt) - p.rttvar) / 4
		p.srtt += (rtt - p.srtt) / 8
	}
	p.rto = p.srtt + max(DefaultARQTimeout, 4*p.rttvar)
	p.backoff = 0
}

// Send records message seq, first transmitted at now, whose retained
// datagram is frame and whose outcome result reports. It records nothing
// and reports false when seq is pending.
func (p *Peer) Send(now time.Time, seq uint64, frame []byte, result ResultFunc) bool {
	i := p.search(seq)
	if i < len(p.recs) && p.recs[i].Seq == seq {
		return false
	}
	initial := max(DefaultARQTimeout, p.rto, p.backoff)
	p.recs = slices.Insert(p.recs, i, arqRecord{Message: Message{seq, frame, result}, sent: now, initial: initial, due: now.Add(initial)})
	p.next = earlier(p.next, now.Add(initial))
	return true
}

// Ack ends the first pending message whose seq lies in [lo, hi], in one
// binary search whatever the width of the range. Acknowledged at a non-zero
// now, a message never retransmitted is a round-trip sample.
func (p *Peer) Ack(now time.Time, lo, hi uint64) (Message, bool) {
	i := p.search(lo)
	if i == len(p.recs) || p.recs[i].Seq > hi {
		return Message{}, false
	}
	if p.recs[i].attempt == 0 && !now.IsZero() {
		p.sample(now.Sub(p.recs[i].sent))
	}
	return p.remove(i), true
}

// maxIdleRecords bounds the record array an idle Peer keeps, so a burst
// leaves no lasting footprint.
const maxIdleRecords = 64

func (p *Peer) remove(i int) Message {
	m := p.recs[i].Message
	if p.recs = slices.Delete(p.recs, i, i+1); len(p.recs) == 0 {
		p.next = time.Time{}
		if cap(p.recs) > maxIdleRecords {
			p.recs = nil
		}
	}
	return m
}

// search returns the index of the first record whose seq is at least lo.
// A seq outside the span of the records costs one probe.
func (p *Peer) search(lo uint64) int {
	recs := p.recs
	n := len(recs)
	p.probes++
	if n == 0 || lo <= recs[0].Seq {
		return 0
	}
	if lo > recs[n-1].Seq {
		return n
	}
	i, j := 1, n-1 // recs[0] < lo <= recs[n-1]
	for i < j {
		p.probes++
		h := int(uint(i+j) >> 1)
		if recs[h].Seq < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// OnTimer appends to out what is due at now: a message whose timeout ran
// out is retransmitted with backoff, or fails once retransmitted
// maxRetries times, and a held ack whose delay ran out is sent. A partial
// message untouched for ReassemblyTTL is dropped.
func (p *Peer) OnTimer(now time.Time, maxRetries int, out *Due) {
	kept := p.recs[:0]
	p.next = time.Time{}
	for _, r := range p.recs {
		switch {
		case now.Before(r.due):
		case r.attempt >= maxRetries:
			out.Failed = append(out.Failed, r.Message)
			continue
		default:
			r.attempt++
			delay := retryDelay(r.initial, r.attempt)
			p.backoff = max(p.backoff, delay)
			r.due = now.Add(delay)
			out.Resend = append(out.Resend, Message{Seq: r.Seq, Frame: r.Frame})
		}
		kept = append(kept, r)
		p.next = earlier(p.next, r.due)
	}
	clear(p.recs[len(kept):])
	p.recs = kept

	n := 0
	for n < len(p.held) && !now.Before(p.held[n].due) {
		n++
	}
	p.takeHeld(n, out)

	for len(p.partials) > 0 && now.After(p.partials[0].deadline) {
		p.evict()
	}
}

// takeHeld moves the first n held acks to out.
func (p *Peer) takeHeld(n int, out *Due) {
	for _, a := range p.held[:n] {
		if a.Reply {
			p.replies--
		}
	}
	out.Acks = append(out.Acks, p.held[:n]...)
	p.held = slices.Delete(p.held, 0, n)
}

// Deadline is when the Peer next needs OnTimer, no later than the earliest
// of its pending messages' timeouts, its held acks' due times and its
// partial messages' expiry; zero when nothing waits on time. An ack can
// leave it early: OnTimer then finds nothing due.
func (p *Peer) Deadline() time.Time {
	at := p.next
	if len(p.held) > 0 {
		at = earlier(at, p.held[0].due)
	}
	if len(p.partials) > 0 {
		// OnTimer drops a partial message once now is after its deadline.
		at = earlier(at, p.partials[0].deadline.Add(time.Nanosecond))
	}
	return at
}

// earlier returns the earlier of a and b, or b when a is zero.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || b.Before(a) {
		return b
	}
	return a
}

// Drain ends everything in the Peer that waits on time: the pending
// messages go to out.Failed, the held acks to out.Acks, and the partial
// messages are dropped.
func (p *Peer) Drain(out *Due) {
	for _, r := range p.recs {
		out.Failed = append(out.Failed, r.Message)
	}
	p.recs, p.next = nil, time.Time{}
	p.takeHeld(len(p.held), out)
	p.partials, p.partialBytes = nil, 0
}

// Seen records seq as received and reports whether the window of the last
// DefaultDedupWindow seqs received already held it.
func (p *Peer) Seen(seq uint64) bool { return p.window.seen(seq, DefaultDedupWindow) }

// Hold holds ack, of a frame that arrived at now, until now + MaxAckDelay.
func (p *Peer) Hold(now time.Time, ack HeldAck) {
	ack.due = now.Add(MaxAckDelay)
	p.held = append(p.held, ack)
	if ack.Reply {
		p.replies++
	}
}

// Cancel drops the held acknowledgment of call seq, if any — its reply is
// leaving and acknowledges it — and reports whether it did.
func (p *Peer) Cancel(seq uint64) bool {
	i := slices.IndexFunc(p.held, func(a HeldAck) bool { return !a.Reply && a.Seq == seq })
	if i >= 0 {
		p.held = slices.Delete(p.held, i, i+1)
	}
	return i >= 0
}

// maxCarried bounds the held acks one frame carries; the rest wait for the
// next frame or their due time.
const maxCarried = 32

// AckBlock is Carry's scratch: the seqs one frame carries and their range
// list.
type AckBlock struct {
	seqs   [maxCarried]uint64
	ranges [4 * maxCarried]byte
}

// Carry moves into a header ack block, of at most room bytes, the held
// acks of replies that arrived on bearer in a class no higher than pr, for
// a frame of class pr leaving on it. It returns the block's largest seq
// and range list (in b), or zero when the frame carries none.
func (p *Peer) Carry(bearer string, pr qos.Priority, room int, b *AckBlock) (uint64, []byte) {
	match := func(a *HeldAck) bool { return a.Reply && a.Bearer == bearer && a.Priority <= pr }
	seqs := b.seqs[:0]
	for i := range p.held {
		if len(seqs) < len(b.seqs) && match(&p.held[i]) {
			seqs = append(seqs, p.held[i].Seq)
		}
	}
	if len(seqs) == 0 {
		return 0, nil
	}
	slices.Sort(seqs)
	slices.Reverse(seqs)
	ranges, rest := AppendAckBlock(b.ranges[:0], seqs, min(room, len(b.ranges)))
	taken := seqs[:len(seqs)-len(rest)]
	if len(taken) == 0 {
		return 0, nil
	}
	before := len(p.held)
	p.held = slices.DeleteFunc(p.held, func(a HeldAck) bool { return match(&a) && slices.Contains(taken, a.Seq) })
	p.replies -= before - len(p.held)
	return taken[0], ranges
}

// ReassemblyTTL bounds how long a partial message waits for its next
// fragment.
const ReassemblyTTL = 5 * time.Second

// reassemblyBudget bounds what one peer's partial messages hold, each
// charged partialCharge: a fragment past it evicts the peer's longest
// untouched partial messages, whatever fragment counts they name. A
// legitimate peer needs far less (a 200-record discovery snapshot is
// ~27 KB). It also caps one message: Split refuses one it could not hold
// whole, at the default MTU one of about 1 MB. Messages from one peer in
// reassembly at once that together pass it evict each other, the oldest
// first, their reliable fragments already acknowledged.
const (
	reassemblyBudget = 1 << 20
	partialCost      = 96
	fragmentCost     = 32
)

// partialCharge is what a partial message of n bytes in frags fragments is
// charged against reassemblyBudget.
func partialCharge(n, frags int) int { return partialCost + n + frags*fragmentCost }

// partial is one message being reassembled: its fragments so far, by index.
type partial struct {
	msgID    uint64
	total    int
	frags    []fragment
	bytes    int
	deadline time.Time
}

type fragment struct {
	index int
	data  []byte
}

// evict drops the partial message untouched longest.
func (p *Peer) evict() {
	p.partialBytes -= p.partials[0].bytes
	p.partials = slices.Delete(p.partials, 0, 1)
}

// Offer consumes one MTFragment frame that arrived at now and returns the
// reassembled original frame when it was the last missing fragment.
// evicted counts the partial messages it pushed out of the budget.
func (p *Peer) Offer(now time.Time, f *Frame) (msg []byte, evicted int, err error) {
	if f.Type != MTFragment {
		return nil, 0, fmt.Errorf("protocol: reassembler got %v: %w", f.Type, ErrBadFrame)
	}
	r := encoding.NewReader(f.Payload)
	msgID := r.Uint64()
	index := int(r.Uint16())
	total := int(r.Uint16())
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("protocol: fragment header: %w", err)
	}
	if total == 0 || total > maxFragments || index >= total {
		return nil, 0, fmt.Errorf("protocol: fragment %d/%d: %w", index, total, ErrBadFrame)
	}
	data := r.Raw(r.Remaining())

	m := partial{msgID: msgID, total: total, bytes: partialCharge(0, 0)}
	if i := slices.IndexFunc(p.partials, func(m partial) bool { return m.msgID == msgID }); i >= 0 {
		// A different shape means the sender restarted the id: start over.
		if p.partials[i].total == total {
			m = p.partials[i]
		}
		p.partialBytes -= p.partials[i].bytes
		p.partials = slices.Delete(p.partials, i, i+1)
	}
	m.deadline = now.Add(ReassemblyTTL)
	if j, dup := slices.BinarySearchFunc(m.frags, index, func(g fragment, i int) int { return g.index - i }); !dup {
		// Fragment data aliases the receive buffer, which is recycled the
		// moment the handler returns; reassembly state must own its bytes.
		m.frags = slices.Insert(m.frags, j, fragment{index, bufpool.Copy(data)})
		m.bytes += len(data) + fragmentCost
	}
	if len(m.frags) == total {
		//wirepath:alloc the reassembled frame is handed to the receive path, which owns it
		out := make([]byte, 0, m.bytes-partialCharge(0, total))
		for _, g := range m.frags {
			out = append(out, g.data...)
		}
		return out, 0, nil
	}
	p.partials = append(p.partials, m)
	for p.partialBytes += m.bytes; p.partialBytes > reassemblyBudget; evicted++ {
		p.evict()
	}
	return nil, evicted, nil
}
