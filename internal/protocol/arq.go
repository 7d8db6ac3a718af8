package protocol

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// ARQ wire-path error codes. Every failure the engine reports (or used to
// swallow — retransmission sends) is typed and counted in the node
// registry's "arq.errors" family.
var (
	codeARQClosed  = uerr.Register("arq.closed_engine", uerr.CatResource)
	codeARQDupSeq  = uerr.Register("arq.duplicate_seq", uerr.CatProtocol)
	codeARQAckWait = uerr.Register("arq.ack_wait", uerr.CatTimeout)
	codeARQFirstTx = uerr.Register("arq.first_transmit", uerr.CatSend)
	codeARQRetryTx = uerr.Register("arq.retransmit", uerr.CatSend)
	codeARQForgot  = uerr.Register("arq.peer_forgotten", uerr.CatResource)

	codeReassemblyEvicted = uerr.Register("protocol.reassembly_evicted", uerr.CatAdmission)
)

// ARQ is the application-level acknowledgment/retransmission engine the
// paper maps events onto when they run over UDP: "a mechanism to
// acknowledge and resend lost packets ... more efficient for event messages
// than the generic case provided by the TCP stack" (§4.2).
//
// It is a table of Peers, one per remote node, each under its own lock and
// one clock timer. A message is retransmitted with exponential backoff
// from its peer's RTO, measured from the peer's acks as RFC 6298
// describes, until acknowledged or out of retries; arrivals are deduped,
// and the acks of calls and replies held for the traffic that carries them
// for free. ARQ is message-oriented, not stream-oriented: each message is
// acknowledged independently, so one lost packet never head-of-line blocks
// the messages behind it — the efficiency argument experiment E2 measures.
type ARQ struct {
	send       SendFunc
	clk        clock.Clock
	maxRetries int
	// clone and release take and give back the engine's pooled copies of
	// datagrams: bufpool.Clone and bufpool.Put, which tests wrap to hold
	// one engine to exactly the buffers it took.
	clone   func([]byte) []byte
	release func([]byte)
	acksDue func(to transport.NodeID, acks []HeldAck) // OnAcksDue

	mu     sync.RWMutex
	peers  map[transport.NodeID]*peerEntry
	closed bool
	// sending counts timer runs past their peer's lock and not yet done
	// with their sends and completions; Close waits for them.
	sending *clock.WaitGroup

	reg *metrics.Registry
	// stats are the "arq" counters MetricsSnapshot exports, resolved once.
	stats struct{ sent, retransmits, acked, failed *metrics.Counter }
}

// peerEntry is one Peer with its lock and timer. It outlives the Peer's
// messages, so the round-trip estimate and the dedup window carry over;
// Forget drops it. Its timer is made when first armed, bound to onTimer,
// and re-armed with Reset; armed is the instant it is set for, or zero.
type peerEntry struct {
	a       *ARQ
	id      transport.NodeID
	mu      sync.Mutex
	p       Peer
	gone    bool // out of the table: a caller that found it looks again
	timer   clock.Timer
	armed   time.Time
	due     Due          // onTimer's scratch, taken by the run that uses it
	replies atomic.Int32 // the Peer's held reply acks, read unlocked
}

// SendFunc transmits a raw frame to a peer; the ARQ engine owns retries.
// frame is lent for the duration of the call only: an implementation that
// defers the transmission copies it first (egress.Plane.Enqueue does).
type SendFunc func(to transport.NodeID, frame []byte) error

// ResultFunc reports the final outcome of a reliable send: nil on ACK, or
// ErrTimeout / transport errors after the retry budget is spent.
type ResultFunc func(err error)

// Errors.
var (
	// ErrTimeout reports a message that exhausted its retries unacked.
	ErrTimeout = errors.New("arq timeout")
	// ErrARQClosed reports use after Close.
	ErrARQClosed = errors.New("arq closed")
	// ErrPeerForgotten reports a message whose peer Forget dropped: the
	// peer failed, left or came back as a new incarnation.
	ErrPeerForgotten = errors.New("arq peer forgotten")
)

// DefaultARQTimeout is the RTO of a peer with no sample yet and the least
// margin a measured RTO keeps above SRTT; DefaultARQRetries is the budget
// unless WithMaxRetries sets one.
const (
	DefaultARQTimeout = 20 * time.Millisecond
	DefaultARQRetries = 8
)

// arqBackoff multiplies the retransmission timeout between attempts.
const arqBackoff = 1.6

// arqMaxDelay caps the backed-off retransmission timeout: RFC 6298 §2.5
// allows a maximum RTO of no less than 60 s. The default budget (8
// retries from 20 ms, at most ~0.86 s) never reaches it; without it a
// large retry budget overflows the delay to a negative duration and spends
// itself in a burst.
const arqMaxDelay = 60 * time.Second

// retryDelay is the timeout before retransmission attempt+1 of a message
// whose first timeout was initial: initial × arqBackoff^attempt, capped at
// arqMaxDelay, or at initial when that is longer.
func retryDelay(initial time.Duration, attempt int) time.Duration {
	ceiling := max(initial, arqMaxDelay)
	delay := initial
	for i := 0; i < attempt && delay < ceiling; i++ {
		delay = time.Duration(float64(delay) * arqBackoff)
	}
	return min(delay, ceiling)
}

// ARQOption customizes the engine.
type ARQOption func(*ARQ)

// WithMaxRetries sets the retransmission budget.
func WithMaxRetries(n int) ARQOption {
	return func(a *ARQ) {
		if n > 0 {
			a.maxRetries = n
		}
	}
}

// WithClock sets the time source for retransmission timers (default:
// the wall clock).
func WithClock(c clock.Clock) ARQOption {
	return func(a *ARQ) {
		if c != nil {
			a.clk = c
		}
	}
}

// WithMetrics lands the engine's counters and typed-error families in the
// given registry — the container passes the node registry so ARQ activity
// shows up in MetricsSnapshot. Without it the engine keeps a private
// registry and bare uses work unchanged.
func WithMetrics(reg *metrics.Registry) ARQOption {
	return func(a *ARQ) {
		if reg != nil {
			a.reg = reg
		}
	}
}

// NewARQ builds an engine that transmits via send. No send is made under a
// lock of the engine: send may wait, and may call it.
func NewARQ(send SendFunc, opts ...ARQOption) *ARQ {
	a := &ARQ{
		send:       send,
		clk:        clock.Real{},
		maxRetries: DefaultARQRetries,
		clone:      bufpool.Clone,
		release:    bufpool.Put,
		peers:      make(map[transport.NodeID]*peerEntry),
	}
	for _, opt := range opts {
		opt(a)
	}
	if a.reg == nil {
		a.reg = metrics.NewRegistry()
	}
	s := &a.stats
	s.sent, s.retransmits = a.reg.Counter("arq", "sent"), a.reg.Counter("arq", "retransmits")
	s.acked, s.failed = a.reg.Counter("arq", "acked"), a.reg.Counter("arq", "failed")
	a.sending = clock.NewWaitGroup(a.clk)
	return a
}

// OnAcksDue is how a peer's held acks leave when their delay runs out or
// the engine closes; an engine that holds acks (Arrive with hold) needs
// it. Set it before the first Arrive.
func (a *ARQ) OnAcksDue(send func(to transport.NodeID, acks []HeldAck)) { a.acksDue = send }

// entry returns peer's entry locked, making it when create is set, or nil
// when there is none or the engine is closed.
func (a *ARQ) entry(peer transport.NodeID, create bool) *peerEntry {
	for {
		a.mu.RLock()
		e := a.peers[peer]
		a.mu.RUnlock()
		if e == nil && create {
			a.mu.Lock()
			if e = a.peers[peer]; e == nil && !a.closed {
				e = &peerEntry{a: a, id: peer}
				a.peers[peer] = e
			}
			a.mu.Unlock()
		}
		if e == nil {
			return nil
		}
		if e.mu.Lock(); !e.gone {
			return e
		}
		e.mu.Unlock() // forgotten since the lookup
	}
}

// with runs op on peer's Peer under its lock, making the entry when create
// is set, and reports false when there is none or the engine is closed.
func (a *ARQ) with(peer transport.NodeID, create bool, op func(*Peer)) bool {
	e := a.entry(peer, create)
	if e != nil {
		op(&e.p)
		e.unlock()
	}
	return e != nil
}

// unlock ends an operation on the entry: the Peer's held reply count is
// published, and the timer is armed for the Peer's deadline when that
// comes before the instant it is set for, or stopped when the Peer has
// none. Caller holds e.mu, which it releases.
func (e *peerEntry) unlock() {
	e.replies.Store(int32(e.p.replies))
	switch at := e.p.Deadline(); {
	case at.IsZero() && !e.armed.IsZero():
		e.timer.Stop()
		e.armed = time.Time{}
	case !at.IsZero() && (e.armed.IsZero() || at.Before(e.armed)):
		if d := at.Sub(e.a.clk.Now()); e.timer == nil {
			e.timer = e.a.clk.AfterFunc(d, e.onTimer)
		} else {
			e.timer.Reset(d)
		}
		e.armed = at
	}
	e.mu.Unlock()
}

// Send transmits frame to peer reliably. seq must be unique per (peer,
// message); result is invoked exactly once from a timer or Ack goroutine.
// frame stays the caller's: the engine keeps its own pooled copy for
// retransmission.
func (a *ARQ) Send(to transport.NodeID, seq uint64, frame []byte, result ResultFunc) error {
	e := a.entry(to, true)
	if e == nil {
		return uerr.Wrap(a.reg, codeARQClosed, ErrARQClosed, "send refused")
	}
	retained := a.clone(frame)
	if !e.p.Send(a.clk.Now(), seq, retained, result) {
		e.unlock()
		a.release(retained)
		return uerr.Newf(a.reg, codeARQDupSeq, "in-flight seq %d to %q", seq, to)
	}
	e.unlock()
	a.stats.sent.Inc()
	// The first transmission goes out from the caller's buffer, which no
	// ack, timer or Close can release underneath it, outside the lock.
	if err := a.send(to, frame); err != nil {
		// It failed outright (unknown node, closed transport): fail fast
		// rather than burning the retry budget.
		a.end(to, seq, seq, uerr.Wrap(a.reg, codeARQFirstTx, err, "first transmission"))
	}
	return nil // outcome reported via result
}

// onTimer is the entry's timer callback. It takes what is due under the
// lock and sends it outside: a send may wait (a bulk frame, for room in
// its lane), and the peer's arrivals must not wait with it.
func (e *peerEntry) onTimer() {
	a := e.a
	e.mu.Lock()
	if e.gone {
		e.mu.Unlock()
		return
	}
	e.armed = time.Time{}
	// A run that starts while this one sends takes a fresh scratch.
	due := e.due
	e.due = Due{}
	e.p.OnTimer(a.clk.Now(), a.maxRetries, &due)
	for i := range due.Resend {
		// An ack may release the record's frame once the lock drops.
		due.Resend[i].Frame = a.clone(due.Resend[i].Frame)
	}
	a.sending.Add(1)
	e.unlock()
	defer a.sending.Done()

	for _, m := range due.Resend {
		a.stats.retransmits.Inc()
		// A transient failure retries on the next timer, but it is counted,
		// not discarded: a bearer blackout shows up as arq.retransmit send
		// errors long before retry budgets start expiring.
		uerr.Note(a.reg, codeARQRetryTx, a.send(e.id, m.Frame), "retransmission")
		a.release(m.Frame)
	}
	if len(due.Acks) > 0 {
		a.acksDue(e.id, due.Acks)
	}
	for _, m := range due.Failed {
		a.stats.failed.Inc()
		a.complete(m, uerr.Wrapf(a.reg, codeARQAckWait, ErrTimeout,
			"seq %d to %q after %d attempts", m.Seq, e.id, a.maxRetries+1))
	}
	e.mu.Lock()
	e.due = Due{Resend: due.Resend[:0], Acks: due.Acks[:0]}
	e.mu.Unlock()
}

// complete gives back m's retained datagram and reports err to its result.
func (a *ARQ) complete(m Message, err error) {
	a.release(m.Frame)
	if m.Result != nil {
		m.Result(err)
	}
}

// Ack completes the message (peer, seq); safe to call for unknown keys
// (late or duplicate ACKs).
func (a *ARQ) Ack(from transport.NodeID, seq uint64) {
	a.end(from, seq, seq, nil)
}

// AckRange completes every pending message to from whose seq lies in
// [lo, hi]. Its cost follows the messages it completes, not the width of
// the range: one binary search of from's pending records per completed
// message, plus one for the range, so a range claiming thousands of seqs
// that were never sent costs a single search.
func (a *ARQ) AckRange(from transport.NodeID, lo, hi uint64) {
	for {
		m, ok := a.end(from, lo, hi, nil)
		if !ok || m.Seq == hi {
			return
		}
		lo = m.Seq + 1
	}
}

// end ends, exactly once, the first pending message to `to` whose seq lies
// in [lo, hi] — acknowledged when err is nil — and reports it. Its
// result runs outside the lock.
func (a *ARQ) end(to transport.NodeID, lo, hi uint64, err error) (m Message, ok bool) {
	var now time.Time // a failure is no round-trip sample
	if err == nil {
		now = a.clk.Now()
	}
	a.with(to, false, func(p *Peer) { m, ok = p.Ack(now, lo, hi) })
	if ok && err == nil {
		a.stats.acked.Inc()
	}
	if ok {
		a.complete(m, err)
	}
	return m, ok
}

// Arrive records that ack-required frame ack.Seq from peer arrived at now
// and reports whether it is a duplicate (Peer.Seen). With hold set, a first
// copy's ack is held (Peer.Hold) and leaves through OnAcksDue; when held
// is false the caller acknowledges the frame itself.
func (a *ARQ) Arrive(now time.Time, from transport.NodeID, ack HeldAck, hold bool) (dup, held bool) {
	a.with(from, true, func(p *Peer) {
		dup = p.Seen(ack.Seq)
		if held = hold && !dup; held {
			p.Hold(now, ack)
		}
	})
	return dup, held
}

// Cancel is Peer.Cancel on peer's Peer.
func (a *ARQ) Cancel(peer transport.NodeID, seq uint64) (ok bool) {
	a.with(peer, false, func(p *Peer) { ok = p.Cancel(seq) })
	return ok
}

// HeldReplies reports the reply acks held for peer: while it is zero, no
// frame to peer has any to carry.
func (a *ARQ) HeldReplies(peer transport.NodeID) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if e := a.peers[peer]; e != nil {
		return int(e.replies.Load())
	}
	return 0
}

// Carry is Peer.Carry on peer's Peer.
func (a *ARQ) Carry(peer transport.NodeID, bearer string, pr qos.Priority, room int, b *AckBlock) (largest uint64, ranges []byte) {
	a.with(peer, false, func(p *Peer) { largest, ranges = p.Carry(bearer, pr, room, b) })
	return largest, ranges
}

// Offer is Peer.Offer on from's Peer. A partial message the fragment
// evicts is counted under protocol.errors{admission}.
func (a *ARQ) Offer(now time.Time, from transport.NodeID, f *Frame) (msg []byte, err error) {
	var evicted int
	if !a.with(from, true, func(p *Peer) { msg, evicted, err = p.Offer(now, f) }) {
		return nil, uerr.Wrap(a.reg, codeARQClosed, ErrARQClosed, "fragment refused")
	}
	for ; evicted > 0; evicted-- {
		_ = uerr.New(a.reg, codeReassemblyEvicted, "partial message evicted past the peer's reassembly budget")
	}
	return msg, err
}

// Forget drops peer's Peer: its pending messages fail with
// ErrPeerForgotten, and a new incarnation starts from DefaultARQTimeout,
// seq 1 and no held acks or partial messages.
func (a *ARQ) Forget(peer transport.NodeID) {
	a.mu.Lock()
	e := a.peers[peer]
	delete(a.peers, peer)
	a.mu.Unlock()
	if e != nil {
		var out Due
		e.retire(&out)
		a.fail(out.Failed, codeARQForgot, ErrPeerForgotten, "peer forgotten")
	}
}

// retire takes the entry out of service: its Peer drains into out.
func (e *peerEntry) retire(out *Due) {
	e.mu.Lock()
	e.gone = true
	e.p.Drain(out)
	e.unlock()
}

// fail completes dropped messages with a typed, counted error each.
func (a *ARQ) fail(ms []Message, code uerr.Code, sentinel error, msg string) {
	for _, m := range ms {
		a.complete(m, uerr.Wrap(a.reg, code, sentinel, msg))
	}
}

// Pending reports the unacknowledged messages to every peer.
func (a *ARQ) Pending() int { return a.sum(func(p *Peer) int { return len(p.recs) }) }

// HeldAcks reports the acknowledgments held for every peer.
func (a *ARQ) HeldAcks() int { return a.sum(func(p *Peer) int { return len(p.held) }) }

// Partials reports the partial messages being reassembled from every peer.
func (a *ARQ) Partials() int { return a.sum(func(p *Peer) int { return len(p.partials) }) }

func (a *ARQ) sum(count func(*Peer) int) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := 0
	for _, e := range a.peers {
		e.mu.Lock()
		n += count(&e.p)
		e.mu.Unlock()
	}
	return n
}

// Close fails every pending message with ErrARQClosed, sends the acks
// still held, stops every timer and waits for the timer runs under way:
// once it returns the engine sends nothing and holds no buffer.
func (a *ARQ) Close() {
	a.mu.Lock()
	peers := a.peers
	a.peers, a.closed = nil, true
	a.mu.Unlock()
	var out Due
	for _, e := range peers {
		out.Acks = out.Acks[:0]
		if e.retire(&out); len(out.Acks) > 0 {
			a.acksDue(e.id, out.Acks)
		}
	}
	a.fail(out.Failed, codeARQClosed, ErrARQClosed, "engine closing")
	a.sending.Wait()
}
