package protocol

import (
	"errors"
	"slices"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/metrics"
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
)

// ARQ is the application-level acknowledgment/retransmission engine the
// paper maps events onto when they run over UDP: "a mechanism to
// acknowledge and resend lost packets ... more efficient for event messages
// than the generic case provided by the TCP stack" (§4.2).
//
// The sender side retransmits each message with exponential backoff until
// the peer acknowledges or the retry budget is exhausted; the receiver side
// suppresses duplicates (retransmissions of messages whose ACK was lost).
// A message's first timeout is its peer's retransmission timeout (RTO),
// measured from the peer's acks as RFC 6298 describes; nobody sets it.
// ARQ is message-oriented, not stream-oriented: each message is
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

	mu sync.Mutex
	// pending holds each peer's unacknowledged messages and round-trip
	// estimate. An entry outlives its messages, so the estimate carries
	// over from one message to the next; Forget drops it.
	pending map[transport.NodeID]*arqPeer
	free    []*arqPending // recycled records, at most arqFreeCap; starts empty
	closed  bool
	// retransmitting counts retransmissions past the pending-table check
	// and not yet done with their send and copy; Close waits for them.
	retransmitting *clock.WaitGroup
	// probes counts the pending records examined finding messages to
	// complete; tests bound it against what an ack claims.
	probes int

	reg   *metrics.Registry
	stats arqCounters
}

// SendFunc transmits a raw frame to a peer; the ARQ engine owns retries.
// frame is lent for the duration of the call only: an implementation that
// defers the transmission copies it first (egress.Plane.Enqueue does).
type SendFunc func(to transport.NodeID, frame []byte) error

// ResultFunc reports the final outcome of a reliable send: nil on ACK, or
// ErrTimeout / transport errors after the retry budget is spent.
type ResultFunc func(err error)

type arqKey struct {
	to  transport.NodeID
	seq uint64
}

// arqPeer is one peer's unacknowledged messages, in ascending seq order so
// a range ack finds the ones it completes by binary search, and its RFC
// 6298 estimate: SRTT and RTTVAR (once measured) and the RTO they give.
type arqPeer struct {
	recs         []*arqPending
	srtt, rttvar time.Duration
	rto          time.Duration
	measured     bool
	// backoff is the longest retry delay armed since the last sample; new
	// messages start at no less (RFC 6298 §5.7), or a peer whose round
	// trip exceeds the RTO would never yield a Karn-valid sample.
	backoff time.Duration
}

// sample folds one round trip into the estimate (RFC 6298 §2.2–2.3, α =
// 1/8, β = 1/4, K = 4) and ends any carried backoff. The RFC's granularity
// term G is DefaultARQTimeout: a steady link drives RTTVAR to zero, and an
// RTO of the bare SRTT fires at the first frame queued ahead of a message.
func (pe *arqPeer) sample(rtt time.Duration) {
	if !pe.measured {
		pe.srtt, pe.rttvar, pe.measured = rtt, rtt/2, true
	} else {
		dev := pe.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		pe.rttvar += (dev - pe.rttvar) / 4
		pe.srtt += (rtt - pe.srtt) / 8
	}
	pe.rto = pe.srtt + max(DefaultARQTimeout, 4*pe.rttvar)
	pe.backoff = 0
}

// firstTimeout is the timeout a new message to the peer starts at.
func (pe *arqPeer) firstTimeout() time.Duration { return max(pe.rto, pe.backoff) }

// arqPending is one unacknowledged message. Records are recycled through
// ARQ.free: a steady stream of reliable sends allocates none.
type arqPending struct {
	a   *ARQ
	key arqKey
	// frame is the engine's own pooled copy of the datagram, kept for
	// retransmission. It has one owner, this record: it is read and returned
	// to bufpool only under a.mu, and only while the record is pending.
	frame []byte
	// timer is created once, bound to the record, and re-armed with Reset
	// for every later use and every retransmission.
	timer   clock.Timer
	attempt int // retransmissions so far
	result  ResultFunc
	// sent is the first transmission's instant, which an ack of a message
	// never retransmitted measures from (Karn); initial is the first
	// timeout, which the retries back off from.
	sent    time.Time
	initial time.Duration
}

// arqFreeCap bounds the free list: enough for the reliable sends a node has
// in flight in steady state, small enough that a burst leaves no lasting
// footprint.
const arqFreeCap = 64

// arqCounters holds the engine's pre-resolved registry handles ("arq"
// component); increments stay lock-free atomics on the same series
// MetricsSnapshot exports.
type arqCounters struct {
	sent        *metrics.Counter
	retransmits *metrics.Counter
	acked       *metrics.Counter
	failed      *metrics.Counter
}

func newARQCounters(reg *metrics.Registry) arqCounters {
	return arqCounters{
		sent:        reg.Counter("arq", "sent"),
		retransmits: reg.Counter("arq", "retransmits"),
		acked:       reg.Counter("arq", "acked"),
		failed:      reg.Counter("arq", "failed"),
	}
}

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

// NewARQ builds an engine that transmits via send.
func NewARQ(send SendFunc, opts ...ARQOption) *ARQ {
	a := &ARQ{
		send:       send,
		clk:        clock.Real{},
		maxRetries: DefaultARQRetries,
		clone:      bufpool.Clone,
		release:    bufpool.Put,
		pending:    make(map[transport.NodeID]*arqPeer),
	}
	for _, opt := range opts {
		opt(a)
	}
	if a.reg == nil {
		a.reg = metrics.NewRegistry()
	}
	a.stats = newARQCounters(a.reg)
	a.retransmitting = clock.NewWaitGroup(a.clk)
	return a
}

// Send transmits frame to peer reliably. seq must be unique per (peer,
// message); result is invoked exactly once from a timer or Ack goroutine.
// frame stays the caller's: the engine keeps its own pooled copy for
// retransmission.
func (a *ARQ) Send(to transport.NodeID, seq uint64, frame []byte, result ResultFunc) error {
	key := arqKey{to: to, seq: seq}

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return uerr.Wrap(a.reg, codeARQClosed, ErrARQClosed, "send refused")
	}
	pe := a.pending[to]
	if pe == nil {
		pe = &arqPeer{rto: DefaultARQTimeout}
		a.pending[to] = pe
	}
	i := a.search(pe.recs, seq)
	if i < len(pe.recs) && pe.recs[i].key.seq == seq {
		a.mu.Unlock()
		return uerr.Newf(a.reg, codeARQDupSeq, "in-flight seq %d to %q", seq, to)
	}
	p := a.recordLocked()
	p.key, p.result = key, result
	p.frame = a.clone(frame)
	p.sent, p.initial = a.clk.Now(), pe.firstTimeout()
	pe.recs = slices.Insert(pe.recs, i, p)
	if p.timer == nil {
		p.timer = a.clk.AfterFunc(p.initial, p.retransmit)
	} else {
		p.timer.Reset(p.initial)
	}
	a.mu.Unlock()

	a.stats.sent.Inc()

	// The first transmission goes out from the caller's buffer, which no
	// ack, timer or Close can release underneath it.
	if err := a.send(to, frame); err != nil {
		// First transmission failed outright (unknown node, closed
		// transport): fail fast rather than burning the retry budget.
		a.finish(key, uerr.Wrap(a.reg, codeARQFirstTx, err, "first transmission"))
	}
	return nil // outcome reported via result
}

// recordLocked takes a record off the free list or makes one. Caller holds
// a.mu.
func (a *ARQ) recordLocked() *arqPending {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return p
	}
	return &arqPending{a: a}
}

// retransmit is the record's timer callback. A record is recycled only
// after Stop reported its timer unfired, so a run of this function always
// belongs to the record's current use — or to one that finish has already
// ended, which the pending-table check catches.
func (p *arqPending) retransmit() {
	a := p.a
	a.mu.Lock()
	pe := a.pending[p.key.to]
	if pe == nil || a.closed {
		a.mu.Unlock()
		return
	}
	if i := a.search(pe.recs, p.key.seq); i == len(pe.recs) || pe.recs[i] != p {
		a.mu.Unlock()
		return
	}
	key := p.key
	if p.attempt >= a.maxRetries {
		a.mu.Unlock()
		a.stats.failed.Inc()
		a.finish(key, uerr.Wrapf(a.reg, codeARQAckWait, ErrTimeout,
			"seq %d to %q after %d attempts", key.seq, key.to, a.maxRetries+1))
		return
	}
	p.attempt++
	delay := retryDelay(p.initial, p.attempt)
	pe.backoff = max(pe.backoff, delay)
	p.timer.Reset(delay)
	// An ack may finish the record and recycle p.frame the moment the lock
	// drops, so this transmission reads its own copy.
	tx := a.clone(p.frame)
	a.retransmitting.Add(1)
	a.mu.Unlock()
	defer a.retransmitting.Done()

	a.stats.retransmits.Inc()
	// A transient failure retries on the next timer, but it is counted,
	// not discarded: a bearer blackout shows up as arq.retransmit send
	// errors long before retry budgets start expiring.
	uerr.Note(a.reg, codeARQRetryTx, a.send(key.to, tx), "retransmission")
	a.release(tx)
}

// Ack completes the message (peer, seq); safe to call for unknown keys
// (late or duplicate ACKs).
func (a *ARQ) Ack(from transport.NodeID, seq uint64) {
	a.finish(arqKey{to: from, seq: seq}, nil)
}

// AckRange completes every pending message to from whose seq lies in
// [lo, hi]. Its cost follows the messages it completes, not the width of
// the range: one binary search of from's pending records per completed
// message, plus one for the range, so a range claiming thousands of seqs
// that were never sent costs a single search.
func (a *ARQ) AckRange(from transport.NodeID, lo, hi uint64) {
	for {
		seq, ok := a.resolve(from, lo, hi, nil)
		if !ok || seq == hi {
			return
		}
		lo = seq + 1
	}
}

// finish resolves the pending message key with err, if it is pending.
func (a *ARQ) finish(key arqKey, err error) {
	a.resolve(key.to, key.seq, key.seq, err)
}

// resolve ends, exactly once, the first pending message to `to` whose seq
// lies in [lo, hi], and reports its seq. An ack (nil err) of a message
// never retransmitted is a round-trip sample. result runs outside the
// lock.
func (a *ARQ) resolve(to transport.NodeID, lo, hi uint64, err error) (uint64, bool) {
	a.mu.Lock()
	pe := a.pending[to]
	if pe == nil {
		a.mu.Unlock()
		return 0, false
	}
	i := a.search(pe.recs, lo)
	if i == len(pe.recs) || pe.recs[i].key.seq > hi {
		a.mu.Unlock()
		return 0, false
	}
	p := pe.recs[i]
	seq := p.key.seq
	if pe.recs = slices.Delete(pe.recs, i, i+1); len(pe.recs) == 0 && cap(pe.recs) > arqFreeCap {
		pe.recs = nil // a burst's backing array is not kept
	}
	if err == nil && p.attempt == 0 {
		pe.sample(a.clk.Now().Sub(p.sent))
	}
	result := a.endLocked(p)
	a.mu.Unlock()
	if err == nil {
		a.stats.acked.Inc()
	}
	if result != nil {
		result(err)
	}
	return seq, true
}

// endLocked retires p, which has left its peer's records, and returns its
// result for the caller to run outside the lock: its retained datagram
// goes back to the pool, and the record is recycled unless its timer has
// already fired (that callback may still be on its way to a.mu, so the
// record is left to it and the GC). Caller holds a.mu.
func (a *ARQ) endLocked(p *arqPending) ResultFunc {
	a.release(p.frame)
	result := p.result
	p.frame, p.result, p.attempt = nil, nil, 0
	if p.timer.Stop() && len(a.free) < arqFreeCap {
		a.free = append(a.free, p)
	}
	return result
}

// Forget drops everything the engine keeps for peer: its pending messages
// fail with ErrPeerForgotten, and its round-trip estimate goes, so a new
// incarnation of the peer starts from DefaultARQTimeout.
func (a *ARQ) Forget(peer transport.NodeID) {
	a.mu.Lock()
	results := a.dropLocked(a.pending[peer], nil)
	delete(a.pending, peer)
	a.mu.Unlock()
	a.fail(results, codeARQForgot, ErrPeerForgotten, "peer forgotten")
}

// dropLocked retires every message of pe, which may be nil, and appends
// their results to results. Caller holds a.mu.
func (a *ARQ) dropLocked(pe *arqPeer, results []ResultFunc) []ResultFunc {
	if pe == nil {
		return results
	}
	for _, p := range pe.recs {
		results = append(results, a.endLocked(p))
	}
	return results
}

// fail completes dropped messages with a typed, counted error each.
func (a *ARQ) fail(results []ResultFunc, code uerr.Code, sentinel error, msg string) {
	for _, result := range results {
		err := uerr.Wrap(a.reg, code, sentinel, msg)
		if result != nil {
			result(err)
		}
	}
}

// search returns the index of the first of recs, which ascend by seq, whose
// seq is at least lo. A seq outside the span of recs costs one probe.
// Caller holds a.mu.
func (a *ARQ) search(recs []*arqPending, lo uint64) int {
	n := len(recs)
	a.probes++
	if n == 0 || lo <= recs[0].key.seq {
		return 0
	}
	if lo > recs[n-1].key.seq {
		return n
	}
	i, j := 1, n-1 // recs[0] < lo <= recs[n-1]
	for i < j {
		a.probes++
		h := int(uint(i+j) >> 1)
		if recs[h].key.seq < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Pending reports the number of unacknowledged messages.
func (a *ARQ) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, pe := range a.pending {
		n += len(pe.recs)
	}
	return n
}

// Close fails every pending message with ErrARQClosed and stops timers. It
// returns once retransmissions already under way have sent and given back
// their copies, so a closed engine sends nothing and holds no buffer.
func (a *ARQ) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	var results []ResultFunc
	for peer, pe := range a.pending {
		results = a.dropLocked(pe, results)
		delete(a.pending, peer)
	}
	a.mu.Unlock()
	a.fail(results, codeARQClosed, ErrARQClosed, "engine closing")
	// No retransmission starts once closed is set under a.mu, so none is
	// added while this waits.
	a.retransmitting.Wait()
}
