package protocol

import (
	"errors"
	"sync"
	"time"

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
)

// ARQ is the application-level acknowledgment/retransmission engine the
// paper maps events onto when they run over UDP: "a mechanism to
// acknowledge and resend lost packets ... more efficient for event messages
// than the generic case provided by the TCP stack" (§4.2).
//
// The sender side retransmits each message with exponential backoff until
// the peer acknowledges or the retry budget is exhausted; the receiver side
// suppresses duplicates (retransmissions of messages whose ACK was lost).
// ARQ is message-oriented, not stream-oriented: each message is
// acknowledged independently, so one lost packet never head-of-line blocks
// the messages behind it — the efficiency argument experiment E2 measures.
type ARQ struct {
	send       SendFunc
	clk        clock.Clock
	timeout    time.Duration
	maxRetries int
	backoff    float64

	mu      sync.Mutex
	pending map[arqKey]*arqPending
	closed  bool

	reg   *metrics.Registry
	stats arqCounters
}

// SendFunc transmits a raw frame to a peer; the ARQ engine owns retries.
type SendFunc func(to transport.NodeID, frame []byte) error

// ResultFunc reports the final outcome of a reliable send: nil on ACK, or
// ErrTimeout / transport errors after the retry budget is spent.
type ResultFunc func(err error)

type arqKey struct {
	to  transport.NodeID
	seq uint64
}

type arqPending struct {
	frame   []byte
	timer   clock.Timer
	retries int
	result  ResultFunc
	done    bool
	// timeout / maxRetries are this message's overrides (zero = engine
	// default): a critical alarm on a 40ms-latency radio modem needs a
	// longer fuse than a chunk ack on local WiFi, and QoS policies carry
	// that per primitive (qos.EventQoS.AckTimeout / MaxRetries).
	timeout    time.Duration
	maxRetries int
}

// SendTuning carries per-message ARQ overrides; zero fields take the
// engine defaults.
type SendTuning struct {
	// Timeout is the initial retransmission timeout for this message.
	Timeout time.Duration
	// MaxRetries is this message's retransmission budget.
	MaxRetries int
}

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
)

// Defaults applied when options are zero.
const (
	DefaultARQTimeout = 20 * time.Millisecond
	DefaultARQRetries = 8
	defaultARQBackoff = 1.6
)

// ARQOption customizes the engine.
type ARQOption func(*ARQ)

// WithTimeout sets the initial retransmission timeout.
func WithTimeout(d time.Duration) ARQOption {
	return func(a *ARQ) {
		if d > 0 {
			a.timeout = d
		}
	}
}

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

// WithBackoff sets the timeout multiplier between attempts (>= 1).
func WithBackoff(f float64) ARQOption {
	return func(a *ARQ) {
		if f >= 1 {
			a.backoff = f
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
		timeout:    DefaultARQTimeout,
		maxRetries: DefaultARQRetries,
		backoff:    defaultARQBackoff,
		pending:    make(map[arqKey]*arqPending),
	}
	for _, opt := range opts {
		opt(a)
	}
	if a.reg == nil {
		a.reg = metrics.NewRegistry()
	}
	a.stats = newARQCounters(a.reg)
	return a
}

// Send transmits frame to peer reliably with the engine-default tuning.
// seq must be unique per (peer, message); result is invoked exactly once
// from a timer or Ack goroutine.
func (a *ARQ) Send(to transport.NodeID, seq uint64, frame []byte, result ResultFunc) error {
	return a.SendTuned(to, seq, frame, SendTuning{}, result)
}

// SendTuned is Send with per-message timeout / retry overrides.
func (a *ARQ) SendTuned(to transport.NodeID, seq uint64, frame []byte, tune SendTuning, result ResultFunc) error {
	key := arqKey{to: to, seq: seq}
	p := &arqPending{frame: frame, result: result, timeout: tune.Timeout, maxRetries: tune.MaxRetries}

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return uerr.Wrap(a.reg, codeARQClosed, ErrARQClosed, "send refused")
	}
	if _, dup := a.pending[key]; dup {
		a.mu.Unlock()
		return uerr.Newf(a.reg, codeARQDupSeq, "in-flight seq %d to %q", seq, to)
	}
	a.pending[key] = p
	p.timer = a.clk.AfterFunc(a.timeoutFor(p), func() { a.retransmit(key, 1) })
	a.mu.Unlock()

	a.stats.sent.Inc()

	if err := a.send(to, frame); err != nil {
		// First transmission failed outright (unknown node, closed
		// transport): fail fast rather than burning the retry budget.
		a.finish(key, uerr.Wrap(a.reg, codeARQFirstTx, err, "first transmission"))
		return nil // outcome reported via result
	}
	return nil
}

// retransmit fires on timer expiry for attempt n.
func (a *ARQ) retransmit(key arqKey, attempt int) {
	a.mu.Lock()
	p, ok := a.pending[key]
	if !ok || p.done || a.closed {
		a.mu.Unlock()
		return
	}
	if attempt > a.retriesFor(p) {
		a.mu.Unlock()
		a.stats.failed.Inc()
		a.finish(key, uerr.Wrapf(a.reg, codeARQAckWait, ErrTimeout,
			"seq %d to %q after %d attempts", key.seq, key.to, attempt))
		return
	}
	frame := p.frame
	delay := a.timeoutFor(p)
	for i := 0; i < attempt; i++ {
		delay = time.Duration(float64(delay) * a.backoff)
	}
	p.retries++
	p.timer = a.clk.AfterFunc(delay, func() { a.retransmit(key, attempt+1) })
	a.mu.Unlock()

	a.stats.retransmits.Inc()
	// A transient failure retries on the next timer, but it is counted,
	// not discarded: a bearer blackout shows up as arq.retransmit send
	// errors long before retry budgets start expiring.
	uerr.Note(a.reg, codeARQRetryTx, a.send(key.to, frame), "retransmission")
}

// timeoutFor resolves one message's effective initial timeout.
func (a *ARQ) timeoutFor(p *arqPending) time.Duration {
	if p.timeout > 0 {
		return p.timeout
	}
	return a.timeout
}

// retriesFor resolves one message's effective retry budget.
func (a *ARQ) retriesFor(p *arqPending) int {
	if p.maxRetries > 0 {
		return p.maxRetries
	}
	return a.maxRetries
}

// Ack completes the message (peer, seq); safe to call for unknown keys
// (late or duplicate ACKs).
func (a *ARQ) Ack(from transport.NodeID, seq uint64) {
	key := arqKey{to: from, seq: seq}
	a.stats.acked.Inc()
	a.finish(key, nil)
}

// finish resolves a pending entry exactly once.
func (a *ARQ) finish(key arqKey, err error) {
	a.mu.Lock()
	p, ok := a.pending[key]
	if !ok || p.done {
		a.mu.Unlock()
		return
	}
	p.done = true
	delete(a.pending, key)
	if p.timer != nil {
		p.timer.Stop()
	}
	result := p.result
	a.mu.Unlock()
	if result != nil {
		result(err)
	}
}

// Pending reports the number of unacknowledged messages.
func (a *ARQ) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// Close fails every pending message with ErrARQClosed and stops timers.
func (a *ARQ) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	keys := make([]arqKey, 0, len(a.pending))
	for key := range a.pending {
		keys = append(keys, key)
	}
	a.mu.Unlock()
	for _, key := range keys {
		a.finish(key, uerr.Wrap(a.reg, codeARQClosed, ErrARQClosed, "engine closing"))
	}
}
