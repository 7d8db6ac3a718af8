// Package variables implements the paper's §4.1 communication primitive:
// best-effort publish/subscribe distribution of short structured values.
//
// Samples travel as single multicast datagrams; receivers tolerate loss.
// Three QoS mechanisms from the paper are implemented:
//
//   - validity: a sample may be served from the subscriber cache as long as
//     it is still valid ("subscribed services can receive previous values
//     as long as they are still valid");
//   - silence detection: if a publisher goes quiet past its declared
//     period, "the service container will warn of this timeout circumstance
//     to the affected services";
//   - guaranteed initial value: "the middleware has a mechanism that
//     guarantees an initial exact value" — implemented as a reliable
//     snapshot request/reply exchange with the publisher.
package variables

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/freelist"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// Variable wire-path error codes.
var (
	codeVarShed  = uerr.Register("variables.dispatch_shed", uerr.CatAdmission)
	codeVarLeave = uerr.Register("variables.leave_group", uerr.CatResource)
)

// Errors.
var (
	// ErrStale reports a cached value past its validity.
	ErrStale = errors.New("variable value stale")
	// ErrNoValue reports a subscription that has not yet received data.
	ErrNoValue = errors.New("no value received yet")
	// ErrDuplicateName reports a second publisher registration of a name
	// within one container.
	ErrDuplicateName = errors.New("variable already published")
	// ErrTypeMismatch reports a subscriber/publisher type disagreement.
	ErrTypeMismatch = errors.New("variable type mismatch")
	// ErrClosed reports use of a closed handle.
	ErrClosed = errors.New("variable handle closed")
)

// Engine is the per-container variable runtime.
type Engine struct {
	f   fabric.Fabric
	clk clock.Clock
	enc encoding.ValueEncoder
	reg *metrics.Registry

	mu   sync.Mutex
	pubs map[string]*Publisher
	// subs lists are copy-on-write: Subscribe and Close install a fresh
	// slice, so the receive path reads one under mu and walks it unlocked
	// without copying.
	subs map[string][]*Subscription

	deliveries *freelist.List[delivery] // samples queued for OnSample
}

// deliveryFreeCap bounds the engine's free list of delivery records: enough
// for a subscriber's burst of queued samples.
const deliveryFreeCap = 256

// New builds the engine for a container.
func New(f fabric.Fabric) *Engine {
	e := &Engine{
		f:    f,
		clk:  fabric.ClockOf(f),
		enc:  encoding.NewValueEncoder(f.Encoding()),
		reg:  fabric.MetricsOf(f),
		pubs: make(map[string]*Publisher),
		subs: make(map[string][]*Subscription),
	}
	e.deliveries = freelist.New(deliveryFreeCap, func() *delivery {
		d := &delivery{e: e}
		d.run = d.exec
		return d
	})
	return e
}

// subscribers returns the current subscription list of name. The slice is
// shared and immutable.
func (e *Engine) subscribers(name string) []*Subscription {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.subs[name]
}

// sample payload layout (after the frame header):
//
//	i64 publish-time unix-nanos (publisher clock)
//	u32 validity milliseconds (0 = never expires)
//	u32 publisher incarnation (non-zero; resets subscriber seq filters)
//	raw encoded value

const sampleHeaderLen = 16

// appendSampleHeader appends the sample header onto dst (typically a pooled
// buffer); the encoded value follows it.
func appendSampleHeader(dst []byte, ts time.Time, validity time.Duration, pub uint32) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(ts.UnixNano()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(validity/time.Millisecond))
	return binary.BigEndian.AppendUint32(dst, pub)
}

func decodeSamplePayload(enc encoding.Encoding, t *presentation.Type, payload []byte) (v any, ts time.Time, validity time.Duration, pub uint32, err error) {
	r := encoding.NewReader(payload)
	tsn := r.Int64()
	valMs := r.Uint32()
	pub = r.Uint32()
	if err := r.Err(); err != nil {
		return nil, time.Time{}, 0, 0, err
	}
	body := r.Raw(r.Remaining())
	v, err = enc.Unmarshal(t, body)
	if err != nil {
		return nil, time.Time{}, 0, 0, err
	}
	return v, time.Unix(0, tsn), time.Duration(valMs) * time.Millisecond, pub, nil
}

// Offer registers a publisher for name with the given payload type and QoS.
func (e *Engine) Offer(name, service string, t *presentation.Type, q qos.VariableQoS) (*Publisher, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.Normalize()
	e.mu.Lock()
	if _, dup := e.pubs[name]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("variables: %q: %w", name, ErrDuplicateName)
	}
	p := &Publisher{
		engine:  e,
		name:    name,
		group:   fabric.VarGroup(name),
		service: service,
		typ:     t,
		q:       q,
		id:      protocol.NewIncarnation(),
	}
	e.pubs[name] = p
	e.mu.Unlock()
	e.f.OfferChanged()
	return p, nil
}

// Publisher is the provider-side handle of one variable.
type Publisher struct {
	engine  *Engine
	name    string
	group   string // fabric.VarGroup(name), built once
	service string
	typ     *presentation.Type
	q       qos.VariableQoS

	// id is this publisher's incarnation, carried in every sample so a
	// restarted publisher (fresh seq numbering) is not filtered out by
	// subscribers still holding the previous incarnation's high seq.
	id uint32

	mu sync.Mutex
	// last is the encoded body of the last published value in a buffer the
	// publisher owns and reuses. OnChangeOnly compares against it, snapshot
	// replies are assembled from it and Snapshot decodes it, so the caller's
	// value is never retained and mutating it after Publish changes nothing.
	last     []byte
	lastTS   time.Time
	lastSent time.Time
	seq      uint64
	closed   bool
}

// Name returns the variable name.
func (p *Publisher) Name() string { return p.name }

// Type returns the payload type.
func (p *Publisher) Type() *presentation.Type { return p.typ }

// Publish coerces v to the variable type and distributes it: one multicast
// datagram to remote subscribers plus direct (bypass) delivery to local
// ones. With OnChangeOnly, unchanged values inside the period are
// suppressed; "unchanged" means an identical encoding, so -0.0 and +0.0, or
// two NaNs with different payloads, count as a change.
func (p *Publisher) Publish(v any) error {
	e := p.engine
	now := e.clk.Now()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("variables: %q: %w", p.name, ErrClosed)
	}
	// Pooled sample assembly: header, then the value coerced and encoded
	// in one walk straight onto the payload. The buffer and the frame both
	// go back to their pools the moment SendGroup returns — the fabric
	// encodes synchronously and retains neither.
	payload := appendSampleHeader(bufpool.Get(sampleHeaderLen+len(p.last)), now, p.q.Validity, p.id)
	payload, err := e.enc.Append(payload, p.typ, v)
	if err != nil {
		p.mu.Unlock()
		bufpool.Put(payload)
		return err
	}
	body := payload[sampleHeaderLen:]
	if p.q.OnChangeOnly && !p.lastTS.IsZero() && bytes.Equal(p.last, body) &&
		(p.q.Period <= 0 || now.Sub(p.lastSent) < p.q.Period) {
		// Unchanged inside the refresh window: cache only.
		p.lastTS = now
		p.mu.Unlock()
		bufpool.Put(payload)
		return nil
	}
	p.seq++
	seq := p.seq
	p.last = append(p.last[:0], body...)
	p.lastTS = now
	p.lastSent = now
	p.mu.Unlock()

	frame := protocol.GetFrame()
	*frame = protocol.Frame{
		Type:     protocol.MTSample,
		Encoding: e.enc.ID(),
		Priority: p.q.Priority,
		Channel:  p.name,
		Seq:      seq,
		Payload:  payload,
	}
	// Local bypass first: same-container subscribers skip the frame,
	// egress and transport layers (§4.4's bypass principle applied to
	// variables; experiment F2). Each gets a private value decoded from
	// the sample, built only when such a subscriber exists.
	for _, s := range e.subscribers(p.name) {
		if lv, derr := e.f.Encoding().Unmarshal(p.typ, body); derr == nil {
			s.accept(lv, now, p.q.Validity, 0, 0)
		}
	}
	err = e.f.SendGroup(p.group, frame)
	protocol.PutFrame(frame)
	bufpool.Put(payload)
	if err != nil {
		return fmt.Errorf("variables: publish %q: %w", p.name, err)
	}
	return nil
}

// Snapshot returns the last published value, decoded afresh for the
// caller, and its publication instant, or ok=false before the first
// Publish. This is the ground-side read API the gateway's last-value cache
// mirrors: a consumer joining late reads the current value without a wire
// exchange.
func (p *Publisher) Snapshot() (v any, ts time.Time, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastTS.IsZero() {
		return nil, time.Time{}, false
	}
	v, err := p.engine.f.Encoding().Unmarshal(p.typ, p.last)
	if err != nil {
		return nil, time.Time{}, false
	}
	return v, p.lastTS, true
}

// Close withdraws the publisher.
func (p *Publisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.engine.mu.Lock()
	delete(p.engine.pubs, p.name)
	p.engine.mu.Unlock()
	p.engine.f.OfferChanged()
}

// Record returns the naming record for announcements.
func (p *Publisher) Record() naming.Record {
	return naming.Record{
		Kind:    naming.KindVariable,
		Name:    p.name,
		Service: p.service,
		Node:    p.engine.f.Self(),
		TypeSig: p.typ.String(),
	}
}

// SubscribeOptions tune a subscription.
type SubscribeOptions struct {
	// QoS is the subscriber's expectation; Period drives silence
	// detection and Validity overrides the publisher's per-sample
	// validity when longer... it does not: the effective validity is the
	// per-sample one. Subscriber Validity is used only when the sample
	// carries none.
	QoS qos.VariableQoS
	// RequireInitial requests the guaranteed initial exact value.
	RequireInitial bool
	// InitialTimeout bounds the snapshot exchange (default 1s).
	InitialTimeout time.Duration
	// OnSample, if set, is invoked (on the container scheduler) for every
	// received sample.
	OnSample func(v any, ts time.Time)
	// OnTimeout, if set, is invoked when the publisher has been silent
	// past the QoS deadline.
	OnTimeout func(silence time.Duration)
}

// Subscription is the consumer-side handle of one variable.
type Subscription struct {
	engine *Engine
	name   string
	group  string // fabric.VarGroup(name), built once
	typ    *presentation.Type
	opts   SubscribeOptions

	mu       sync.Mutex
	value    any
	ts       time.Time     // publisher-clock publication instant
	rxAt     time.Time     // receiver-clock arrival instant
	rxAge    time.Duration // sample age at arrival per the publisher clock (clamped >= 0)
	validity time.Duration
	haveVal  bool
	lastPub  uint32 // publisher incarnation of lastSeq
	lastSeq  uint64
	initial  clock.Trigger // RequireInitial only: signalled by the first value and the snapshot request's outcome
	timer    clock.Timer
	closed   bool

	samples  uint64
	timeouts uint64
}

// Subscribe attaches to variable name with the expected payload type. The
// subscriber joins the variable's multicast group immediately; if the
// publisher is known in the directory its type signature is verified.
func (e *Engine) Subscribe(name string, t *presentation.Type, opts SubscribeOptions) (*Subscription, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := opts.QoS.Validate(); err != nil {
		return nil, err
	}
	opts.QoS = opts.QoS.Normalize()
	if opts.InitialTimeout <= 0 {
		opts.InitialTimeout = time.Second
	}
	// Type compatibility against the announced publisher, when known.
	if recs := e.f.Directory().Lookup(naming.KindVariable, name); len(recs) > 0 {
		if recs[0].TypeSig != t.String() {
			return nil, fmt.Errorf("variables: %q publisher has %s, subscriber wants %s: %w",
				name, recs[0].TypeSig, t, ErrTypeMismatch)
		}
	}
	s := &Subscription{engine: e, name: name, group: fabric.VarGroup(name), typ: t, opts: opts}
	if opts.RequireInitial {
		s.initial = clock.NewTrigger(e.clk)
	}

	e.mu.Lock()
	old := e.subs[name]
	e.subs[name] = append(old[:len(old):len(old)], s) // full slice expression: always a fresh array
	e.mu.Unlock()

	if err := e.f.Join(s.group); err != nil {
		s.Close()
		return nil, err
	}
	s.armTimer()

	if opts.RequireInitial {
		if err := s.requestInitial(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// requestInitial performs the guaranteed-initial-value exchange: a reliable
// MTSnapshotReq to the publisher, answered by a reliable MTSnapshotRep. A
// local publisher is served by direct bypass.
func (s *Subscription) requestInitial() error {
	e := s.engine
	// Local bypass.
	e.mu.Lock()
	pub := e.pubs[s.name]
	e.mu.Unlock()
	if pub != nil {
		if v, ts, ok := pub.Snapshot(); ok {
			s.accept(v, ts, pub.q.Validity, 0, 0)
		}
		return nil // before the first Publish there is nothing to guarantee
	}

	rec, err := e.f.Directory().Select(naming.KindVariable, s.name, qos.BindDynamic, "")
	if err != nil {
		return fmt.Errorf("variables: initial value for %q: %w", s.name, err)
	}
	// Control frames ride the high egress lane: an initial-value request
	// must not queue behind sample or bulk traffic on a congested link.
	frame := &protocol.Frame{
		Type:     protocol.MTSnapshotReq,
		Encoding: e.f.Encoding().ID(),
		Priority: qos.PriorityHigh,
		Channel:  s.name,
	}
	// The request's outcome and the reply, which arrives asynchronously via
	// handleSnapshotRep, both signal s.initial; each wait gives up after
	// InitialTimeout.
	var (
		sent    bool
		sendErr error
	)
	e.f.SendReliable(rec.Node, frame, qos.ReliableARQ, func(err error) {
		s.mu.Lock()
		sent, sendErr = true, err
		s.mu.Unlock()
		s.initial.Signal()
	})
	if !s.awaitInitial(func() bool { return sent }) {
		return fmt.Errorf("variables: snapshot request %q: %w", s.name, protocol.ErrTimeout)
	}
	if sendErr != nil {
		return fmt.Errorf("variables: snapshot request %q: %w", s.name, sendErr)
	}
	if !s.awaitInitial(func() bool { return s.haveVal }) {
		return fmt.Errorf("variables: no snapshot reply for %q: %w", s.name, protocol.ErrTimeout)
	}
	return nil
}

// awaitInitial parks on s.initial until done, checked under s.mu, holds;
// false means InitialTimeout passed first.
func (s *Subscription) awaitInitial(done func() bool) bool {
	clk := s.engine.clk
	deadline := clk.Now().Add(s.opts.InitialTimeout)
	for {
		s.mu.Lock()
		ok := done()
		s.mu.Unlock()
		if ok {
			return true
		}
		left := deadline.Sub(clk.Now())
		if left <= 0 {
			return false
		}
		s.initial.Wait(left, nil)
	}
}

// Get returns the freshest valid value. While the publisher is silent the
// previous value is served until its validity lapses, after which ErrStale
// is returned (§4.1). Sample age is the publisher-declared age at arrival
// (clamped at zero, so a publisher clock running ahead cannot make fresh
// samples immortal or negative-aged) plus receiver-side time since
// arrival — an old value installed via the snapshot path is correctly
// stale immediately, while cross-node skew cannot subtract age.
func (s *Subscription) Get() (any, time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveVal {
		return nil, time.Time{}, fmt.Errorf("variables: %q: %w", s.name, ErrNoValue)
	}
	if age := s.rxAge + s.engine.clk.Since(s.rxAt); s.validity > 0 && age > s.validity {
		return nil, s.ts, fmt.Errorf("variables: %q age %v: %w", s.name, age.Round(time.Millisecond), ErrStale)
	}
	return presentation.DeepCopy(s.value), s.ts, nil
}

// Snapshot returns a copy of the cached last value and its publisher-clock
// timestamp regardless of validity, or ok=false before the first sample.
// Unlike Get it never reports staleness: it is the last-value-cache read
// for consumers (the ground gateway fanning out to external clients) that
// want "the freshest thing known" semantics and judge age themselves.
func (s *Subscription) Snapshot() (v any, ts time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveVal {
		return nil, time.Time{}, false
	}
	return presentation.DeepCopy(s.value), s.ts, true
}

// Stats reports received sample and timeout counts.
func (s *Subscription) Stats() (samples, timeouts uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples, s.timeouts
}

// incarnationGrace bounds the reorder window inside which an older-stamped
// sample from a different publisher incarnation is treated as a delayed
// pre-restart straggler and dropped. Past it, the incarnation change is
// honored regardless of timestamps (cross-node publisher takeover with an
// unsynchronized clock).
const incarnationGrace = time.Second

// accept installs a sample into the cache and fires OnSample. pub is the
// publisher incarnation (0 for local bypass and snapshot replies, which
// bypass the reorder filter along with seq 0).
func (s *Subscription) accept(v any, ts time.Time, validity time.Duration, pub uint32, seq uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if seq != 0 {
		if pub != s.lastPub {
			if s.haveVal && ts.Before(s.ts) && s.engine.clk.Since(s.rxAt) < incarnationGrace {
				// An older-stamped sample under a different incarnation
				// arriving moments after a fresh one is a reordered
				// pre-restart straggler: drop it rather than flip the
				// filter back and reinstall stale data. The guard is
				// bounded by receiver-side recency so a replacement
				// publisher on another node with a lagging clock is
				// locked out for at most incarnationGrace, not until
				// its clock catches up.
				s.mu.Unlock()
				return
			}
			// The publisher restarted (new incarnation, fresh seq
			// numbering): reset the reorder filter instead of
			// discarding every new sample until seq catches up.
			s.lastPub = pub
			s.lastSeq = 0
		}
		if seq <= s.lastSeq && s.haveVal {
			// Reordered stale sample: newer value already cached.
			s.mu.Unlock()
			return
		}
		s.lastSeq = seq
	}
	s.value = v
	s.ts = ts
	s.rxAt = s.engine.clk.Now()
	s.rxAge = s.rxAt.Sub(ts)
	if s.rxAge < 0 {
		s.rxAge = 0 // publisher clock ahead of ours
	}
	s.validity = validity
	if validity == 0 {
		s.validity = s.opts.QoS.Validity
	}
	if !s.haveVal && s.initial != nil {
		s.initial.Signal() // wake a pending guaranteed-initial-value wait
	}
	s.haveVal = true
	s.samples++
	onSample := s.opts.OnSample
	s.mu.Unlock()

	s.resetTimer()
	if onSample != nil {
		d := s.engine.deliveries.Get()
		d.onSample, d.v, d.ts = onSample, v, ts
		if err := s.engine.f.Schedule(s.opts.QoS.Priority, d.run); err != nil {
			d.recycle()
			uerr.Wrapf(s.engine.reg, codeVarShed, err, "sample callback %s", s.name)
		}
	}
}

// delivery is one sample queued on the scheduler for a subscription's
// OnSample. Records come off the engine's free list with their job bound
// once, so queueing one allocates nothing.
type delivery struct {
	e        *Engine
	run      func() // d.exec, bound once
	onSample func(v any, ts time.Time)
	v        any
	ts       time.Time
}

// exec is the queued job. The record is recycled before the callback runs,
// so a callback that re-enters the engine (on an inline scheduler, say) may
// take it for its own sample.
func (d *delivery) exec() {
	onSample, v, ts := d.onSample, d.v, d.ts
	d.recycle()
	onSample(v, ts)
}

// recycle clears the record and gives it back.
func (d *delivery) recycle() {
	d.onSample, d.v, d.ts = nil, nil, time.Time{}
	d.e.deliveries.Put(d)
}

// armTimer starts silence detection if the QoS declares a period.
func (s *Subscription) armTimer() {
	deadline := s.opts.QoS.SilenceDeadline()
	if deadline <= 0 || s.opts.OnTimeout == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.timer = s.engine.clk.AfterFunc(deadline, s.fireTimeout)
}

func (s *Subscription) resetTimer() {
	deadline := s.opts.QoS.SilenceDeadline()
	if deadline <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.timer == nil {
		return
	}
	s.timer.Reset(deadline)
}

func (s *Subscription) fireTimeout() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.timeouts++
	// Silence is measured on the receiver's clock from the last arrival,
	// not from the publisher's embedded timestamp: clock skew between
	// nodes must not produce negative or wildly wrong durations in the
	// warning.
	silence := s.engine.clk.Since(s.rxAt)
	if !s.haveVal {
		silence = s.opts.QoS.SilenceDeadline()
	}
	onTimeout := s.opts.OnTimeout
	// Re-arm so persistent silence keeps warning.
	if s.timer != nil {
		s.timer.Reset(s.opts.QoS.SilenceDeadline())
	}
	s.mu.Unlock()
	if onTimeout != nil {
		if err := s.engine.f.Schedule(qos.PriorityHigh, func() { onTimeout(silence) }); err != nil {
			uerr.Wrapf(s.engine.reg, codeVarShed, err, "silence warning %s", s.name)
		}
	}
}

// Close detaches the subscription.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.mu.Unlock()

	e := s.engine
	e.mu.Lock()
	var list []*Subscription // a fresh slice: readers may hold the old one
	for _, sub := range e.subs[s.name] {
		if sub != s {
			list = append(list, sub)
		}
	}
	if len(list) == 0 {
		delete(e.subs, s.name)
	} else {
		e.subs[s.name] = list
	}
	e.mu.Unlock()
	if len(list) == 0 {
		if err := e.f.Leave(s.group); err != nil {
			uerr.Wrapf(e.reg, codeVarLeave, err, "leave %s", s.name)
		}
	}
}

// HandleSample processes an incoming MTSample frame. Sample frames carry
// the per-publisher sequence, used to discard reordered stale samples.
func (e *Engine) HandleSample(from transport.NodeID, fr *protocol.Frame) {
	e.handleIncoming(fr, fr.Seq)
}

func (e *Engine) handleIncoming(fr *protocol.Frame, seq uint64) {
	subs := e.subscribers(fr.Channel)
	if len(subs) == 0 {
		return
	}
	enc := e.f.Encoding()
	if fr.Encoding != enc.ID() {
		return // foreign encoding; this node cannot decode
	}
	for _, s := range subs {
		v, ts, validity, pub, err := decodeSamplePayload(enc, s.typ, fr.Payload)
		if err != nil {
			continue // incompatible subscriber type; skip
		}
		s.accept(v, ts, validity, pub, seq)
	}
}

// HandleSnapshotReq serves a reliable snapshot of a local publisher.
func (e *Engine) HandleSnapshotReq(from transport.NodeID, fr *protocol.Frame) {
	e.mu.Lock()
	pub := e.pubs[fr.Channel]
	e.mu.Unlock()
	if pub == nil {
		return
	}
	// The reply is the cached encoding under its original publish
	// timestamp; nothing is re-encoded.
	pub.mu.Lock()
	if pub.lastTS.IsZero() {
		pub.mu.Unlock()
		return // nothing published yet
	}
	payload := appendSampleHeader(bufpool.Get(sampleHeaderLen+len(pub.last)), pub.lastTS, pub.q.Validity, pub.id)
	payload = append(payload, pub.last...)
	pub.mu.Unlock()
	reply := &protocol.Frame{
		Type:     protocol.MTSnapshotRep,
		Encoding: e.enc.ID(),
		Priority: qos.PriorityHigh,
		Channel:  fr.Channel,
		Payload:  payload,
	}
	e.f.SendReliable(from, reply, qos.ReliableARQ, nil)
	bufpool.Put(payload)
}

// HandleSnapshotRep installs a snapshot reply into waiting subscriptions.
// Snapshot frames carry node-global sequence numbers, not the publisher's
// sample sequence, so they bypass the reorder filter (seq 0).
func (e *Engine) HandleSnapshotRep(from transport.NodeID, fr *protocol.Frame) {
	e.handleIncoming(fr, 0)
}

// Records lists this node's published variables for announcements.
func (e *Engine) Records() []naming.Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]naming.Record, 0, len(e.pubs))
	for _, p := range e.pubs {
		out = append(out, p.Record())
	}
	return out
}

// PublisherCount reports registered publishers (diagnostics).
func (e *Engine) PublisherCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pubs)
}
