// Package events implements the paper's §4.2 communication primitive:
// publish/subscribe notifications with guaranteed delivery to every
// subscribed service. "The utility of events is to inform of punctual and
// important facts" — alarms, waypoint arrivals, triggers for
// pre-programmed actions.
//
// Two delivery modes exist, selected by qos.EventQoS.Delivery:
//
//   - Unicast (default): the paper's baseline mapping. Each occurrence is
//     sent once per subscriber over UDP with application-level
//     acknowledgment and retransmission; Publish blocks until every
//     subscriber acknowledges.
//   - Multicast: one group-addressed frame per occurrence regardless of
//     audience size (§4.1: "one packet sent can arrive to multiple
//     nodes"). Occurrences carry a per-topic sequence number; subscribers
//     detect gaps and reclaim lost occurrences with MTEventNack, answered
//     by unicast retransmissions from the publisher's replay buffer over
//     the ARQ engine.
//
// The subscriber set is maintained at the publisher: subscribers register
// with a reliable MTSubscribe and refresh it periodically, so a restarted
// publisher relearns its audience within one refresh interval.
package events

import (
	"context"
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

// Event wire-path error codes.
var (
	codeEventPublish = uerr.Register("events.publish", uerr.CatSend)
	codeEventPartial = uerr.Register("events.partial_delivery", uerr.CatSend)
	codeEventLeave   = uerr.Register("events.leave_group", uerr.CatResource)
	codeEventShed    = uerr.Register("events.dispatch_shed", uerr.CatAdmission)
)

// Errors.
var (
	// ErrDuplicateName reports a second publisher of a topic in one node.
	ErrDuplicateName = errors.New("event topic already offered")
	// ErrPartialDelivery reports an event some subscribers did not
	// acknowledge; the paper's degraded-mode signal.
	ErrPartialDelivery = errors.New("event not delivered to all subscribers")
	// ErrClosed reports use of a closed handle.
	ErrClosed = errors.New("event handle closed")
	// ErrTypeMismatch reports subscriber/publisher type disagreement.
	ErrTypeMismatch = errors.New("event type mismatch")
)

// numShards partitions the per-topic state so publishers and the receive
// path of unrelated topics never contend on one engine-wide mutex. Must be
// a power of two.
const numShards = 16

// shard holds the registries of the topics hashed onto it.
type shard struct {
	mu   sync.Mutex
	pubs map[string]*Publisher
	// subs lists are copy-on-write: Subscribe and Close install a fresh
	// slice, so delivery reads one under mu and walks it unlocked without
	// copying.
	subs     map[string][]*Subscription
	trackers map[string]map[transport.NodeID]*seqTracker
}

// Engine is the per-container event runtime.
type Engine struct {
	f      fabric.Fabric
	clk    clock.Clock
	enc    encoding.ValueEncoder
	reg    *metrics.Registry
	shards [numShards]shard

	// Recycled records: occurrences queued for a handler, and unicast
	// publishes waiting for their acks.
	deliveries *freelist.List[delivery]
	fanouts    *freelist.List[fanout]
}

// Free list bounds: enough delivery records for a subscriber's burst of
// queued occurrences, and fan-out records for the publishes in flight.
const (
	deliveryFreeCap = 256
	fanoutFreeCap   = 64
)

// New builds the engine for a container.
func New(f fabric.Fabric) *Engine {
	e := &Engine{f: f, clk: fabric.ClockOf(f), enc: encoding.NewValueEncoder(f.Encoding()), reg: fabric.MetricsOf(f)}
	for i := range e.shards {
		e.shards[i].pubs = make(map[string]*Publisher)
		e.shards[i].subs = make(map[string][]*Subscription)
		e.shards[i].trackers = make(map[string]map[transport.NodeID]*seqTracker)
	}
	e.deliveries = freelist.New(deliveryFreeCap, func() *delivery {
		d := &delivery{e: e}
		d.run = d.exec
		return d
	})
	e.fanouts = freelist.New(fanoutFreeCap, func() *fanout { return &fanout{e: e, trig: clock.NewTrigger(e.clk)} })
	return e
}

// shardOf maps a topic onto its shard (inline FNV-1a, no allocation).
func (e *Engine) shardOf(topic string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(topic); i++ {
		h ^= uint32(topic[i])
		h *= 16777619
	}
	return &e.shards[h&(numShards-1)]
}

// framePool recycles frames on the publish hot path; the fabric must not
// retain the *protocol.Frame past the send call. Event payloads (header +
// encoded body) come from bufpool and are recycled under the same
// contract: frame encoding copies the payload into the wire buffer.
var framePool = sync.Pool{New: func() any { return new(protocol.Frame) }}

func getFrame() *protocol.Frame  { return framePool.Get().(*protocol.Frame) }
func putFrame(f *protocol.Frame) { *f = protocol.Frame{}; framePool.Put(f) }

// Offer registers a publisher for topic with an optional payload type (nil
// means the event carries no data — "events can ... have meaning by
// themselves").
func (e *Engine) Offer(topic, service string, t *presentation.Type, q qos.EventQoS) (*Publisher, error) {
	if t != nil {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.Normalize()
	sh := e.shardOf(topic)
	sh.mu.Lock()
	if _, dup := sh.pubs[topic]; dup {
		sh.mu.Unlock()
		return nil, fmt.Errorf("events: %q: %w", topic, ErrDuplicateName)
	}
	lb := metrics.L("topic", topic)
	p := &Publisher{
		engine:      e,
		topic:       topic,
		group:       fabric.EventGroup(topic),
		service:     service,
		typ:         t,
		q:           q,
		id:          protocol.NewIncarnation(),
		subscribers: make(map[transport.NodeID]time.Time),
		published:   e.reg.Counter("events", "published", lb),
		failures:    e.reg.Counter("events", "subscriber_failures", lb),
		repairs:     e.reg.Counter("events", "repairs", lb),
	}
	if q.Delivery == qos.DeliverMulticast {
		p.replay = newReplayRing(replayDepth)
	}
	sh.pubs[topic] = p
	sh.mu.Unlock()
	e.f.OfferChanged()
	return p, nil
}

// replayDepth is how many recent occurrences a multicast publisher keeps
// for NACK repair. Gaps older than this are unrecoverable (the subscriber
// counts them as lost).
const replayDepth = 128

// replayRing is a fixed-size buffer of recent occurrences, indexed by
// per-topic sequence.
type replayRing struct {
	entries []replayEntry
}

type replayEntry struct {
	seq  uint64
	body []byte
}

func newReplayRing(depth int) *replayRing {
	return &replayRing{entries: make([]replayEntry, depth)}
}

func (r *replayRing) put(seq uint64, body []byte) {
	e := &r.entries[seq%uint64(len(r.entries))]
	// Reuse the slot's storage when it fits to avoid re-allocating on
	// every publish.
	e.seq = seq
	e.body = append(e.body[:0], body...)
}

func (r *replayRing) get(seq uint64) ([]byte, bool) {
	e := &r.entries[seq%uint64(len(r.entries))]
	if e.seq != seq || seq == 0 {
		return nil, false
	}
	return e.body, true
}

// Publisher is the provider-side handle of one event topic.
type Publisher struct {
	engine  *Engine
	topic   string
	group   string // fabric.EventGroup(topic), built once
	service string
	typ     *presentation.Type // nil = no payload
	q       qos.EventQoS

	// id is the publisher incarnation carried in every occurrence so
	// subscribers reset their sequence trackers when a topic's publisher
	// restarts with fresh numbering.
	id uint32

	mu          sync.Mutex
	subscribers map[transport.NodeID]time.Time // last refresh
	seq         uint64                         // per-topic occurrence sequence
	bodyHint    int                            // last encoded body length, sizes the next pooled payload
	replay      *replayRing                    // multicast mode only
	closed      bool

	// Registry handles ("events" component, labeled by topic); the
	// Stats/Repairs accessors are views over the same series the node's
	// MetricsSnapshot exports.
	published *metrics.Counter
	failures  *metrics.Counter
	repairs   *metrics.Counter // occurrences retransmitted on NACK
}

// subscriberTTL drops remote subscribers that stop refreshing (their node
// died without unsubscribing).
const subscriberTTL = 5 * time.Second

// Topic returns the event topic name.
func (p *Publisher) Topic() string { return p.topic }

// Subscribers returns the current remote subscriber nodes.
func (p *Publisher) Subscribers() []transport.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]transport.NodeID, 0, len(p.subscribers))
	for node := range p.subscribers {
		out = append(out, node)
	}
	return out
}

// Publish delivers v to every subscriber. Local subscribers are delivered
// directly (bypass).
//
// In unicast mode the call blocks until all subscribers acknowledge, the
// context expires, or a subscriber exhausts its retries. On partial failure
// the failed subscribers are dropped from the set (the paper's middleware
// "detects the situation" and continues degraded) and ErrPartialDelivery is
// returned with the count. On context expiry the outcomes that completed
// before cancellation are still accounted in Stats and unreachable
// subscribers among them dropped.
//
// In multicast mode the occurrence is encoded once and sent as one
// group-addressed frame; delivery gaps are repaired asynchronously through
// subscriber NACKs, so the call does not block on acknowledgment.
func (p *Publisher) Publish(ctx context.Context, v any) error {
	if p.typ == nil && v != nil {
		return fmt.Errorf("events: %q carries no payload: %w", p.topic, ErrTypeMismatch)
	}
	e := p.engine
	multicast := p.q.Delivery == qos.DeliverMulticast

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("events: %q: %w", p.topic, ErrClosed)
	}
	// One pooled payload per occurrence: header, then the value coerced and
	// encoded in one walk straight onto it. A rejected value consumes no
	// sequence number.
	seq := p.seq + 1
	payload := protocol.AppendEventHeader(bufpool.Get(protocol.EventHeaderLen+p.bodyHint), p.id, seq)
	if p.typ != nil {
		var err error
		if payload, err = e.enc.Append(payload, p.typ, v); err != nil {
			p.mu.Unlock()
			bufpool.Put(payload)
			return err
		}
	}
	body := payload[protocol.EventHeaderLen:]
	p.seq = seq
	p.bodyHint = len(body)
	now := e.clk.Now()
	// Unicast needs the subscriber list, multicast only whether anyone
	// listens.
	var fan *fanout
	if !multicast {
		fan = e.fanouts.Get()
	}
	live := 0
	for node, refreshed := range p.subscribers {
		if now.Sub(refreshed) > subscriberTTL {
			delete(p.subscribers, node)
			continue
		}
		live++
		if fan != nil {
			fan.nodes = append(fan.nodes, node)
		}
	}
	p.published.Inc()
	if p.replay != nil {
		p.replay.put(seq, body)
	}
	p.mu.Unlock()
	defer bufpool.Put(payload)

	// Local bypass: same-container subscribers skip frame, egress and
	// transport; each gets a private value decoded from the occurrence.
	e.deliverLocal(p.topic, p.typ, body)

	if live == 0 {
		if fan != nil {
			fan.recycle()
		}
		return nil
	}
	if multicast {
		return p.publishGroup(payload)
	}
	return p.publishUnicast(ctx, payload, fan)
}

// publishGroup sends one group-addressed frame for the occurrence.
func (p *Publisher) publishGroup(payload []byte) error {
	frame := getFrame()
	frame.Type = protocol.MTEvent
	frame.Encoding = p.engine.enc.ID()
	frame.Priority = p.q.Priority
	frame.Channel = p.topic
	frame.Payload = payload
	err := p.engine.f.SendGroup(p.group, frame)
	putFrame(frame)
	if err != nil {
		p.failures.Inc()
		return uerr.Wrapf(p.engine.reg, codeEventPublish, err, "publish %q", p.topic)
	}
	return nil
}

// publishUnicast performs the blocking per-subscriber reliable fan-out to
// fan's nodes.
func (p *Publisher) publishUnicast(ctx context.Context, payload []byte, fan *fanout) error {
	// One shared payload for every copy: the fabric encodes it into each
	// wire frame synchronously, so sharing is safe and saves N-1 copies.
	fan.arm()
	for i, node := range fan.nodes {
		frame := getFrame()
		frame.Type = protocol.MTEvent
		frame.Encoding = p.engine.enc.ID()
		frame.Priority = p.q.Priority
		frame.Channel = p.topic
		frame.Payload = payload
		p.sendEvent(node, frame, fan.slots[i].done)
		putFrame(frame)
	}
	// The trigger is clock-managed, so virtual time cannot advance past an
	// ack that has just arrived.
	for !fan.settled() && fan.trig.Wait(-1, ctx.Done()) {
	}
	targets := len(fan.nodes)
	failed, complete := fan.finish(p)
	if failed > 0 {
		p.failures.Add(uint64(failed))
	}
	if !complete {
		return fmt.Errorf("events: publish %q (%d subscribers unreachable before cancellation): %w",
			p.topic, failed, ctx.Err())
	}
	if failed > 0 {
		return uerr.Wrapf(p.engine.reg, codeEventPartial, ErrPartialDelivery,
			"%q: %d of %d subscribers unreachable", p.topic, failed, targets)
	}
	return nil
}

// fanout is one unicast publish waiting for its subscribers' acks: the
// target nodes, one slot per target that its reliable send completes, and
// the trigger the publisher parks on. Records come off the engine's free
// list with their trigger, slices and per-slot completions, so publishing
// to a steady audience allocates nothing. A record is recycled only once
// its last completion has arrived — by the publisher, or, when the
// publisher gave up first, by that last completion — so a late outcome can
// never land in a later publish.
type fanout struct {
	e     *Engine
	trig  clock.Trigger
	nodes []transport.NodeID
	slots []*fanSlot // slots[i] reports nodes[i]; grows with the audience

	mu        sync.Mutex
	arrived   int  // completions in for this publish
	abandoned bool // the publisher left first; the last completion recycles
}

// fanSlot is one target's outcome in a fanout; its fields are guarded by
// the fanout's mu.
type fanSlot struct {
	f    *fanout
	in   bool // the completion has arrived
	err  error
	done func(error) // s.complete, bound once
}

// arm makes sure every node has a slot.
func (f *fanout) arm() {
	for len(f.slots) < len(f.nodes) {
		s := &fanSlot{f: f}
		s.done = s.complete
		f.slots = append(f.slots, s)
	}
}

// complete is a target's reliable-send completion. The fabric fires it
// exactly once.
func (s *fanSlot) complete(err error) {
	f := s.f
	f.mu.Lock()
	s.in, s.err = true, err
	f.arrived++
	if !f.abandoned {
		f.trig.Signal()
		f.mu.Unlock()
		return
	}
	last := f.arrived == len(f.nodes)
	f.mu.Unlock()
	if last {
		f.recycle()
	}
}

func (f *fanout) settled() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.arrived == len(f.nodes)
}

// finish accounts the outcomes that have arrived, dropping each failed
// subscriber, and ends the publisher's use of the record: recycled now when
// every completion is in, left to the last one otherwise.
func (f *fanout) finish(p *Publisher) (failed int, complete bool) {
	f.mu.Lock()
	for i, node := range f.nodes {
		if s := f.slots[i]; s.in && s.err != nil {
			failed++
			p.dropSubscriber(node)
		}
	}
	complete = f.arrived == len(f.nodes)
	f.abandoned = !complete
	f.mu.Unlock()
	if complete {
		f.recycle()
	}
	return failed, complete
}

// recycle clears the record and gives it back.
func (f *fanout) recycle() {
	for _, s := range f.slots[:len(f.nodes)] {
		s.in, s.err = false, nil
	}
	clear(f.nodes)
	f.nodes = f.nodes[:0]
	f.arrived, f.abandoned = 0, false
	f.e.fanouts.Put(f)
}

// repairFor retransmits NACKed occurrences to one subscriber as unicast
// reliable sends from the replay buffer.
func (p *Publisher) repairFor(node transport.NodeID, seqs []uint64) {
	p.mu.Lock()
	if p.closed || p.replay == nil {
		p.mu.Unlock()
		return
	}
	type repair struct {
		seq  uint64
		body []byte
	}
	repairs := make([]repair, 0, len(seqs))
	for _, seq := range seqs {
		if body, ok := p.replay.get(seq); ok {
			// Copy: the ring slot will be overwritten by later
			// publishes while the retransmission is in flight.
			repairs = append(repairs, repair{seq: seq, body: append([]byte(nil), body...)})
		}
	}
	p.repairs.Add(uint64(len(repairs)))
	p.mu.Unlock()

	for _, rep := range repairs {
		frame := &protocol.Frame{
			Type:     protocol.MTEvent,
			Encoding: p.engine.f.Encoding().ID(),
			Priority: p.q.Priority,
			Channel:  p.topic,
			Payload:  protocol.EncodeEventPayload(p.id, rep.seq, rep.body, nil),
		}
		p.sendEvent(node, frame, nil)
	}
}

// sendEvent transmits one event frame with the topic's per-send ARQ
// tuning (qos.EventQoS.AckTimeout / MaxRetries) when the fabric supports
// it — a topic routed onto a high-latency bearer needs a longer
// retransmission fuse than the engine default, or queueing jitter spawns
// duplicates. Fabrics without per-send tuning get the plain reliable path.
func (p *Publisher) sendEvent(node transport.NodeID, frame *protocol.Frame, done func(error)) {
	if ts, ok := p.engine.f.(fabric.TunedSender); ok && (p.q.AckTimeout > 0 || p.q.MaxRetries > 0) {
		ts.SendReliableTuned(node, frame, protocol.SendTuning{
			Timeout: p.q.AckTimeout, MaxRetries: p.q.MaxRetries,
		}, done)
		return
	}
	p.engine.f.SendReliable(node, frame, qos.ReliableARQ, done)
}

func (p *Publisher) dropSubscriber(node transport.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.subscribers, node)
}

// Stats reports published event and failed-subscriber counts.
func (p *Publisher) Stats() (published, failures uint64) {
	return p.published.Value(), p.failures.Value()
}

// Repairs reports how many occurrences were retransmitted on NACK
// (multicast mode).
func (p *Publisher) Repairs() uint64 { return p.repairs.Value() }

// Close withdraws the publisher.
func (p *Publisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	sh := p.engine.shardOf(p.topic)
	sh.mu.Lock()
	delete(sh.pubs, p.topic)
	sh.mu.Unlock()
	p.engine.f.OfferChanged()
}

// Record returns the naming record for announcements.
func (p *Publisher) Record() naming.Record {
	sig := ""
	if p.typ != nil {
		sig = p.typ.String()
	}
	return naming.Record{
		Kind:    naming.KindEvent,
		Name:    p.topic,
		Service: p.service,
		Node:    p.engine.f.Self(),
		TypeSig: sig,
	}
}

// Handler consumes one event occurrence.
type Handler func(v any, from transport.NodeID)

// Subscription is the consumer-side handle of one topic.
type Subscription struct {
	engine  *Engine
	topic   string
	group   string // fabric.EventGroup(topic), built once
	typ     *presentation.Type
	q       qos.EventQoS
	handler Handler

	mu       sync.Mutex
	provider transport.NodeID
	closed   bool
	joined   bool // multicast group membership
	received uint64
	gaps     uint64 // occurrences detected missing in the topic stream
	repaired uint64 // gap occurrences later recovered
}

// Subscribe registers handler for topic. The subscription is announced
// reliably to the current publisher and re-announced on refresh, so it
// survives publisher restarts. Every subscription also joins the topic's
// multicast group: the delivery mode is the publisher's choice, so a
// subscriber that asked for unicast must still hear group-addressed
// occurrences from a multicast publisher.
func (e *Engine) Subscribe(topic string, t *presentation.Type, q qos.EventQoS, h Handler) (*Subscription, error) {
	if t != nil {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.Normalize()
	if h == nil {
		return nil, fmt.Errorf("events: nil handler for %q: %w", topic, ErrTypeMismatch)
	}
	s := &Subscription{engine: e, topic: topic, group: fabric.EventGroup(topic), typ: t, q: q, handler: h}

	sh := e.shardOf(topic)
	sh.mu.Lock()
	old := sh.subs[topic]
	sh.subs[topic] = append(old[:len(old):len(old)], s) // full slice expression: always a fresh array
	sh.mu.Unlock()

	if err := e.f.Join(s.group); err != nil {
		s.Close()
		return nil, fmt.Errorf("events: join group for %q: %w", topic, err)
	}
	s.mu.Lock()
	s.joined = true
	s.mu.Unlock()

	// Register with the remote publisher if one exists; a local-only
	// topic needs no frames. Missing publishers are not an error — the
	// refresh loop will register when one appears (startup ordering).
	s.register()
	return s, nil
}

// register sends MTSubscribe to the current provider, if any and not local.
func (s *Subscription) register() {
	e := s.engine
	sh := e.shardOf(s.topic)
	sh.mu.Lock()
	_, local := sh.pubs[s.topic]
	sh.mu.Unlock()
	if local {
		return
	}
	rec, err := e.f.Directory().Select(naming.KindEvent, s.topic, qos.BindDynamic, "")
	if err != nil {
		return
	}
	if s.typ != nil && rec.TypeSig != "" && rec.TypeSig != s.typ.String() {
		return // incompatible publisher; skip registration
	}
	s.mu.Lock()
	s.provider = rec.Node
	s.mu.Unlock()
	// Subscriptions ride the high egress lane ahead of sample/bulk
	// backlog, so joining a topic stays fast on a congested link.
	frame := &protocol.Frame{
		Type:     protocol.MTSubscribe,
		Priority: qos.PriorityHigh,
		Channel:  s.topic,
	}
	e.f.SendReliable(rec.Node, frame, qos.ReliableARQ, nil)
}

// Refresh re-registers every remote subscription; the container calls it on
// its announce tick so publisher restarts relearn subscribers.
func (e *Engine) Refresh() {
	var all []*Subscription
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, list := range sh.subs {
			all = append(all, list...)
		}
		sh.mu.Unlock()
	}
	for _, s := range all {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if !closed {
			s.register()
		}
	}
}

// Received reports delivered occurrence count.
func (s *Subscription) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// Gaps reports sequence gaps detected in the topic stream and how many of
// the missing occurrences were subsequently recovered (NACK repair or late
// arrival).
func (s *Subscription) Gaps() (detected, repaired uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gaps, s.repaired
}

func (s *Subscription) noteGaps(n uint64) {
	s.mu.Lock()
	s.gaps += n
	s.mu.Unlock()
}

func (s *Subscription) noteRepaired() {
	s.mu.Lock()
	s.repaired++
	s.mu.Unlock()
}

// Close detaches the subscription and unsubscribes from the publisher.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	provider := s.provider
	joined := s.joined
	s.mu.Unlock()

	e := s.engine
	sh := e.shardOf(s.topic)
	sh.mu.Lock()
	var list []*Subscription // a fresh slice: readers may hold the old one
	for _, sub := range sh.subs[s.topic] {
		if sub != s {
			list = append(list, sub)
		}
	}
	if len(list) == 0 {
		delete(sh.subs, s.topic)
		delete(sh.trackers, s.topic)
	} else {
		sh.subs[s.topic] = list
	}
	remaining := len(list)
	sh.mu.Unlock()

	if remaining == 0 && joined {
		if err := e.f.Leave(s.group); err != nil {
			uerr.Wrapf(e.reg, codeEventLeave, err, "leave %s", s.topic)
		}
	}
	if remaining == 0 && provider != "" && provider != e.f.Self() {
		frame := &protocol.Frame{
			Type:     protocol.MTUnsubscribe,
			Priority: qos.PriorityHigh,
			Channel:  s.topic,
		}
		e.f.SendReliable(provider, frame, qos.ReliableARQ, nil)
	}
}

// deliverLocal dispatches an occurrence to same-container subscribers, each
// with its own value decoded from body (nil for a payload-less topic).
func (e *Engine) deliverLocal(topic string, t *presentation.Type, body []byte) {
	sh := e.shardOf(topic)
	sh.mu.Lock()
	subs := sh.subs[topic]
	sh.mu.Unlock()
	for _, s := range subs {
		var v any
		if t != nil {
			decoded, err := e.f.Encoding().Unmarshal(t, body)
			if err != nil {
				continue
			}
			v = decoded
		}
		s.dispatch(v, e.f.Self())
	}
}

func (s *Subscription) dispatch(v any, from transport.NodeID) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.received++
	h, pr := s.handler, s.q.Priority
	s.mu.Unlock()
	d := s.engine.deliveries.Get()
	d.h, d.v, d.from = h, v, from
	if err := s.engine.f.Schedule(pr, d.run); err != nil {
		d.recycle()
		uerr.Wrapf(s.engine.reg, codeEventShed, err, "dispatch %s", s.topic)
	}
}

// delivery is one occurrence queued on the scheduler for a subscription's
// handler. Records come off the engine's free list with their job bound
// once, so queueing one allocates nothing.
type delivery struct {
	e    *Engine
	run  func() // d.exec, bound once
	h    Handler
	v    any
	from transport.NodeID
}

// exec is the queued job. The record is recycled before the handler runs,
// so a handler that re-enters the engine (on an inline scheduler, say) may
// take it for its own occurrence.
func (d *delivery) exec() {
	h, v, from := d.h, d.v, d.from
	d.recycle()
	h(v, from)
}

// recycle clears the record and gives it back.
func (d *delivery) recycle() {
	d.h, d.v, d.from = nil, nil, ""
	d.e.deliveries.Put(d)
}

// HandleSubscribe processes a remote MTSubscribe.
func (e *Engine) HandleSubscribe(from transport.NodeID, fr *protocol.Frame) {
	sh := e.shardOf(fr.Channel)
	sh.mu.Lock()
	pub := sh.pubs[fr.Channel]
	sh.mu.Unlock()
	if pub == nil {
		return
	}
	pub.mu.Lock()
	defer pub.mu.Unlock()
	if !pub.closed {
		pub.subscribers[from] = e.clk.Now()
	}
}

// HandleUnsubscribe processes a remote MTUnsubscribe.
func (e *Engine) HandleUnsubscribe(from transport.NodeID, fr *protocol.Frame) {
	sh := e.shardOf(fr.Channel)
	sh.mu.Lock()
	pub := sh.pubs[fr.Channel]
	sh.mu.Unlock()
	if pub == nil {
		return
	}
	pub.dropSubscriber(from)
}

// HandleEventNack processes a subscriber's gap report: retransmit the
// missing occurrences unicast from the replay buffer.
func (e *Engine) HandleEventNack(from transport.NodeID, fr *protocol.Frame) {
	sh := e.shardOf(fr.Channel)
	sh.mu.Lock()
	pub := sh.pubs[fr.Channel]
	sh.mu.Unlock()
	if pub == nil {
		return
	}
	seqs, err := protocol.DecodeEventNack(fr.Payload)
	if err != nil {
		return
	}
	pub.repairFor(from, seqs)
}

// seqTracker follows one publisher's per-topic sequence at a subscriber
// node: gap detection, duplicate suppression, repair matching. One tracker
// exists per (topic, source node); the publisher incarnation id resets it
// when the topic's publisher restarts with fresh numbering.
type seqTracker struct {
	seen    bool
	pub     uint32 // publisher incarnation
	first   uint64 // initial sequence observed for this incarnation
	last    uint64
	missing map[uint64]struct{}
}

// frameDisposition classifies an incoming sequenced occurrence.
type frameDisposition int

const (
	frameFresh frameDisposition = iota
	frameRepair
	frameDuplicate
)

// observe advances the tracker with occurrence (pubID, seq) and returns the
// disposition, the total gap since the previously highest sequence, and the
// subset of gap sequences worth NACKing (capped at protocol.MaxNackSeqs —
// anything older is beyond the publisher's replay buffer anyway).
func (tr *seqTracker) observe(pubID uint32, seq uint64) (d frameDisposition, gap uint64, nackable []uint64) {
	if !tr.seen || tr.pub != pubID {
		// Mid-stream join or publisher restart: prior history is not a
		// gap in this numbering.
		tr.seen = true
		tr.pub = pubID
		tr.first = seq
		tr.last = seq
		tr.missing = nil
		return frameFresh, 0, nil
	}
	switch {
	case seq > tr.last:
		if gap = seq - tr.last - 1; gap > 0 {
			if tr.missing == nil {
				tr.missing = make(map[uint64]struct{})
			}
			first := tr.last + 1
			// NACK only what the publisher's replay ring can still
			// serve; older losses are unrecoverable and reported via
			// the gap count alone.
			if gap > replayDepth {
				first = seq - replayDepth
			}
			for m := first; m < seq; m++ {
				tr.missing[m] = struct{}{}
				nackable = append(nackable, m)
			}
		}
		tr.last = seq
		tr.prune()
		return frameFresh, gap, nackable
	default:
		if _, ok := tr.missing[seq]; ok {
			delete(tr.missing, seq)
			return frameRepair, 0, nil
		}
		if seq < tr.first {
			// Reordered in-flight occurrence from before this tracker
			// first saw the stream (concurrent publishes racing the
			// subscribe): deliver rather than risk dropping a
			// guaranteed event. Network-level duplicates of acked
			// unicast frames are already suppressed by the container
			// dedup, so this cannot double-deliver on the ARQ path.
			return frameFresh, 0, nil
		}
		return frameDuplicate, 0, nil
	}
}

// prune drops missing entries too old for any replay buffer to repair.
func (tr *seqTracker) prune() {
	if len(tr.missing) <= 4*protocol.MaxNackSeqs {
		return
	}
	for seq := range tr.missing {
		if tr.last-seq > 2*replayDepth {
			delete(tr.missing, seq)
		}
	}
}

// HandleEvent processes an incoming MTEvent occurrence (group-addressed,
// unicast, or NACK-triggered retransmission).
func (e *Engine) HandleEvent(from transport.NodeID, fr *protocol.Frame) {
	pubID, topicSeq, body, err := protocol.DecodeEventPayload(fr.Payload)
	if err != nil {
		// Unsequenced frame (foreign or ancient sender): deliver as-is
		// with no gap tracking.
		pubID, topicSeq, body = 0, 0, fr.Payload
	}

	sh := e.shardOf(fr.Channel)
	sh.mu.Lock()
	subs := sh.subs[fr.Channel]
	var (
		disposition = frameFresh
		gap         uint64
		nackable    []uint64
	)
	if len(subs) > 0 && topicSeq != 0 && from != e.f.Self() {
		byNode := sh.trackers[fr.Channel]
		if byNode == nil {
			byNode = make(map[transport.NodeID]*seqTracker)
			sh.trackers[fr.Channel] = byNode
		}
		tr := byNode[from]
		if tr == nil {
			tr = &seqTracker{}
			byNode[from] = tr
		}
		// Every subscription is ARQ-reliable, so gaps are NACKed; a
		// unicast publisher without a replay buffer ignores the NACK (its
		// own ARQ retries close the gap), so this is safe in either
		// delivery mode.
		disposition, gap, nackable = tr.observe(pubID, topicSeq)
	}
	sh.mu.Unlock()
	if len(subs) == 0 || disposition == frameDuplicate {
		return
	}

	if gap > 0 {
		for _, s := range subs {
			s.noteGaps(gap)
		}
		if len(nackable) > 0 {
			e.sendNack(from, fr.Channel, nackable)
		}
	}
	if disposition == frameRepair {
		for _, s := range subs {
			s.noteRepaired()
		}
	}

	enc := e.f.Encoding()
	if len(body) > 0 && fr.Encoding != enc.ID() {
		return
	}
	for _, s := range subs {
		var v any
		if s.typ != nil && len(body) > 0 {
			decoded, err := enc.Unmarshal(s.typ, body)
			if err != nil {
				continue
			}
			v = decoded
		}
		s.dispatch(v, from)
	}
}

// sendNack reports newly detected gaps to the publisher, reliably so the
// report itself survives the loss that caused the gap.
func (e *Engine) sendNack(to transport.NodeID, topic string, missing []uint64) {
	payload, err := protocol.EncodeEventNack(missing)
	if err != nil {
		return
	}
	frame := &protocol.Frame{
		Type:     protocol.MTEventNack,
		Priority: qos.PriorityHigh,
		Channel:  topic,
		Payload:  payload,
	}
	e.f.SendReliable(to, frame, qos.ReliableARQ, nil)
}

// PeerGone drops a failed node from every publisher's subscriber set and
// clears its sequence trackers.
func (e *Engine) PeerGone(node transport.NodeID) {
	var pubs []*Publisher
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, p := range sh.pubs {
			pubs = append(pubs, p)
		}
		for _, byNode := range sh.trackers {
			delete(byNode, node)
		}
		sh.mu.Unlock()
	}
	for _, p := range pubs {
		p.dropSubscriber(node)
	}
}

// Records lists this node's offered topics for announcements.
func (e *Engine) Records() []naming.Record {
	var out []naming.Record
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, p := range sh.pubs {
			out = append(out, p.Record())
		}
		sh.mu.Unlock()
	}
	return out
}
