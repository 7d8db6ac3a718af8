// Package gateway bridges the avionics fabric to many concurrent external
// consumers over plain TCP. The paper's ground station (§5) is a single
// terminal subscriber; the gateway is the scale-out version of it: one
// node joins the fabric once and re-publishes what it hears to N external
// clients at flat per-client cost.
//
// The hot path is built from four mechanisms:
//
//   - shared subscription multiplexing: exactly one fabric subscription
//     per variable or event topic regardless of client count — the first
//     external subscribe creates it, a refcount tracks interest, the last
//     unsubscribe tears it down. The air link never sees the audience.
//   - encode-once fan-out-many: each occurrence is serialized once into a
//     pooled buffer (bufpool.Shared); every subscribed client's write
//     queue holds a retained reference to the same bytes, and the last
//     writer to finish returns the buffer to the pool.
//   - last-value cache: the freshest encoded sample of every variable is
//     retained per topic, so a client joining late gets the current value
//     immediately from gateway memory — variables.Publisher.Snapshot
//     semantics on the ground side, no air-link exchange.
//   - sharded connection handling: clients are hashed across GOMAXPROCS
//     shards; each shard's writer goroutine owns its clients' sockets, so
//     fan-out touches per-shard locks only — there is no global lock on
//     the sample path.
//
// Slow consumers are bounded by per-client write queues: a full queue
// drops the oldest variable sample (newer supersedes older), while
// reliable event frames are never silently superseded — a client that
// keeps forcing event drops, or keeps stalling its socket, is evicted so
// one bad consumer cannot hold buffers or stall the other N−1. All of it
// is counted in the node's metrics registry under gateway.* families.
package gateway

import (
	"encoding/binary"
	"runtime"
	"strconv"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
	"uavmw/internal/variables"
)

// Gateway wire-path error codes.
var (
	codeGwDecode    = uerr.Register("gateway.request_decode", uerr.CatDecode)
	codeGwEncode    = uerr.Register("gateway.sample_encode", uerr.CatEncode)
	codeGwSubscribe = uerr.Register("gateway.subscribe_failed", uerr.CatResource)
	codeGwAccept    = uerr.Register("gateway.accept", uerr.CatResource)
)

// Stream selects which fabric primitive an external subscription taps.
type Stream uint8

const (
	// StreamVariable taps a §4.1 variable: best-effort samples where the
	// newest value supersedes older ones (drop-oldest on backpressure).
	StreamVariable Stream = iota
	// StreamEvent taps a §4.2 event topic: occurrences that must not be
	// silently superseded (clients falling behind are disconnected).
	StreamEvent
)

func (s Stream) String() string {
	if s == StreamEvent {
		return "event"
	}
	return "variable"
}

// topicKey identifies one multiplexed fabric subscription.
type topicKey struct {
	stream Stream
	name   string
}

// Options tune the gateway. The zero value is usable.
type Options struct {
	// Shards is the number of connection shards (each with its own writer
	// goroutine). Zero defaults to GOMAXPROCS.
	Shards int
	// QueueLen bounds each client's write queue in frames. Zero defaults
	// to 64.
	QueueLen int
	// WriteStall is the per-write socket deadline; a write that cannot
	// make progress within it counts as one stall. Zero defaults to 2s.
	WriteStall time.Duration
	// StallLimit is how many consecutive stalled writes evict a client.
	// Zero defaults to 3.
	StallLimit int
}

const (
	// writerBatch is how many frames a shard writer sends to one client
	// before moving on (fairness inside a shard).
	writerBatch = 32
	// reliableDropLimit is how many reliable (event) frames may be dropped
	// on a full queue before the client is evicted.
	reliableDropLimit = 32
)

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 64
	}
	if o.WriteStall <= 0 {
		o.WriteStall = 2 * time.Second
	}
	if o.StallLimit <= 0 {
		o.StallLimit = 3
	}
	return o
}

// gwMetrics are the gateway.* families in the node registry, resolved
// once at construction so the fan-out path is pure atomics.
type gwMetrics struct {
	clients    *metrics.Gauge // connected external clients
	subs       *metrics.Gauge // live external (client, topic) subscriptions
	fabricSubs *metrics.Gauge // multiplexed fabric subscriptions

	accepted  *metrics.Counter
	samplesIn map[Stream]*metrics.Counter // occurrences heard from the fabric
	framesOut *metrics.Counter
	bytesOut  *metrics.Counter
	dropOld   *metrics.Counter // variable frames superseded on a full queue
	cacheHits *metrics.Counter // last-value cache replays to new subscribers

	closed    map[string]*metrics.Counter // by reason
	evictions map[string]*metrics.Counter // by reason
}

// Close / eviction reasons (metric label values).
const (
	reasonBye       = "bye"        // clean client close / EOF
	reasonStall     = "stall"      // consecutive write deadline misses
	reasonWriteFail = "write_fail" // hard socket error
	reasonReliable  = "reliable_backlog"
	reasonShutdown  = "shutdown"
	reasonProtocol  = "protocol" // malformed request stream
)

func newGwMetrics(reg *metrics.Registry) gwMetrics {
	m := gwMetrics{
		clients:    reg.Gauge("gateway", "clients"),
		subs:       reg.Gauge("gateway", "subscriptions"),
		fabricSubs: reg.Gauge("gateway", "fabric_subscriptions"),
		accepted:   reg.Counter("gateway", "clients_accepted"),
		framesOut:  reg.Counter("gateway", "frames_out"),
		bytesOut:   reg.Counter("gateway", "bytes_out"),
		dropOld:    reg.Counter("gateway", "queue_drop_oldest"),
		cacheHits:  reg.Counter("gateway", "cache_hits"),
		samplesIn:  make(map[Stream]*metrics.Counter, 2),
		closed:     make(map[string]*metrics.Counter, 6),
		evictions:  make(map[string]*metrics.Counter, 4),
	}
	for _, s := range []Stream{StreamVariable, StreamEvent} {
		m.samplesIn[s] = reg.Counter("gateway", "samples_in", metrics.L("stream", s.String()))
	}
	for _, r := range []string{reasonBye, reasonStall, reasonWriteFail, reasonReliable, reasonShutdown, reasonProtocol} {
		m.closed[r] = reg.Counter("gateway", "clients_closed", metrics.L("reason", r))
	}
	for _, r := range []string{reasonStall, reasonWriteFail, reasonReliable} {
		m.evictions[r] = reg.Counter("gateway", "evictions", metrics.L("reason", r))
	}
	return m
}

// Gateway multiplexes fabric subscriptions out to external TCP clients.
type Gateway struct {
	node *core.Node
	clk  clock.Clock
	reg  *metrics.Registry
	opts Options
	m    gwMetrics

	shards []*shard
	nextSh uint64 // round-robin shard assignment, under mu

	mu     sync.Mutex
	topics map[topicKey]*topicState
	closed bool
}

// topicState is one multiplexed fabric subscription plus its last-value
// cache. refs is guarded by Gateway.mu; the encode state by its own mu.
type topicState struct {
	g    *Gateway
	key  topicKey
	refs int        // external subscribers, under g.mu
	stop func()     // closes the fabric subscription
	mu   sync.Mutex // guards seq, last, dead
	seq  uint64     // per-topic delivery sequence
	last *bufpool.Shared
	dead bool // fabric subscription closed; drop late callbacks
}

// New builds a gateway on node. The node carries the fabric membership,
// the clock, and the metrics registry the gateway reports into.
func New(node *core.Node, opts Options) *Gateway {
	opts = opts.withDefaults()
	g := &Gateway{
		node:   node,
		clk:    clock.Or(node.Clock()),
		reg:    node.Metrics(),
		opts:   opts,
		topics: make(map[topicKey]*topicState),
	}
	g.m = newGwMetrics(g.reg)
	g.shards = make([]*shard, opts.Shards)
	for i := range g.shards {
		g.shards[i] = newShard(g)
	}
	return g
}

// Node returns the fabric node the gateway rides on.
func (g *Gateway) Node() *core.Node { return g.node }

// Close detaches every client and tears down all fabric subscriptions.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()

	for _, sh := range g.shards {
		for _, c := range sh.clients() {
			g.drop(c, reasonShutdown, false)
		}
		sh.trigger.Close()
	}

	g.mu.Lock()
	states := make([]*topicState, 0, len(g.topics))
	for _, ts := range g.topics {
		states = append(states, ts)
	}
	g.topics = make(map[topicKey]*topicState)
	g.mu.Unlock()
	for _, ts := range states {
		ts.teardown()
	}
}

// acquireTopic returns the topic state for key, creating the fabric
// subscription on first use, and counts one external reference.
func (g *Gateway) acquireTopic(key topicKey) (*topicState, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, uerr.New(g.reg, codeGwSubscribe, "gateway closed")
	}
	if ts, ok := g.topics[key]; ok {
		ts.refs++
		g.mu.Unlock()
		return ts, nil
	}
	// First subscriber: create the fabric subscription while holding g.mu
	// so a concurrent subscriber for the same key waits instead of
	// doubling the air-side subscription. Fabric subscribe does not call
	// back into the gateway synchronously, so the ordering is safe.
	ts := &topicState{g: g, key: key, refs: 1}
	stop, err := g.subscribeFabric(ts)
	if err != nil {
		g.mu.Unlock()
		return nil, uerr.Wrapf(g.reg, codeGwSubscribe, err, "%s %q", key.stream, key.name)
	}
	ts.stop = stop
	g.topics[key] = ts
	g.m.fabricSubs.Add(1)
	g.mu.Unlock()
	return ts, nil
}

// releaseTopic drops one external reference; the last one closes the
// fabric subscription and the cached sample.
func (g *Gateway) releaseTopic(key topicKey) {
	g.mu.Lock()
	ts, ok := g.topics[key]
	if !ok {
		g.mu.Unlock()
		return
	}
	ts.refs--
	if ts.refs > 0 {
		g.mu.Unlock()
		return
	}
	delete(g.topics, key)
	g.m.fabricSubs.Add(-1)
	g.mu.Unlock()
	ts.teardown()
}

// subscribeFabric attaches the shared fabric-side subscription for ts and
// returns its teardown. The payload type comes from the directory record
// of the current provider — external clients never declare types.
func (g *Gateway) subscribeFabric(ts *topicState) (func(), error) {
	kind := naming.KindVariable
	if ts.key.stream == StreamEvent {
		kind = naming.KindEvent
	}
	recs := g.node.Directory().Lookup(kind, ts.key.name)
	if len(recs) == 0 {
		return nil, uerr.Newf(g.reg, codeGwSubscribe, "no provider for %s %q", ts.key.stream, ts.key.name)
	}
	typ, err := presentation.Parse(recs[0].TypeSig)
	if err != nil {
		return nil, err
	}
	switch ts.key.stream {
	case StreamVariable:
		// RequireInitial is deliberately off: the initial-value exchange
		// parks on wall-clock timers, and the gateway's own last-value
		// cache provides the same guarantee to its clients.
		sub, err := g.node.Variables().Subscribe(ts.key.name, typ, variables.SubscribeOptions{
			OnSample: func(v any, at time.Time) { g.onVariable(ts, v, at) },
		})
		if err != nil {
			return nil, err
		}
		return sub.Close, nil
	default:
		sub, err := g.node.Events().Subscribe(ts.key.name, typ, qos.EventQoS{},
			func(v any, from transport.NodeID) { g.onEvent(ts, v, from) })
		if err != nil {
			return nil, err
		}
		return sub.Close, nil
	}
}

// teardown closes the fabric side and releases the cached sample.
func (ts *topicState) teardown() {
	ts.mu.Lock()
	ts.dead = true
	last := ts.last
	ts.last = nil
	ts.mu.Unlock()
	if last != nil {
		last.Release()
	}
	if ts.stop != nil {
		ts.stop()
	}
}

// onVariable is the shared OnSample callback: encode once, refresh the
// last-value cache, fan out to every subscribed client.
func (g *Gateway) onVariable(ts *topicState, v any, at time.Time) {
	g.m.samplesIn[StreamVariable].Inc()
	s := g.encode(ts, v, at, "")
	if s == nil {
		return
	}
	// Cache under a second reference before fan-out so a client attaching
	// mid-fan-out can never observe an empty cache with the sample gone.
	ts.mu.Lock()
	if ts.dead {
		ts.mu.Unlock()
		s.Release()
		return
	}
	prev := ts.last
	ts.last = s.Retain()
	ts.mu.Unlock()
	if prev != nil {
		prev.Release()
	}
	g.fanOut(ts.key, s, false)
}

// onEvent is the shared event handler: encode once, fan out reliably.
// Events are not cached — an occurrence missed is not a value to re-read.
func (g *Gateway) onEvent(ts *topicState, v any, from transport.NodeID) {
	g.m.samplesIn[StreamEvent].Inc()
	s := g.encode(ts, v, g.clk.Now(), string(from))
	if s == nil {
		return
	}
	g.fanOut(ts.key, s, true)
}

// encode serializes one occurrence into a pooled, length-prefixed JSON
// frame and returns it wrapped in a Shared holding the creator reference.
// This runs once per occurrence regardless of client count.
func (g *Gateway) encode(ts *topicState, v any, at time.Time, from string) *bufpool.Shared {
	body, err := marshalValue(v)
	if err != nil {
		uerr.Handle(g.reg, codeGwEncode).Inc()
		return nil
	}
	ts.mu.Lock()
	ts.seq++
	seq := ts.seq
	ts.mu.Unlock()

	// Envelope assembled by hand into a pooled buffer: the json package
	// cannot marshal into caller storage, and the envelope fields are
	// flat scalars anyway.
	need := 4 + 96 + len(ts.key.name) + len(from) + len(body)
	buf := bufpool.Get(need)
	buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
	buf = append(buf, `{"stream":"`...)
	buf = append(buf, ts.key.stream.String()...)
	buf = append(buf, `","name":`...)
	buf = appendJSONString(buf, ts.key.name)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendUint(buf, seq, 10)
	buf = append(buf, `,"ts_unix_ns":`...)
	buf = strconv.AppendInt(buf, at.UnixNano(), 10)
	if from != "" {
		buf = append(buf, `,"from":`...)
		buf = appendJSONString(buf, from)
	}
	buf = append(buf, `,"value":`...)
	buf = append(buf, body...)
	buf = append(buf, '}', '\n')
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return bufpool.Share(buf)
}

// fanOut enqueues s on every client subscribed to key, shard by shard,
// and drops the creator reference. Per-shard locks only — two topics
// fanning out concurrently contend on nothing global.
func (g *Gateway) fanOut(key topicKey, s *bufpool.Shared, reliable bool) {
	for _, sh := range g.shards {
		sh.fanOut(key, s, reliable)
	}
	s.Release()
}

// drop removes c from the gateway: detaches its subscriptions (releasing
// topic refcounts), releases every queued frame, closes the socket and
// counts the close. evicted additionally counts an eviction.
func (g *Gateway) drop(c *Client, reason string, evicted bool) {
	sh := c.sh
	sh.mu.Lock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		sh.mu.Unlock()
		return
	}
	c.closed = true
	subs := c.subs
	c.subs = nil
	c.releaseQueueLocked()
	c.mu.Unlock()
	for key := range subs {
		sh.detachLocked(key, c)
	}
	delete(sh.all, c)
	sh.mu.Unlock()

	for key := range subs {
		g.releaseTopic(key)
	}
	_ = c.conn.Close()
	g.m.clients.Add(-1)
	g.m.subs.Add(-int64(len(subs)))
	if ctr, ok := g.m.closed[reason]; ok {
		ctr.Inc()
	}
	if evicted {
		if ctr, ok := g.m.evictions[reason]; ok {
			ctr.Inc()
		}
	}
}

// marshalValue is in wire.go (JSON helpers live together there).
