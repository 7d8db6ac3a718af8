// Package egress implements the container's priority-aware transmit path.
//
// The paper attaches a priority to every primitive (§4) and enforces it in
// the container's fixed-priority pool (§6) — but scheduler enforcement is
// receiver-side only. On a bandwidth-constrained link the inversion happens
// at the *sender*: a bulk file transfer that hands the transport 60KB of
// chunks has already serialized them ahead of any PriorityCritical alarm
// published a moment later. This package closes that gap with transmit-side
// QoS:
//
//   - per-destination (node or multicast group) lanes, one strict-priority
//     FIFO queue per qos.Priority class, drained highest class first with
//     round-robin fairness among destinations inside a class;
//   - a token-bucket pacer that shapes the PriorityBulk class to a
//     configured rate, so bulk traffic never fills a link queue that
//     urgent frames would then have to wait behind;
//   - bounded (destination, class) queues: drop-oldest overflow for every
//     class but PriorityBulk — a stalled destination sheds its stalest
//     frames first and never blocks senders — while a PriorityBulk sender
//     waits once its queue holds a 16-frame window, so the lane, drained at
//     the pacer's rate, is the one pacer of every bulk producer and holds
//     no more of its pooled buffers than that. On a bearer whose transport
//     hands receivers the datagram itself (transport.SharedSender, the
//     in-process bus) a bulk sender also waits while 64 of its bearer's
//     bulk datagrams are still held by receivers: a buffer's credit comes
//     back when its last receiver releases it, not when it leaves the lane.
//     PriorityBulk is therefore for goroutines that may wait (a
//     file-transfer loop is one; a handler running on an ingress worker is
//     not);
//   - frame coalescing: small frames waiting for the same destination in
//     the same class are packed into one protocol.MTBatch datagram, fewer
//     syscalls and wire packets on small-frame-heavy paths.
//
// The plane is multi-bearer: a node with several heterogeneous datalinks
// (WiFi, radio modem, satcom) registers each as a named bearer, and lanes
// are keyed (bearer, destination, class). Every bearer owns its queues, its
// drain goroutine and its own bulk token bucket, so a 1 Mb/s WiFi pipe and
// a 250 kb/s radio modem are paced independently. A pluggable Selector
// (installed by the container, combining the profile-derived bearer order,
// qos.BearerOrder, with per-bearer link-monitor health) routes each frame
// to a bearer at enqueue time; Reroute moves a blacked-out bearer's queued
// frames through the selector again so failover does not strand traffic. A
// plane built with New has a single default bearer and behaves exactly like
// the pre-bearer plane.
//
// The plane sits between the container's transmit routine and the datagram
// transports. It has one send contract, stated on Plane.EnqueueTo: a
// destination (node or group, optionally pinned to a bearer), a class, and
// one encoded datagram in a pooled buffer the plane owns from then on.
package egress

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// Wire-path error codes: transmit failures and drop-oldest evictions
// land in the "egress.errors" registry family by category, alongside the
// per-bearer operational counters.
var (
	codeTransmit     = uerr.Register("egress.transmit", uerr.CatSend)
	codeLaneOverflow = uerr.Register("egress.lane_overflow", uerr.CatResource)
	codeRerouteDrop  = uerr.Register("egress.reroute_drop", uerr.CatResource)
)

// Sender is the downstream transmit interface (one raw datagram transport).
// Implementations must not retain payload once the call returns — the plane
// recycles pooled datagrams immediately after a send — so a sender that
// delivers asynchronously (the network simulator) copies first. Each call
// carries one datagram. A Sender that also implements
// transport.SharedSender (the in-process bus, which delivers inline) gets
// each datagram's pooled buffer itself, which its receivers retain instead
// of copying, and the buffer returns to the pool on their last release.
// Bearers detect it at registration time.
type Sender interface {
	Send(to transport.NodeID, payload []byte) error
	SendGroup(group string, payload []byte) error
}

// Selector routes frames to bearers. The container implements it by
// combining the static class→bearer order (qos.BearerOrder) with dynamic
// link-monitor health and per-peer reachability. Implementations must be
// fast and must not call back into the Plane. Returned names that don't
// match a registered bearer fall back to the default bearer.
type Selector interface {
	// Unicast names the bearer to carry one frame to the given node at the
	// given class.
	Unicast(to transport.NodeID, pr qos.Priority) string
	// Group names the bearers to carry one group frame; the frame is
	// enqueued once per distinct name (discovery rides every live bearer,
	// data groups usually exactly one).
	Group(group string, pr qos.Priority) []string
}

// DefaultBearer names the bearer created by New for single-link nodes.
const DefaultBearer = "datagram"

// DefaultQueueCap bounds each (destination, class) queue in frames: on
// overflow the oldest frame in that queue drops. A PriorityBulk sender waits
// earlier, once its queue holds bulkWindow frames; only bulk frames Reroute
// moves, which never wait, fill a bulk queue past that.
const DefaultQueueCap = 256

// Defaults applied when Config fields are zero.
const (
	// DefaultCoalesceMax is the largest frame eligible for coalescing;
	// bigger frames (file chunks, fragments) always ride alone.
	DefaultCoalesceMax = 512
	// DefaultBulkBurst is the bulk token bucket capacity in bytes.
	DefaultBulkBurst = 4096
)

// bulkWindow is how many frames a waiting PriorityBulk producer may have
// queued in its lane. A producer that waits needs only enough queued to keep
// the wire busy across its own wake-up; every frame beyond that is a pooled
// buffer held for nothing, and on a narrow link a chunk the next NACK round
// may send again.
//
// The lane bounds only the sender's side. On a SharedSender bearer a sent
// datagram's buffer lives on in the receivers' queues until the last of them
// releases it, so a lagging receiver would let the backlog pile up there, past
// what the buffer pool keeps. creditWindow bounds that: a waiting bulk
// producer also parks while its bearer has that many bulk datagrams out
// unreleased, and wakes when the count falls to half — credit returns when
// the buffer is freed, as in Linux's TCP Small Queues, not when it leaves
// the queue.
const (
	bulkWindow   = 16
	creditWindow = 4 * bulkWindow
)

// numClasses mirrors qos.NumLevels(); sized as a constant for arrays. A
// test pins the two against each other.
const numClasses = 5

// bulkClass is the dense index of qos.PriorityBulk.
var bulkClass = qos.PriorityBulk.Index()

// Errors.
var (
	// ErrClosed reports an enqueue on a closed plane.
	ErrClosed = errors.New("egress plane closed")
	// ErrNoBearer reports an operation on a plane with no bearers, or an
	// AddBearer conflict.
	ErrNoBearer = errors.New("no such egress bearer")
)

// Config tunes one bearer's lanes and pacing.
type Config struct {
	// BulkRateBPS token-bucket-shapes the bearer's PriorityBulk lane to
	// this many wire bytes/second. Zero disables shaping (bulk drains at
	// transport speed, still strictly below every other class).
	BulkRateBPS int64
	// BulkBurst is the bucket capacity in bytes (default DefaultBulkBurst).
	// It bounds how far ahead of the shaped rate a bulk burst may run, and
	// therefore how much bulk can sit in front of an urgent frame at the
	// link: keep it near one datagram on tightly constrained links.
	BulkBurst int
	// MaxDatagram is the size budget for coalesced batch datagrams
	// (default protocol.DefaultMTU).
	MaxDatagram int
	// CoalesceMax is the largest frame eligible for coalescing (default
	// DefaultCoalesceMax); negative disables coalescing entirely.
	CoalesceMax int
	// Clock is the time source pacing the bearer (token refill, bulk
	// waits); nil means the wall clock.
	Clock clock.Clock
	// Metrics is the registry receiving the bearer's counter families
	// ("egress" component, series labeled by bearer and class) and its
	// typed-error counts. Nil gets a private registry, so bare test
	// planes keep working unchanged.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.BulkBurst <= 0 {
		c.BulkBurst = DefaultBulkBurst
	}
	if c.MaxDatagram <= 0 {
		c.MaxDatagram = protocol.DefaultMTU
	}
	if c.CoalesceMax == 0 {
		c.CoalesceMax = DefaultCoalesceMax
	}
	return c
}

// destKey identifies a lane within a bearer: exactly one of node or group
// is set.
type destKey struct {
	node  transport.NodeID
	group string
}

// lane holds one destination's per-class queues of encoded datagrams on one
// bearer. Every queued datagram is a bufpool buffer the plane owns: whoever
// takes it off the queue puts it on the wire, or drops it, and recycles it.
// lane queues are head-indexed rings over a reusable backing array: popping
// advances head instead of re-slicing the base away, so the array's capacity
// survives a full drain and the steady-state enqueue→drain cycle never
// reallocates it.
type lane struct {
	key    destKey
	q      [numClasses][][]byte
	head   [numClasses]int
	queued [numClasses]bool // lane is on the ready list for the class
}

// size reports the frames queued at class c.
func (ln *lane) size(c int) int { return len(ln.q[c]) - ln.head[c] }

// peek returns the head datagram of class c without removing it.
func (ln *lane) peek(c int) []byte { return ln.q[c][ln.head[c]] }

// pop removes and returns the head datagram of class c, rewinding the ring
// to the start of its backing array when it empties.
func (ln *lane) pop(c int) []byte {
	raw := ln.q[c][ln.head[c]]
	ln.q[c][ln.head[c]] = nil // drop the buffer reference
	ln.head[c]++
	if ln.head[c] == len(ln.q[c]) {
		ln.q[c] = ln.q[c][:0]
		ln.head[c] = 0
	}
	return raw
}

// push appends a datagram at class c, compacting dead head space before
// growing the backing array.
func (ln *lane) push(c int, raw []byte) {
	if ln.head[c] > 0 && len(ln.q[c]) == cap(ln.q[c]) {
		n := copy(ln.q[c], ln.q[c][ln.head[c]:])
		for i := n; i < len(ln.q[c]); i++ {
			ln.q[c][i] = nil
		}
		ln.q[c] = ln.q[c][:n]
		ln.head[c] = 0
	}
	ln.q[c] = append(ln.q[c], raw)
}

// popLane removes the front entry in place, preserving the backing array's
// capacity (a plain q[1:] re-slice would slide the base away and force the
// next append to reallocate).
func popLane(q []*lane) []*lane {
	copy(q, q[1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

func (ln *lane) empty() bool {
	for c := range ln.q {
		if ln.size(c) > 0 {
			return false
		}
	}
	return true
}

// Plane is one container's egress plane: one or more bearers plus the
// selector that routes frames among them. Construct with New (single
// default bearer) or NewPlane + AddBearer; Close flushes what it can and
// stops every drainer.
type Plane struct {
	mu       sync.RWMutex
	bearers  map[string]*bearer
	order    []string // registration order; order[0] is the default bearer
	selector Selector
	closed   bool
}

// NewPlane builds an empty plane; register links with AddBearer before
// enqueueing.
func NewPlane() *Plane {
	return &Plane{bearers: make(map[string]*bearer)}
}

// New builds a plane with a single bearer named DefaultBearer draining
// into sender — the one-datalink configuration.
func New(sender Sender, cfg Config) *Plane {
	p := NewPlane()
	_ = p.AddBearer(DefaultBearer, sender, cfg)
	return p
}

// AddBearer registers a named bearer draining into sender with its own
// lanes and pacing. The first bearer registered is the default (used when
// no selector is installed or a selector names an unknown bearer).
func (p *Plane) AddBearer(name string, sender Sender, cfg Config) error {
	if name == "" {
		return fmt.Errorf("egress: empty bearer name: %w", ErrNoBearer)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if _, dup := p.bearers[name]; dup {
		return fmt.Errorf("egress: bearer %q already registered: %w", name, ErrNoBearer)
	}
	p.bearers[name] = newBearer(name, sender, cfg)
	p.order = append(p.order, name)
	return nil
}

// SetSelector installs the bearer-routing policy. A nil selector routes
// everything to the default bearer.
func (p *Plane) SetSelector(s Selector) {
	p.mu.Lock()
	p.selector = s
	p.mu.Unlock()
}

// Bearers lists registered bearer names in registration order.
func (p *Plane) Bearers() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.order...)
}

// getSelector snapshots the selector.
func (p *Plane) getSelector() Selector {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.selector
}

// bearerOrDefault resolves name, falling back to the default bearer. Nil
// when the plane is closed or has no bearers.
func (p *Plane) bearerOrDefault(name string) *bearer {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed || len(p.order) == 0 {
		return nil
	}
	if b, ok := p.bearers[name]; ok {
		return b
	}
	return p.bearers[p.order[0]]
}

// Dest addresses one enqueue: a node or a multicast group (exactly one is
// set), optionally pinned to a named bearer.
type Dest struct {
	Node  transport.NodeID
	Group string
	// Bearer pins the datagram to one bearer, bypassing the selector — for
	// replies that must ride the link they arrived on (ARQ acks, probe
	// echoes), so acknowledgment traffic measures the same bearer as the
	// data it acknowledges. Empty lets the selector choose; an unknown
	// name falls back to the default bearer.
	Bearer string
}

// EnqueueTo is the plane's one send contract: it queues the encoded
// datagram raw for d in class pr and returns without waiting for the wire.
// An unpinned unicast rides the bearer the selector chooses; an unpinned
// group datagram rides every distinct bearer the selector names. Only a
// PriorityBulk datagram waits, while its lane holds the bulk window, for
// room in that lane.
//
// raw is a bufpool buffer nothing else aliases, and the plane owns it from
// the call on: it recycles raw once the bytes are on the wire, evicted, or
// the enqueue fails — the caller must not touch it afterwards, success or
// not. A caller that keeps its bytes uses Enqueue.
func (p *Plane) EnqueueTo(d Dest, pr qos.Priority, raw []byte) error {
	return p.route(d, pr, raw, true)
}

// route is EnqueueTo for a caller that may (wait) or may not park on a bulk
// lane at its window; Reroute, run by the link monitor's sweep, may not.
func (p *Plane) route(d Dest, pr qos.Priority, raw []byte, wait bool) error {
	key := destKey{node: d.Node, group: d.Group}
	name := d.Bearer
	if s := p.getSelector(); s != nil && name == "" {
		if d.Group == "" {
			name = s.Unicast(d.Node, pr)
		} else if names := s.Group(d.Group, pr); len(names) > 0 {
			return p.fanOut(names, key, pr, raw, wait)
		}
	}
	b := p.bearerOrDefault(name)
	if b == nil {
		bufpool.Put(raw)
		return ErrClosed
	}
	return b.enqueue(key, pr, raw, wait)
}

// Enqueue queues a copy of raw for node to on the selector's bearer. raw
// stays the caller's — it is only read, and only during the call — which is
// the shape ARQ transmissions take: the engine keeps the datagram until it
// is acknowledged and every transmission hands the plane its own copy.
func (p *Plane) Enqueue(to transport.NodeID, pr qos.Priority, raw []byte) error {
	return p.EnqueueTo(Dest{Node: to}, pr, bufpool.Clone(raw))
}

// fanOut queues one group datagram once per distinct bearer name: the last
// of them takes raw itself, each one before it a pooled copy. It succeeds
// when any bearer accepted the datagram.
func (p *Plane) fanOut(names []string, key destKey, pr qos.Priority, raw []byte, wait bool) error {
	last := len(names) - 1
	for repeated(names, last) {
		last--
	}
	var firstErr error
	accepted := false
	for i, name := range names[:last+1] {
		if repeated(names, i) {
			continue
		}
		buf := raw
		if i != last {
			buf = bufpool.Clone(raw)
		}
		err := ErrClosed
		if b := p.bearerOrDefault(name); b != nil {
			err = b.enqueue(key, pr, buf, wait)
		} else {
			bufpool.Put(buf)
		}
		if err == nil {
			accepted = true
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if accepted {
		return nil
	}
	return firstErr
}

// repeated reports whether names[i] already occurred before position i.
// Bearer sets are a handful of names, so the scan dedups them without a
// per-call set.
func repeated(names []string, i int) bool {
	for _, prev := range names[:i] {
		if prev == names[i] {
			return true
		}
	}
	return false
}

// Reroute drains everything queued on the named bearer and re-enqueues it
// through the selector — called when a bearer's link monitor declares it
// down, so already-queued frames follow their class's failover order
// instead of draining into a dead link. Unicast frames the selector routes
// back to the same bearer stay on it; group frames never return to the
// drained bearer — they ride the first *other* bearer the selector names
// (fan-out groups like discovery already put their own copies on every
// live bearer at enqueue time, and receivers dedup, so one surviving copy
// suffices). Bulk producers waiting for room on the bearer find it;
// Reroute itself never waits — a moved bulk frame evicts the oldest of a
// full lane. Returns the number of frames moved or requeued.
func (p *Plane) Reroute(name string) int {
	p.mu.RLock()
	b := p.bearers[name]
	p.mu.RUnlock()
	if b == nil {
		return 0
	}
	sel := p.getSelector()
	items := b.drainQueued()
	for _, qf := range items {
		pr := qos.PriorityBulk + qos.Priority(qf.class)
		d := Dest{Node: qf.key.node, Group: qf.key.group}
		if d.Group != "" {
			// No other bearer to carry it: leave it on the drained one
			// rather than dropping silently.
			d.Bearer = name
			if sel != nil {
				for _, cand := range sel.Group(d.Group, pr) {
					if cand != name {
						d.Bearer = cand
						break
					}
				}
			}
		}
		if err := p.route(d, pr, qf.raw, false); err != nil {
			uerr.Wrapf(b.reg, codeRerouteDrop, err, "reroute off %s", name)
		}
	}
	return len(items)
}

// Flush blocks until every frame queued at call time on every bearer has
// been handed to its transport (shaped bulk included, at its paced rate).
// Frames enqueued while flushing extend the wait. Experiments use it to
// line wire-level measurements up with the asynchronous drain; a closed
// plane is already flushed.
func (p *Plane) Flush() {
	p.mu.RLock()
	bearers := make([]*bearer, 0, len(p.order))
	for _, name := range p.order {
		bearers = append(bearers, p.bearers[name])
	}
	p.mu.RUnlock()
	for _, b := range bearers {
		b.flush()
	}
}

// Close stops every bearer's drainer and synchronously flushes everything
// still queued, in priority order, ignoring pacing — a closing container's
// goodbye and any pending acknowledgments still reach the wire. Enqueues
// after Close fail with ErrClosed.
func (p *Plane) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	bearers := make([]*bearer, 0, len(p.order))
	for _, name := range p.order {
		bearers = append(bearers, p.bearers[name])
	}
	p.mu.Unlock()
	for _, b := range bearers {
		b.close()
	}
}

// bearer is one datalink's lanes, pacer and drain goroutine.
type bearer struct {
	name   string
	cfg    Config
	sender Sender
	// shared is non-nil when sender takes the pooled datagram itself. Its
	// bulk datagrams carry creditBack, b.released bound once, as their
	// release hook, and unreleased counts those not yet released.
	shared     transport.SharedSender
	creditBack func()
	unreleased *metrics.Gauge

	clk clock.Clock

	// Drainer scratch, reused across drains so the steady-state transmit
	// path allocates nothing; filled under b.mu by collectLocked.
	collectRaw [][]byte

	mu           sync.Mutex
	idle         *clock.Cond // signalled when a transmit completes
	room         *clock.Cond // signalled when a bulk frame leaves its lane
	lanes        map[destKey]*lane
	laneFree     []*lane // recycled drained lanes (bounded)
	ready        [numClasses][]*lane
	tokens       float64 // bulk bucket fill, bytes; may go briefly negative
	lastRefill   time.Time
	transmitting bool // drainer holds a dequeued datagram
	reg          *metrics.Registry
	ctr          bearerCounters
	closed       bool

	trigger clock.Trigger
	stop    chan struct{}
	wg      *clock.WaitGroup
}

// classCounters holds one (bearer, class) series set, pre-resolved so the
// drain path pays one atomic add per counter, no registry lookups.
type classCounters struct {
	enqueued, sent, datagrams, coalesced, dropped, bytes *metrics.Counter
}

// bearerCounters holds one bearer's registry handles.
type bearerCounters struct {
	perClass     [numClasses]classCounters
	bulkWaits    *metrics.Counter
	rerouted     *metrics.Counter
	sendFailures *metrics.Counter
	// overflow is the pre-resolved "egress.errors" series for drop-oldest
	// evictions: the eviction is a per-frame hot-path event with no error
	// value to hand anyone, so it counts through the handle rather than a
	// uerr construction.
	overflow *metrics.Counter
}

func newBearerCounters(reg *metrics.Registry, bearerName string) bearerCounters {
	lb := metrics.L("bearer", bearerName)
	var ctr bearerCounters
	for _, pr := range qos.Levels() {
		cl := metrics.L("class", pr.String())
		c := func(name string) *metrics.Counter { return reg.Counter("egress", name, lb, cl) }
		ctr.perClass[pr.Index()] = classCounters{
			enqueued:  c("enqueued"),
			sent:      c("sent"),
			datagrams: c("datagrams"),
			coalesced: c("coalesced"),
			dropped:   c("dropped"),
			bytes:     c("bytes"),
		}
	}
	ctr.bulkWaits = reg.Counter("egress", "bulk_waits", lb)
	ctr.rerouted = reg.Counter("egress", "rerouted", lb)
	ctr.sendFailures = reg.Counter("egress", "send_failures", lb)
	ctr.overflow = uerr.Handle(reg, codeLaneOverflow)
	return ctr
}

func newBearer(name string, sender Sender, cfg Config) *bearer {
	cfg = cfg.withDefaults()
	clk := clock.Or(cfg.Clock)
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	b := &bearer{
		name:       name,
		cfg:        cfg,
		sender:     sender,
		clk:        clk,
		lanes:      make(map[destKey]*lane),
		tokens:     float64(cfg.BulkBurst),
		lastRefill: clk.Now(),
		reg:        reg,
		ctr:        newBearerCounters(reg, name),
		trigger:    clock.NewTrigger(clk),
		stop:       make(chan struct{}),
		wg:         clock.NewWaitGroup(clk),
	}
	if b.shared, _ = sender.(transport.SharedSender); b.shared != nil {
		b.creditBack = b.released
		b.unreleased = reg.Gauge("egress", "bulk_unreleased", metrics.L("bearer", name))
	}
	b.idle = clock.NewCond(clk, &b.mu)
	b.room = clock.NewCond(clk, &b.mu)
	b.wg.Add(1)
	clock.Go(clk, b.run)
	return b
}

// enqueue queues raw at class pr of key's lane. A bulk producer that may
// wait parks on the bearer's clock while its lane holds the window — until
// the drainer pops a frame, Reroute empties the bearer or it closes — and,
// on a SharedSender bearer, while creditWindow bulk datagrams are out
// unreleased, until half of them have come back or the bearer closes.
// Anything else offered a full lane evicts the lane's oldest.
func (b *bearer) enqueue(key destKey, pr qos.Priority, raw []byte, wait bool) error {
	c := pr.Index()
	if c < 0 {
		c = qos.PriorityNormal.Index()
	}
	b.mu.Lock()
	// The lane is looked up again after every wait: drained empty it is
	// reaped, and its struct may by now serve another destination.
	ln := b.lanes[key]
	for wait && c == bulkClass && !b.closed {
		if ln != nil && ln.size(c) >= bulkWindow {
			b.room.Wait()
		} else if b.unreleased != nil && b.unreleased.Value() >= creditWindow {
			for !b.closed && b.unreleased.Value() > creditWindow/2 {
				b.room.Wait()
			}
		} else {
			break
		}
		ln = b.lanes[key]
	}
	if b.closed {
		b.mu.Unlock()
		bufpool.Put(raw)
		return ErrClosed
	}
	if ln == nil {
		if n := len(b.laneFree); n > 0 {
			ln = b.laneFree[n-1]
			b.laneFree[n-1] = nil
			b.laneFree = b.laneFree[:n-1]
			ln.key = key
		} else {
			ln = &lane{key: key}
		}
		b.lanes[key] = ln
	}
	if ln.size(c) >= DefaultQueueCap {
		// Drop-oldest: the stalest frame in this lane+class makes room.
		bufpool.Put(ln.pop(c))
		b.ctr.perClass[c].dropped.Inc()
		b.ctr.overflow.Inc()
	}
	ln.push(c, raw)
	b.ctr.perClass[c].enqueued.Inc()
	if !ln.queued[c] {
		ln.queued[c] = true
		b.ready[c] = append(b.ready[c], ln)
	}
	b.mu.Unlock()
	b.signal()
	return nil
}

func (b *bearer) signal() { b.trigger.Signal() }

// released is the release hook of the bulk datagrams the bearer hands its
// SharedSender: the last receiver is done with one, so its credit returns,
// and producers parked on credit wake as the count falls to half the
// window. It runs on whichever goroutine drops the last reference — the
// receiver's ingress worker, an ingress drop-oldest eviction, or this
// bearer's own drainer when no receiver kept the datagram — and takes b.mu
// only at that edge, which is why nothing transmits while holding b.mu.
func (b *bearer) released() {
	if b.unreleased.Add(-1) == creditWindow/2 {
		b.mu.Lock()
		b.room.Broadcast()
		b.mu.Unlock()
	}
}

// refillLocked accrues bulk tokens. Caller holds b.mu.
func (b *bearer) refillLocked(now time.Time) {
	if elapsed := now.Sub(b.lastRefill); elapsed > 0 && b.cfg.BulkRateBPS > 0 {
		b.tokens += elapsed.Seconds() * float64(b.cfg.BulkRateBPS)
		if burst := float64(b.cfg.BulkBurst); b.tokens > burst {
			b.tokens = burst
		}
	}
	b.lastRefill = now
}

// next picks the next datagram to transmit: the head of the highest
// non-empty class, round-robin across that class's destinations, coalescing
// small same-lane same-class frames into a batch, and reports the class. If
// only throttled bulk is pending it returns wait > 0 instead. The datagram (a
// queued frame or a batch buffer) goes to transmit, which recycles it.
func (b *bearer) next() (datagram []byte, key destKey, class int, wait time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for c := numClasses - 1; c >= 0; c-- {
		for len(b.ready[c]) > 0 {
			ln := b.ready[c][0]
			if ln.size(c) == 0 { // emptied by a flush; drop the entry
				b.ready[c] = popLane(b.ready[c])
				ln.queued[c] = false
				b.reapLocked(ln)
				continue
			}
			if c == bulkClass && b.cfg.BulkRateBPS > 0 {
				b.refillLocked(b.clk.Now())
				// A frame larger than the whole bucket must still pass
				// once the bucket is full; the deficit is repaid below.
				need := float64(len(ln.peek(c)))
				if burst := float64(b.cfg.BulkBurst); need > burst {
					need = burst
				}
				if b.tokens < need {
					b.ctr.bulkWaits.Inc()
					wait = time.Duration((need - b.tokens) / float64(b.cfg.BulkRateBPS) * float64(time.Second))
					if wait <= 0 {
						wait = time.Millisecond
					}
					return nil, destKey{}, 0, wait, false
				}
			}
			n := b.collectLocked(ln, c)
			if n == 1 {
				datagram = b.collectRaw[0]
			} else {
				// Coalesce into one pooled wire buffer: each inner frame
				// is copied exactly once, directly into its batch slot.
				size := protocol.BatchOverhead(n)
				for _, f := range b.collectRaw {
					size += len(f)
				}
				buf := bufpool.Get(size)
				dst, err := protocol.AppendBatch(buf, b.collectRaw, qos.PriorityBulk+qos.Priority(c))
				if err != nil {
					// Cannot happen with well-formed queues; fall back to
					// the head frame alone rather than wedging the lane.
					bufpool.Put(buf)
					datagram = b.collectRaw[0]
					for _, f := range b.collectRaw[1:] {
						bufpool.Put(f)
					}
					n = 1
				} else {
					// The inner frames' bytes now live in the batch buffer.
					for _, f := range b.collectRaw {
						bufpool.Put(f)
					}
					datagram = dst
					b.ctr.perClass[c].coalesced.Add(uint64(n))
				}
			}
			if c == bulkClass {
				if b.cfg.BulkRateBPS > 0 {
					b.tokens -= float64(len(datagram))
				}
				b.room.Broadcast()
			}
			b.ctr.perClass[c].sent.Add(uint64(n))
			b.ctr.perClass[c].datagrams.Inc()
			b.ctr.perClass[c].bytes.Add(uint64(len(datagram)))
			key = ln.key // reapLocked may recycle ln below
			// Rotate for round-robin fairness within the class,
			// in place so the ready array's capacity survives.
			if ln.size(c) > 0 {
				q := b.ready[c]
				copy(q, q[1:])
				q[len(q)-1] = ln
			} else {
				b.ready[c] = popLane(b.ready[c])
				ln.queued[c] = false
				b.reapLocked(ln)
			}
			b.transmitting = true
			return datagram, key, c, 0, true
		}
	}
	return nil, destKey{}, 0, 0, false
}

// collectLocked pops the head frame of lane ln at class c plus any
// immediately following small frames that fit one batch datagram, filling
// the bearer's reusable collect scratch. Caller holds b.mu.
func (b *bearer) collectLocked(ln *lane, c int) int {
	head := ln.pop(c)
	b.collectRaw = append(b.collectRaw[:0], head)
	if b.cfg.CoalesceMax < 0 || len(head) > b.cfg.CoalesceMax {
		return 1
	}
	total := protocol.BatchOverhead(1) + len(head)
	for ln.size(c) > 0 {
		nxt := ln.peek(c)
		if len(nxt) > b.cfg.CoalesceMax ||
			total+protocol.BatchEntryOverhead+len(nxt) > b.cfg.MaxDatagram {
			break
		}
		b.collectRaw = append(b.collectRaw, ln.pop(c))
		total += protocol.BatchEntryOverhead + len(nxt)
	}
	return len(b.collectRaw)
}

// reapLocked deletes a fully drained lane so the map stays bounded by the
// set of destinations with traffic in flight. Caller holds b.mu.
func (b *bearer) reapLocked(ln *lane) {
	if !ln.empty() {
		return
	}
	for _, q := range ln.queued {
		if q {
			return
		}
	}
	delete(b.lanes, ln.key)
	// Recycle the lane (its queue arrays keep their capacity) so churning
	// one destination does not allocate a lane per frame.
	if len(b.laneFree) < 8 {
		ln.key = destKey{}
		b.laneFree = append(b.laneFree, ln)
	}
}

// transmit hands one datagram of class c to the transport and gives up the
// plane's hold on its pooled buffer. A SharedSender gets the buffer itself,
// and it returns to the pool when the last receiver releases it — a bulk
// datagram's credit with it; any other sender gets the bytes for the call,
// and the buffer is recycled when it returns.
func (b *bearer) transmit(key destKey, c int, datagram []byte) {
	var err error
	switch {
	case b.shared != nil:
		var onLast func()
		if c == bulkClass {
			b.unreleased.Add(1)
			onLast = b.creditBack
		}
		s := bufpool.ShareHooked(datagram, onLast)
		err = b.shared.SendShared(key.node, key.group, s)
		s.Release()
	case key.group != "":
		err = b.sender.SendGroup(key.group, datagram)
		bufpool.Put(datagram)
	default:
		err = b.sender.Send(key.node, datagram)
		bufpool.Put(datagram)
	}
	if err != nil {
		b.ctr.sendFailures.Inc()
		uerr.Wrapf(b.reg, codeTransmit, err, "transport send on %s", b.name)
	}
}

// run is the drain goroutine. It parks on the clock between frames, so
// under a Virtual clock bulk pacing is discrete-event driven.
func (b *bearer) run() {
	defer b.wg.Done()
	for {
		wait, ok := b.drain()
		if ok {
			continue
		}
		if wait <= 0 {
			wait = -1 // nothing queued: park until signalled
		}
		// Throttled bulk pending: sleep for tokens, but wake early if
		// higher-class work arrives.
		if !b.trigger.Wait(wait, b.stop) {
			return
		}
	}
}

// drain dequeues one datagram and hands it to the sender, which keeps the
// deterministic simulators' event order stable. Pacing and priority come
// from next(): a throttled bulk lane returns its wait.
func (b *bearer) drain() (wait time.Duration, ok bool) {
	datagram, key, c, wait, ok := b.next()
	if !ok {
		return wait, false
	}
	b.transmit(key, c, datagram)
	b.mu.Lock()
	b.transmitting = false
	b.idle.Broadcast()
	b.mu.Unlock()
	return 0, true
}

func (b *bearer) flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && (b.transmitting || b.pendingLocked()) {
		b.idle.Wait()
	}
}

// pendingLocked reports whether any lane still holds frames. Caller holds
// b.mu.
func (b *bearer) pendingLocked() bool {
	for c := range b.ready {
		for _, ln := range b.ready[c] {
			if ln.size(c) > 0 {
				return true
			}
		}
	}
	return false
}

// queuedFrame is one frame pulled off a bearer by drainQueued; its buffer
// goes to whoever re-enqueues it.
type queuedFrame struct {
	key   destKey
	class int
	raw   []byte
}

// drainQueued atomically removes everything queued on the bearer and
// returns it in strict class-descending order for re-enqueueing elsewhere.
func (b *bearer) drainQueued() []queuedFrame {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	out := b.takeLocked()
	b.ctr.rerouted.Add(uint64(len(out)))
	b.idle.Broadcast()
	b.room.Broadcast()
	return out
}

// takeLocked empties every lane and returns the frames in strict
// class-descending order. Caller holds b.mu.
func (b *bearer) takeLocked() []queuedFrame {
	var out []queuedFrame
	for c := numClasses - 1; c >= 0; c-- {
		for _, ln := range b.ready[c] {
			for _, raw := range ln.q[c][ln.head[c]:] {
				out = append(out, queuedFrame{key: ln.key, class: c, raw: raw})
			}
			ln.q[c] = nil
			ln.head[c] = 0
			ln.queued[c] = false
		}
		b.ready[c] = nil
	}
	for key, ln := range b.lanes {
		if ln.empty() {
			delete(b.lanes, key)
		}
	}
	return out
}

func (b *bearer) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.idle.Broadcast()
	b.room.Broadcast()
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()

	// The drainer is gone and enqueue and Reroute refuse a closed bearer,
	// so the frames taken here are the last; they go out unlocked, because
	// a release hook may take b.mu inside the send.
	b.mu.Lock()
	items := b.takeLocked()
	b.mu.Unlock()
	for _, qf := range items {
		b.ctr.perClass[qf.class].sent.Inc()
		b.ctr.perClass[qf.class].datagrams.Inc()
		b.ctr.perClass[qf.class].bytes.Add(uint64(len(qf.raw)))
		b.transmit(qf.key, qf.class, qf.raw)
	}
}
