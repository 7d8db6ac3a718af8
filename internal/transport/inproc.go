package transport

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
)

// Bus is the in-process network: every endpoint created from the same Bus
// can reach every other by node ID or multicast group. It models both of
// the paper's cases: several containers sharing one airframe computer, and
// nodes spread over lossy radios (§4.2–§4.4), whose loss, latency and
// bandwidth a shared CI host cannot provide.
//
// A bus delivers inline: Send, SendGroup and SendShared call each
// destination's Handler on the sender's goroutine before they return, so
// the bus has no queue, no goroutine and no drop path of its own. The
// receiving container's ingress ring is the bounded queue, and the Handler
// contract (never block) keeps a sender from stalling on a slow receiver.
//
// Once a latency, a loss or a link override is set, the bus schedules every
// send through its medium instead, and keeps doing so: a send crosses the
// medium with the latency, queues FIFO at a link with a bandwidth cap, and
// is then delivered (or lost) independently per receiver, in join order,
// with losses drawn from a seeded RNG, so a run is reproducible. One
// goroutine delivers, parked on the configured clock between deliveries,
// so under a *clock.Virtual the whole medium runs in discrete-event time.
// A multicast send occupies the medium once however many nodes receive it,
// the property experiment E3 measures.
type Bus struct {
	cfg SimConfig

	mu    sync.RWMutex
	nodes map[NodeID]*BusEndpoint
	// groups lists are copy-on-write: join, leave and remove install a
	// fresh slice, so a group send reads one under the lock and walks it
	// unlocked without copying.
	groups map[string][]*BusEndpoint
	closed bool

	// sim is nil while the bus delivers inline.
	sim atomic.Pointer[medium]
}

// SimConfig sets the medium of a simulated bus.
type SimConfig struct {
	// Seed makes loss draws reproducible. Zero means seed 1.
	Seed int64
	// Latency is the one-way propagation delay applied to every packet.
	Latency time.Duration
	// Loss is the probability in [0,1] that a given receiver misses a
	// packet.
	Loss float64
	// Clock is the time source the medium schedules deliveries on; nil
	// means the wall clock.
	Clock clock.Clock
}

// LinkConfig overrides the medium on one directed sender→receiver link.
type LinkConfig struct {
	// BandwidthBPS, when >0, serializes the link at the given bytes/second:
	// packets queue FIFO at the link and occupy it for size/rate each. It
	// models one constrained hop — an air-to-ground radio — inside an
	// otherwise fast fleet, the topology experiment E13 measures.
	BandwidthBPS int64
	// Blocked drops every packet on the link (partition).
	Blocked bool
}

// LinkStats counts traffic on one directed sender→receiver link.
type LinkStats struct {
	// Packets / Bytes count what was offered to the link (multicast counts
	// once per receiver here, since each directed copy traverses its own
	// link), whether or not the receiver then lost it.
	Packets, Bytes uint64
	// Lost counts per-receiver losses on the link: blocked (partition),
	// random loss, and deliveries dropped at a closed or handlerless
	// receiver.
	Lost uint64
}

// NewBus returns an empty in-process network that delivers inline.
func NewBus() *Bus { return NewSimBus(SimConfig{}) }

// NewSimBus returns an empty in-process network whose medium cfg
// describes. With no Latency and no Loss it delivers inline, as NewBus's
// does, until a link override is set.
func NewSimBus(cfg SimConfig) *Bus {
	b := &Bus{
		cfg:    cfg,
		nodes:  make(map[NodeID]*BusEndpoint),
		groups: make(map[string][]*BusEndpoint),
	}
	if cfg.Latency > 0 || cfg.Loss > 0 {
		b.medium()
	}
	return b
}

// Endpoint creates and registers the endpoint for node id.
func (b *Bus) Endpoint(id NodeID) (*BusEndpoint, error) {
	if id == "" {
		return nil, fmt.Errorf("transport: empty node id: %w", ErrUnknownNode)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("transport: bus: %w", ErrClosed)
	}
	if _, exists := b.nodes[id]; exists {
		return nil, fmt.Errorf("transport: %q: %w", id, ErrDuplicateNode)
	}
	ep := &BusEndpoint{bus: b, id: id}
	b.nodes[id] = ep
	return ep, nil
}

// medium returns the bus's medium, starting it on first use. A closed bus
// gets one that delivers nothing.
func (b *Bus) medium() *medium {
	if m := b.sim.Load(); m != nil {
		return m
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if m := b.sim.Load(); m != nil {
		return m
	}
	m := newMedium(b.cfg, b.closed)
	b.sim.Store(m)
	return m
}

// SetLink installs a directed override from→to; from then on the bus
// schedules every send through its medium.
func (b *Bus) SetLink(from, to NodeID, lc LinkConfig) {
	m := b.medium()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.links[linkKey{from, to}] = lc
}

// ClearLink removes a directed override.
func (b *Bus) ClearLink(from, to NodeID) {
	if m := b.sim.Load(); m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(m.links, linkKey{from, to})
	}
}

// Partition blocks both directions between x and y.
func (b *Bus) Partition(x, y NodeID) {
	b.SetLink(x, y, LinkConfig{Blocked: true})
	b.SetLink(y, x, LinkConfig{Blocked: true})
}

// Heal removes both directed overrides between x and y.
func (b *Bus) Heal(x, y NodeID) {
	b.ClearLink(x, y)
	b.ClearLink(y, x)
}

// WireStats reports the medium's traffic: packets and bytes that occupied
// it (multicast counted once) and per-receiver losses to partitions and
// random loss. A bus that delivers inline has no medium and reports zeros.
func (b *Bus) WireStats() (packets, bytes, lost uint64) {
	if m := b.sim.Load(); m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.wire.Packets, m.wire.Bytes, m.wire.Lost
	}
	return 0, 0, 0
}

// LinkStats reports the medium's directed from→to counters. Experiments use
// it to attribute traffic to one bearer in a multi-datalink topology (E14).
func (b *Bus) LinkStats(from, to NodeID) LinkStats {
	if m := b.sim.Load(); m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		if ls := m.linkStats[linkKey{from, to}]; ls != nil {
			return *ls
		}
	}
	return LinkStats{}
}

// ResetWireStats zeroes the medium's counters, per-link ones included,
// between experiment phases.
func (b *Bus) ResetWireStats() {
	if m := b.sim.Load(); m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.wire = LinkStats{}
		m.linkStats = make(map[linkKey]*LinkStats)
	}
}

// Close stops the medium: pending deliveries are discarded, later sends
// reach no one, and Endpoint fails. Endpoints stay open. Close is
// idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	b.closed = true
	m := b.sim.Load()
	if m == nil {
		b.sim.Store(newMedium(b.cfg, true))
	}
	b.mu.Unlock()
	if m != nil {
		m.close()
	}
}

// lookup returns the endpoint for id, or nil.
func (b *Bus) lookup(id NodeID) *BusEndpoint {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.nodes[id]
}

// members returns the endpoints subscribed to group, in join order. The
// slice is shared and immutable.
func (b *Bus) members(group string) []*BusEndpoint {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.groups[group]
}

func (b *Bus) join(group string, ep *BusEndpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.groups[group]
	for _, member := range old {
		if member == ep {
			return
		}
	}
	b.groups[group] = append(old[:len(old):len(old)], ep) // full slice expression: always a fresh array
}

func (b *Bus) leave(group string, ep *BusEndpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropLocked(group, ep)
}

// dropLocked replaces group's list with one that lacks ep.
func (b *Bus) dropLocked(group string, ep *BusEndpoint) {
	old := b.groups[group]
	var rest []*BusEndpoint
	for _, member := range old {
		if member != ep {
			rest = append(rest, member)
		}
	}
	if len(rest) == len(old) {
		return // ep was not a member
	}
	if len(rest) == 0 {
		delete(b.groups, group)
	} else {
		b.groups[group] = rest
	}
}

func (b *Bus) remove(ep *BusEndpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.nodes, ep.id)
	for group := range b.groups {
		b.dropLocked(group, ep)
	}
}

// medium schedules a simulated bus's deliveries.
type medium struct {
	clk     clock.Clock
	latency time.Duration
	loss    float64

	mu        sync.Mutex
	rng       *rand.Rand
	links     map[linkKey]LinkConfig
	linkFree  map[linkKey]time.Time // when each capped link is next free
	linkStats map[linkKey]*LinkStats
	wire      LinkStats // the medium's totals; Lost excludes receiver drops
	events    eventHeap
	seq       uint64 // tiebreaker for equal delivery times
	closed    bool

	trigger clock.Trigger
	done    chan struct{}
	wg      *clock.WaitGroup
}

type linkKey struct {
	from, to NodeID
}

// newMedium builds a medium and, unless it starts closed, its delivery
// goroutine.
func newMedium(cfg SimConfig, closed bool) *medium {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	m := &medium{
		clk:       clock.Or(cfg.Clock),
		latency:   cfg.Latency,
		loss:      cfg.Loss,
		rng:       rand.New(rand.NewSource(seed)),
		links:     make(map[linkKey]LinkConfig),
		linkFree:  make(map[linkKey]time.Time),
		linkStats: make(map[linkKey]*LinkStats),
		closed:    closed,
		done:      make(chan struct{}),
	}
	if !closed {
		m.trigger = clock.NewTrigger(m.clk)
		m.wg = clock.NewWaitGroup(m.clk)
		m.wg.Add(1)
		clock.Go(m.clk, m.run)
	}
	return m
}

func (m *medium) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done)
	m.wg.Wait()
}

// event is one scheduled delivery.
type event struct {
	at  time.Time
	seq uint64
	dst *BusEndpoint
	pkt Packet
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// run is the delivery goroutine: it pops events in timestamp order and
// calls receiver handlers, parking on the clock between events.
func (m *medium) run() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var due []*event
		wait := time.Duration(-1)
		now := m.clk.Now()
		for len(m.events) > 0 {
			next := m.events[0]
			if d := next.at.Sub(now); d > 0 {
				wait = d
				break
			}
			heap.Pop(&m.events)
			due = append(due, next)
		}
		m.mu.Unlock()

		if len(due) > 0 {
			for _, ev := range due {
				if !ev.dst.deliver(ev.pkt) {
					m.mu.Lock()
					m.linkStatsLocked(ev.pkt.From, ev.dst.id).Lost++
					m.mu.Unlock()
				}
			}
			continue
		}
		if !m.trigger.Wait(wait, m.done) {
			return
		}
	}
}

// linkStatsLocked returns (creating if needed) the counters for a directed
// link. Caller holds m.mu.
func (m *medium) linkStatsLocked(from, to NodeID) *LinkStats {
	key := linkKey{from, to}
	ls := m.linkStats[key]
	if ls == nil {
		ls = &LinkStats{}
		m.linkStats[key] = ls
	}
	return ls
}

// transmit schedules pkt's delivery to every receiver but src, occupying
// the medium once however many there are.
func (m *medium) transmit(src *BusEndpoint, receivers []*BusEndpoint, pkt Packet) {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	// Delivery happens later on the delivery goroutine, while the sender
	// may recycle its buffer the moment Send returns (the ownership
	// contract): take one GC-owned copy per transmission, shared by every
	// receiver, which must not retain or mutate it.
	pkt.Payload = bufpool.Copy(pkt.Payload)
	pkt.Owner = nil
	size := uint64(len(pkt.Payload))
	m.wire.Packets++
	m.wire.Bytes += size

	for _, dst := range receivers {
		if dst == src {
			continue
		}
		key := linkKey{src.id, dst.id}
		lc := m.links[key]
		ls := m.linkStatsLocked(src.id, dst.id)
		ls.Packets++
		ls.Bytes += size
		if lc.Blocked {
			m.wire.Lost++
			ls.Lost++
			continue
		}
		// A capped link is occupied for size/rate whether or not the
		// receiver then loses the packet.
		depart := now
		if lc.BandwidthBPS > 0 {
			if free := m.linkFree[key]; free.After(depart) {
				depart = free
			}
			depart = depart.Add(time.Duration(float64(size) / float64(lc.BandwidthBPS) * float64(time.Second)))
			m.linkFree[key] = depart
		}
		if m.loss > 0 && m.rng.Float64() < m.loss {
			m.wire.Lost++
			ls.Lost++
			dst.stats.dropped()
			continue
		}
		m.seq++
		heap.Push(&m.events, &event{at: depart.Add(m.latency), seq: m.seq, dst: dst, pkt: pkt})
	}
	m.trigger.Signal()
}

// BusEndpoint is one node's attachment to a Bus.
type BusEndpoint struct {
	bus   *Bus
	id    NodeID
	stats counters

	mu      sync.Mutex
	handler Handler
	closed  bool
}

var _ Transport = (*BusEndpoint)(nil)
var _ Multicaster = (*BusEndpoint)(nil)
var _ SharedSender = (*BusEndpoint)(nil)

// Node implements Transport.
func (e *BusEndpoint) Node() NodeID { return e.id }

// NativeMulticast implements Multicaster: a bus send reaches all members
// with one handler call per member but one logical wire packet.
func (e *BusEndpoint) NativeMulticast() bool { return true }

// SetHandler implements Transport.
func (e *BusEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// receiver returns the handler to deliver to, or nil once closed.
func (e *BusEndpoint) receiver() Handler {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	return e.handler
}

func (e *BusEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Send implements Transport. An inline receiver's handler sees payload
// itself, with no Owner: a receiver that keeps it past the call copies.
func (e *BusEndpoint) Send(to NodeID, payload []byte) error {
	return e.send(Packet{From: e.id, To: to, Payload: payload})
}

// SendGroup implements Transport.
func (e *BusEndpoint) SendGroup(group string, payload []byte) error {
	return e.send(Packet{From: e.id, Group: group, Payload: payload})
}

// SendShared implements SharedSender: inline, every receiver's handler
// gets buf itself as Packet.Owner and retains it to keep the bytes, so
// nothing is copied between the sender's pool buffer and the receiver's
// dispatch. Through the medium, the bytes travel as the one copy of a Send,
// with no Owner.
func (e *BusEndpoint) SendShared(to NodeID, group string, buf *bufpool.Shared) error {
	return e.send(Packet{From: e.id, To: to, Group: group, Payload: buf.Bytes(), Owner: buf})
}

// send delivers pkt to its unicast destination or to every member of its
// group but the sender, one logical wire packet either way: the bus models
// a shared medium with true multicast, and local delivery is the
// container's bypass path, not a loopback.
func (e *BusEndpoint) send(pkt Packet) error {
	if e.isClosed() {
		return fmt.Errorf("transport: send from %q: %w", e.id, ErrClosed)
	}
	if pkt.Group == "" {
		dst := e.bus.lookup(pkt.To)
		if dst == nil {
			return fmt.Errorf("transport: send to %q: %w", pkt.To, ErrUnknownNode)
		}
		e.stats.sent(len(pkt.Payload))
		e.stats.wire(len(pkt.Payload))
		if m := e.bus.sim.Load(); m != nil {
			m.transmit(e, []*BusEndpoint{dst}, pkt)
			return nil
		}
		dst.deliver(pkt)
		return nil
	}
	e.stats.sent(len(pkt.Payload))
	e.stats.wire(len(pkt.Payload))
	members := e.bus.members(pkt.Group)
	if m := e.bus.sim.Load(); m != nil {
		m.transmit(e, members, pkt)
		return nil
	}
	for _, member := range members {
		if member != e {
			member.deliver(pkt)
		}
	}
	return nil
}

// deliver hands pkt to the handler and reports whether it did. An endpoint
// with no handler, or closed since the sender looked it up, counts a drop.
func (e *BusEndpoint) deliver(pkt Packet) bool {
	h := e.receiver()
	if h == nil {
		e.stats.dropped()
		return false
	}
	e.stats.recv(len(pkt.Payload))
	h(pkt)
	return true
}

// Join implements Transport.
func (e *BusEndpoint) Join(group string) error {
	if e.isClosed() {
		return fmt.Errorf("transport: join from %q: %w", e.id, ErrClosed)
	}
	e.bus.join(group, e)
	return nil
}

// Leave implements Transport.
func (e *BusEndpoint) Leave(group string) error {
	if e.isClosed() {
		return fmt.Errorf("transport: leave from %q: %w", e.id, ErrClosed)
	}
	e.bus.leave(group, e)
	return nil
}

// Stats implements Transport.
func (e *BusEndpoint) Stats() Stats { return e.stats.snapshot() }

// Close implements Transport. A send that reaches the endpoint after Close
// counts a drop; one already inside the handler finishes there.
func (e *BusEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.bus.remove(e)
	return nil
}
