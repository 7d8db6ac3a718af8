package transport

import (
	"fmt"
	"sync"

	"uavmw/internal/bufpool"
)

// Bus is an in-process transport fabric: every endpoint created from the
// same Bus can reach every other by node ID or multicast group. It models
// the paper's same-host case where several containers share one airframe
// computer, and it is the default substrate for unit tests.
//
// Delivery is asynchronous: each endpoint owns a bounded queue drained by a
// dispatch goroutine, so a slow handler exerts backpressure on its own
// queue and overflow is counted as drop — mirroring a NIC ring buffer.
type Bus struct {
	mu    sync.RWMutex
	nodes map[NodeID]*BusEndpoint
	// groups lists are copy-on-write: join, leave and remove install a
	// fresh slice, so SendGroup reads one under the lock and walks it
	// unlocked without copying.
	groups map[string][]*BusEndpoint
}

// NewBus returns an empty in-process fabric.
func NewBus() *Bus {
	return &Bus{
		nodes:  make(map[NodeID]*BusEndpoint),
		groups: make(map[string][]*BusEndpoint),
	}
}

// defaultQueueLen is the per-endpoint receive queue length. Sized like a
// small NIC ring: large enough to absorb bursts, small enough that runaway
// producers surface as drops in tests instead of unbounded memory.
const defaultQueueLen = 1024

// Endpoint creates and registers the endpoint for node id.
func (b *Bus) Endpoint(id NodeID) (*BusEndpoint, error) {
	if id == "" {
		return nil, fmt.Errorf("transport: empty node id: %w", ErrUnknownNode)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, exists := b.nodes[id]; exists {
		return nil, fmt.Errorf("transport: %q: %w", id, ErrDuplicateNode)
	}
	ep := &BusEndpoint{
		bus:   b,
		id:    id,
		queue: make(chan Packet, defaultQueueLen),
		done:  make(chan struct{}),
	}
	ep.wg.Add(1)
	go ep.dispatch()
	b.nodes[id] = ep
	return ep, nil
}

// lookup returns the endpoint for id, or nil.
func (b *Bus) lookup(id NodeID) *BusEndpoint {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.nodes[id]
}

// members returns the endpoints subscribed to group. The slice is shared
// and immutable.
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

// Nodes returns the ids of all registered endpoints.
func (b *Bus) Nodes() []NodeID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]NodeID, 0, len(b.nodes))
	for id := range b.nodes {
		out = append(out, id)
	}
	return out
}

// BusEndpoint is one node's attachment to a Bus.
type BusEndpoint struct {
	bus   *Bus
	id    NodeID
	queue chan Packet
	done  chan struct{}
	wg    sync.WaitGroup
	stats counters

	mu      sync.Mutex
	handler Handler
	closed  bool
}

var _ Transport = (*BusEndpoint)(nil)
var _ Multicaster = (*BusEndpoint)(nil)

// Node implements Transport.
func (e *BusEndpoint) Node() NodeID { return e.id }

// NativeMulticast implements Multicaster: a bus send reaches all members
// with one enqueue per member but one logical wire packet.
func (e *BusEndpoint) NativeMulticast() bool { return true }

// SetHandler implements Transport.
func (e *BusEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

func (e *BusEndpoint) currentHandler() Handler {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.handler
}

func (e *BusEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Send implements Transport.
func (e *BusEndpoint) Send(to NodeID, payload []byte) error {
	if e.isClosed() {
		return fmt.Errorf("transport: send from %q: %w", e.id, ErrClosed)
	}
	dst := e.bus.lookup(to)
	if dst == nil {
		return fmt.Errorf("transport: send to %q: %w", to, ErrUnknownNode)
	}
	e.stats.sent(len(payload))
	e.stats.wire(len(payload))
	// Delivery is asynchronous (queue + dispatch goroutine) while the
	// caller may recycle payload the moment Send returns, so the bus takes
	// a pooled copy and hands the receiver a refcounted reference — the
	// transport ownership contract, with zero GC garbage in steady state.
	dst.enqueue(sharedPacket(Packet{From: e.id, To: to}, payload))
	return nil
}

// sharedPacket copies payload into a pooled buffer and attaches it to pkt
// as a refcounted Owner holding one reference (the queue's).
func sharedPacket(pkt Packet, payload []byte) Packet {
	buf := append(bufpool.Get(len(payload)), payload...)
	pkt.Owner = bufpool.Share(buf)
	pkt.Payload = buf
	return pkt
}

// SendGroup implements Transport.
func (e *BusEndpoint) SendGroup(group string, payload []byte) error {
	if e.isClosed() {
		return fmt.Errorf("transport: send from %q: %w", e.id, ErrClosed)
	}
	e.stats.sent(len(payload))
	// One wire packet regardless of member count: the in-process bus
	// models a shared medium with true multicast. No self-loopback —
	// local delivery is the container's bypass path.
	e.stats.wire(len(payload))
	// One pooled copy shared by every member: each queue holds its own
	// reference on the same immutable buffer, and the last consumer's
	// Release returns it to the pool.
	pkt := sharedPacket(Packet{From: e.id, Group: group}, payload)
	for _, member := range e.bus.members(group) {
		if member == e {
			continue
		}
		member.enqueue(Packet{From: pkt.From, Group: pkt.Group, Payload: pkt.Payload, Owner: pkt.Owner.Retain()})
	}
	// Drop the construction reference: delivery queues now own the buffer.
	pkt.Owner.Release()
	return nil
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

// Close implements Transport.
func (e *BusEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	e.bus.remove(e)
	close(e.done)
	e.wg.Wait()
	return nil
}

// enqueue places a packet on the receive queue, dropping on overflow or
// after close. A dropped packet's buffer reference is released here; a
// queued one is released by deliver.
func (e *BusEndpoint) enqueue(pkt Packet) {
	select {
	case <-e.done:
		e.stats.dropped()
		pkt.Owner.Release()
		return
	default:
	}
	select {
	case e.queue <- pkt:
	default:
		e.stats.dropped()
		pkt.Owner.Release()
	}
}

// dispatch drains the queue onto the handler until Close.
func (e *BusEndpoint) dispatch() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			// Drain whatever is already queued so tests observe
			// deterministic delivery for pre-close sends.
			for {
				select {
				case pkt := <-e.queue:
					e.deliver(pkt)
				default:
					return
				}
			}
		case pkt := <-e.queue:
			e.deliver(pkt)
		}
	}
}

func (e *BusEndpoint) deliver(pkt Packet) {
	defer pkt.Owner.Release()
	h := e.currentHandler()
	if h == nil {
		e.stats.dropped()
		return
	}
	e.stats.recv(len(pkt.Payload))
	h(pkt)
}
