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
// Delivery is inline: Send, SendGroup and SendShared call each destination's
// Handler on the sender's goroutine before they return, so the bus has no
// queue, no goroutine and no drop path of its own. The receiving container's
// ingress ring is the bounded queue, and the Handler contract (never block)
// keeps a sender from stalling on a slow receiver.
type Bus struct {
	mu    sync.RWMutex
	nodes map[NodeID]*BusEndpoint
	// groups lists are copy-on-write: join, leave and remove install a
	// fresh slice, so a group send reads one under the lock and walks it
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
	ep := &BusEndpoint{bus: b, id: id}
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

// Send implements Transport. The receiver's handler sees payload itself,
// with no Owner: a receiver that keeps it past the call copies.
func (e *BusEndpoint) Send(to NodeID, payload []byte) error {
	return e.send(Packet{From: e.id, To: to, Payload: payload})
}

// SendGroup implements Transport.
func (e *BusEndpoint) SendGroup(group string, payload []byte) error {
	return e.send(Packet{From: e.id, Group: group, Payload: payload})
}

// SendShared implements SharedSender: every receiver's handler gets buf
// itself as Packet.Owner and retains it to keep the bytes, so nothing is
// copied between the sender's pool buffer and the receiver's dispatch.
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
		dst.deliver(pkt)
		return nil
	}
	e.stats.sent(len(pkt.Payload))
	e.stats.wire(len(pkt.Payload))
	for _, member := range e.bus.members(pkt.Group) {
		if member != e {
			member.deliver(pkt)
		}
	}
	return nil
}

// deliver hands pkt to the handler on the sending goroutine. An endpoint
// with no handler, or closed since the sender looked it up, counts a drop.
func (e *BusEndpoint) deliver(pkt Packet) {
	h := e.receiver()
	if h == nil {
		e.stats.dropped()
		return
	}
	e.stats.recv(len(pkt.Payload))
	h(pkt)
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
// counts a drop; one already inside the handler, on its sender's goroutine,
// finishes there.
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
