// Package transport implements the PEPt "Transport" subsystem (§6 of the
// paper): moving protocol frames between nodes. The paper's container
// "abstracts the network access, allowing the middleware to be deployed in
// different networks" (§3); that abstraction is the Transport interface.
//
// Two implementations exist: the in-process bus (inproc.go), which
// delivers inline between same-host containers or, given latency, loss or
// a link override, through a seeded simulated medium for the loss/latency
// experiments; and a real UDP transport over the loopback/LAN.
//
// # Buffer ownership
//
// The wire path recycles its buffers (internal/bufpool), so retention is a
// contract, not a convention:
//
//   - Send / SendGroup: the payload belongs to the caller and is valid
//     only for the duration of the call. A transport that still needs the
//     bytes after returning — a bus simulating latency — copies them first
//     (see bufpool.Copy). UDP hands the bytes to the kernel within the
//     call, and an inline bus calls every receiver's Handler before it
//     returns; neither retains anything.
//   - SendShared (SharedSender, the bus): the payload is a refcounted
//     pooled buffer the caller holds a reference on for the call. The
//     transport takes no reference of its own; it passes the buffer to each
//     receiving Handler as Packet.Owner, and a receiver that keeps the bytes
//     Retains it. The caller Releases its reference once the call returns,
//     and the last Release, wherever it happens, recycles the buffer.
//   - Receive: Packet.Payload is valid only for the duration of the Handler
//     call; the backing storage (a pooled receive buffer, or the sender's
//     own buffer on the bus) is reused afterwards. Handlers that retain any
//     part of it must copy — unless the packet carries an Owner, in which
//     case the handler may Retain the reference instead and keep the
//     payload alive past the call without copying (the ingress pipeline's
//     zero-copy handoff).
package transport

import (
	"errors"
	"sync/atomic"

	"uavmw/internal/bufpool"
)

// NodeID identifies a container node on the network. The paper gives every
// node exactly one service container (§3), so node and container identity
// coincide.
type NodeID string

// Packet is one transport datagram. Payload is an opaque protocol frame.
type Packet struct {
	// From is the sending node.
	From NodeID
	// To is the destination node for unicast packets; empty for group
	// (multicast/broadcast) packets.
	To NodeID
	// Group is the multicast group name for group packets; empty for
	// unicast.
	Group string
	// Payload is the protocol frame. Receivers must not retain it past
	// the handler call unless they copy — or Retain Owner when it is set.
	Payload []byte
	// Owner, when non-nil, is the refcounted pooled buffer backing Payload.
	// A handler that needs the payload past its call Retains it and
	// Releases when done; handlers that consume synchronously ignore it.
	// Transports that deliver from GC-owned or caller-owned storage
	// (a simulated medium's one copy, a plain bus Send) leave it nil, and
	// receivers needing ownership copy.
	Owner *bufpool.Shared
}

// Handler processes one received packet. It runs on a goroutine of the
// transport's choosing — a UDP read loop, or on the in-process bus the
// sender's own goroutine, inside its Send — and may run concurrently with
// itself. A Handler never blocks: it stamps, copies or retains what it
// needs and queues it (the container pushes onto its ingress ring, a
// bounded drop-oldest queue). Work that may wait belongs on the container
// scheduler; on the bus a blocked handler stalls its sender.
type Handler func(pkt Packet)

// Transport moves packets between nodes. Implementations must be safe for
// concurrent use.
type Transport interface {
	// Node returns the local node identity.
	Node() NodeID
	// Send transmits a unicast packet to the named node.
	Send(to NodeID, payload []byte) error
	// SendGroup transmits one packet to every current member of the
	// group, exploiting native multicast when the underlying network has
	// it (§4.1: "one packet sent can arrive to multiple nodes").
	SendGroup(group string, payload []byte) error
	// Join subscribes the local node to a multicast group.
	Join(group string) error
	// Leave unsubscribes the local node from a multicast group.
	Leave(group string) error
	// SetHandler installs the receive callback. It must be called before
	// traffic is expected; packets arriving with no handler are counted
	// as dropped.
	SetHandler(h Handler)
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
	// Close releases resources and stops the transport's goroutines, if
	// it has any. Implementations must be idempotent.
	Close() error
}

// BatchMessage is one datagram in a BatchSender call: exactly one of To or
// Group is set, mirroring Send/SendGroup.
type BatchMessage struct {
	To      NodeID
	Group   string
	Payload []byte
}

// BatchSender is an optional interface for transports that put several
// datagrams on the wire in one call, with the semantics of issuing the
// Sends in slice order. No transport in this module implements it: UDP
// writes one datagram per call, and the egress drainers send one per call.
// The declaration stays only because the benchmark harness's trace
// decorator forwards it; it goes when that harness is next revised.
type BatchSender interface {
	SendBatch(msgs []BatchMessage) error
}

// SharedSender is implemented by transports that can hand receivers the
// sender's own pooled datagram (the in-process bus). SendShared sends
// buf's bytes to the node to, or, when group is set, to every member of
// group, as Send and SendGroup do; receivers get buf as Packet.Owner, so
// the bytes cross with no copy. The caller holds a reference on buf for the
// call and releases it afterwards; the transport takes none. Senders
// detect the interface once and fall back to Send and SendGroup without it.
type SharedSender interface {
	SendShared(to NodeID, group string, buf *bufpool.Shared) error
}

// Multicaster is implemented by transports whose SendGroup puts a single
// packet on the wire regardless of group size. The variable engine uses it
// to choose between native multicast and unicast fan-out.
type Multicaster interface {
	NativeMulticast() bool
}

// PeerBook is implemented by transports that resolve unicast destinations
// through an explicit address book (UDP). The container's bearer
// plane uses it to track peers whose per-bearer addresses arrive through
// discovery: AddPeer is idempotent and re-adding a peer with a new address
// updates it (a bearer's endpoint can move at runtime — a UAV re-acquiring
// WiFi on a different ground segment); RemovePeer drops the entry so
// frames to a departed peer fail fast instead of dialing a stale address.
// A substrate with a global address book (the bus) doesn't implement it.
type PeerBook interface {
	AddPeer(id NodeID, addr string) error
	RemovePeer(id NodeID)
}

// Addressable is implemented by transports with a dialable local address
// (UDP). The container advertises it in the bearer's discovery record
// so remote peers can populate their PeerBook for this link.
type Addressable interface {
	LocalAddr() string
}

// Stats counts transport traffic. "Wire" counters measure what crosses the
// network medium: one multicast send is one wire packet however many nodes
// receive it, which is exactly the §4.1 bandwidth argument experiment E3
// measures.
type Stats struct {
	// PacketsSent counts Send/SendGroup calls accepted.
	PacketsSent uint64
	// BytesSent counts payload bytes accepted for sending.
	BytesSent uint64
	// PacketsWire counts packets placed on the medium.
	PacketsWire uint64
	// BytesWire counts payload bytes placed on the medium.
	BytesWire uint64
	// PacketsRecv counts packets delivered to the handler.
	PacketsRecv uint64
	// BytesRecv counts payload bytes delivered to the handler.
	BytesRecv uint64
	// PacketsDropped counts packets lost: no handler installed, queue
	// overflow, simulated loss, or unreachable destination.
	PacketsDropped uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.PacketsSent += other.PacketsSent
	s.BytesSent += other.BytesSent
	s.PacketsWire += other.PacketsWire
	s.BytesWire += other.BytesWire
	s.PacketsRecv += other.PacketsRecv
	s.BytesRecv += other.BytesRecv
	s.PacketsDropped += other.PacketsDropped
}

// Errors shared by transport implementations.
var (
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport closed")
	// ErrUnknownNode reports a unicast destination with no known address.
	ErrUnknownNode = errors.New("unknown node")
	// ErrDuplicateNode reports two endpoints claiming one node identity.
	ErrDuplicateNode = errors.New("duplicate node id")
)

// counters is the lock-free implementation backing Stats snapshots.
type counters struct {
	packetsSent    atomic.Uint64
	bytesSent      atomic.Uint64
	packetsWire    atomic.Uint64
	bytesWire      atomic.Uint64
	packetsRecv    atomic.Uint64
	bytesRecv      atomic.Uint64
	packetsDropped atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		PacketsSent:    c.packetsSent.Load(),
		BytesSent:      c.bytesSent.Load(),
		PacketsWire:    c.packetsWire.Load(),
		BytesWire:      c.bytesWire.Load(),
		PacketsRecv:    c.packetsRecv.Load(),
		BytesRecv:      c.bytesRecv.Load(),
		PacketsDropped: c.packetsDropped.Load(),
	}
}

func (c *counters) sent(n int) {
	c.packetsSent.Add(1)
	c.bytesSent.Add(uint64(n))
}

func (c *counters) wire(n int) {
	c.packetsWire.Add(1)
	c.bytesWire.Add(uint64(n))
}

func (c *counters) recv(n int) {
	c.packetsRecv.Add(1)
	c.bytesRecv.Add(uint64(n))
}

func (c *counters) dropped() {
	c.packetsDropped.Add(1)
}
