// Package fabric defines the narrow interface between the service container
// and its five engines: the four communication primitives (variables,
// events, remote invocation, file transfer) and discovery, which announces
// what the other four offer. The container implements Fabric; engines are
// written against it, which keeps them free of container internals and lets
// their tests run them on fabrictest.Fabric, the one test double, which
// keeps the same send contract. A fabric may implement two optional
// interfaces, which engines feature-test for: Clocked, the node's time
// source, and Instrumented, its metrics registry. The reliable send takes
// no per-message tuning: the container's ARQ measures each peer's round
// trip and sets its retransmission timeout from it.
package fabric

import (
	"uavmw/internal/clock"

	"uavmw/internal/encoding"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// Fabric is what an engine may ask of its container.
//
// One send contract covers SendBestEffort, SendGroup and SendReliable. The
// fabric assigns a zero Seq from NextSeq's counter (engines leave Seq
// zero), encodes the frame (header and payload both) into its own wire
// buffer before returning, and keeps neither the *protocol.Frame nor an
// alias of its Payload afterwards, so engines hand in pooled frames and
// payload buffers and recycle them the moment the call returns; an
// implementation that records or defers the send (fabrictest.Fabric
// included) must copy first. A frame addressed to the node itself is
// dispatched synchronously and never touches a link. A frame larger than
// the node's MTU travels as fragments that each fit it and is reassembled
// at the receiver; engines never see the split.
//
// Transmission is priority-aware: the frame's Priority selects the egress
// lane it drains from (strict priority per destination, token-bucket-shaped
// PriorityBulk, small-frame coalescing — see package egress). Datagram
// sends are therefore asynchronous: a nil return means the frame was
// accepted into its lane, not that it reached the transport; post-enqueue
// transport failures surface in the registry's "egress" families. Engines
// must set Priority deliberately — it decides both who the frame may
// overtake on a congested link and how the receiver schedules its handler.
// It also decides whether the send can wait: a PriorityBulk frame waits
// while its lane holds 16 frames (the lane is the bulk sender's pacer, and
// a short one keeps few pooled buffers queued) and, on the in-process bus,
// while its receivers still hold 64 of the link's bulk datagrams; every
// other class never does. PriorityBulk is therefore for goroutines that may
// wait (the file-transfer loop is one; a handler on an ingress worker is
// not).
//
// Transmission is also bearer-aware: a container may carry several
// datagram links (WiFi, radio modem, satcom), and the frame's Priority —
// through the container's link policy and per-bearer health monitoring —
// additionally selects WHICH link the frame rides (bulk on the fattest
// healthy pipe, critical on the most robust one, automatic failover when a
// bearer blacks out). Engines stay bearer-agnostic: they never name a
// link, and a frame's class is the only routing input they control.
// Unicast sends ride exactly one bearer per transmission attempt (ARQ
// retransmissions may re-select, which is how in-flight reliable traffic
// survives a bearer blackout); SendGroup may put one copy on several
// bearers (discovery rides every live bearer; receivers dedup), so group
// senders must tolerate duplicate delivery — the ack/dedup layer already
// guarantees this for ack-required frames.
type Fabric interface {
	// Self is the local node identity.
	Self() transport.NodeID
	// Encoding is the node's payload encoding.
	Encoding() encoding.Encoding
	// Directory is the node's name cache (§3 name management).
	Directory() *naming.Directory
	// Schedule queues handler work on the container scheduler (§6).
	Schedule(p qos.Priority, job func()) error
	// NextSeq draws a node-unique id from the counter the fabric numbers
	// frames from. Engines leave a frame's Seq zero for the fabric; they
	// draw ids themselves only for the RPC call id and the file fetch
	// token.
	NextSeq() uint64
	// SendBestEffort transmits one unacknowledged frame to a node over
	// the datagram transport (§4.1 variables).
	SendBestEffort(to transport.NodeID, f *protocol.Frame) error
	// SendGroup multicasts one unacknowledged frame (§4.1, §4.4).
	SendGroup(group string, f *protocol.Frame) error
	// SendReliable delivers one frame over the datagram transport plus the
	// protocol-level ack/retransmit engine: §4.3's "UDP plus
	// retransmission at the middleware level", the one reliable class
	// this stack implements (§4.2, §4.3). rel is therefore always
	// qos.ReliableARQ; the parameter stays only because bench's
	// nullFabric implements this exact signature. done is invoked exactly
	// once with the outcome; it may run on a timer goroutine, and the
	// sender may have abandoned the exchange by then (a hedged RPC caller
	// that already took another provider's answer), so done must not
	// assume a waiting receiver.
	SendReliable(to transport.NodeID, f *protocol.Frame, rel qos.Reliability, done func(error))
	// Join subscribes the node to a multicast group.
	Join(group string) error
	// Leave unsubscribes the node from a multicast group.
	Leave(group string) error
	// OfferChanged tells the container the local resource offer changed
	// (a registration or withdrawal). The container diffs the offer
	// against its versioned record log and multicasts an incremental
	// announcement immediately, so discovery latency is one network hop
	// rather than one announce period (§3 name management).
	OfferChanged()
}

// Clocked is optionally implemented by fabrics that run on an injectable
// time source. Engines feature-test for it and pace their loops on the
// same clock as the container, so a node built on a virtual clock carries
// every layer's timing with it; absent, engines default to the wall
// clock.
type Clocked interface {
	Clock() clock.Clock
}

// ClockOf returns f's clock when f is Clocked, else the wall clock — never
// nil, so engines resolve their time source once at construction.
func ClockOf(f Fabric) clock.Clock {
	if c, ok := f.(Clocked); ok {
		return clock.Or(c.Clock())
	}
	return clock.Real{}
}

// Instrumented is optionally implemented by fabrics that carry the node's
// unified metrics registry. Engines resolve it through MetricsOf, so every
// plane's counters and typed-error families land in one exportable
// registry (core.Node.MetricsSnapshot); a fabric without one gets each
// engine a private registry.
type Instrumented interface {
	Metrics() *metrics.Registry
}

// MetricsOf returns f's registry when f is Instrumented, else a fresh
// private registry — never nil, so engines can resolve counter handles
// unconditionally at construction.
func MetricsOf(f Fabric) *metrics.Registry {
	if in, ok := f.(Instrumented); ok {
		if reg := in.Metrics(); reg != nil {
			return reg
		}
	}
	return metrics.NewRegistry()
}

// Group naming scheme shared by engines and the container.
const (
	// DiscoveryGroup carries announcements and byes.
	DiscoveryGroup   = "uavmw.disco"
	varGroupPrefix   = "v:"
	fileGroupPrefix  = "f:"
	eventGroupPrefix = "e:"
)

// VarGroup names the multicast group of a published variable.
func VarGroup(name string) string { return varGroupPrefix + name }

// FileGroup names the multicast group of a file transfer.
func FileGroup(name string) string { return fileGroupPrefix + name }

// EventGroup names the multicast group of a group-addressed event topic
// (qos.DeliverMulticast).
func EventGroup(topic string) string { return eventGroupPrefix + topic }
