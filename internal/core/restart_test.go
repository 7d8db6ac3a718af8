package core

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/events"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// A node draws every frame seq from one counter that starts at 0 in each
// incarnation, and its peers keep per-peer state keyed by node id alone:
// the dedup window of its seqs, the acks held for it, and the ARQ entry of
// what they sent it. A node that crashes (its goodbye lost) and comes back
// under the same id before its peers' failure deadline must not inherit
// that state: a new seq the old window still holds is acknowledged as a
// duplicate and never delivered. These tests crash a node the way
// TestRPCFailoverOnNodeDeath does — partition, close, heal — and restart
// it at once, on a sim bus with 200 µs latency under the virtual clock.
// The failure deadline is a minute: whatever virtual time the crashed
// node's Close takes, its peers never declare it gone, and the restart
// always lands inside the deadline.

// simVirtualNode attaches a container for id to net under v.
func simVirtualNode(t *testing.T, v *clock.Virtual, net *transport.Bus, id transport.NodeID, opts ...NodeOption) *Node {
	t.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return virtualNode(t, v, ep, append([]NodeOption{WithFailureDeadline(time.Minute)}, opts...)...)
}

// crashRestart crashes n, its goodbye lost on the way to peer, and starts a
// new incarnation under the same id with opts.
func crashRestart(t *testing.T, v *clock.Virtual, net *transport.Bus, n *Node, peer transport.NodeID, opts ...NodeOption) *Node {
	t.Helper()
	net.Partition(n.ID(), peer)
	_ = n.Close()
	net.Heal(n.ID(), peer)
	return simVirtualNode(t, v, net, n.ID(), opts...)
}

// knownEpoch waits until n's directory holds an epoch of peer, so that n
// knows the incarnation a crash will end, and returns it.
func knownEpoch(t *testing.T, v *clock.Virtual, n *Node, peer transport.NodeID) uint64 {
	t.Helper()
	var epoch uint64
	if !virtualWait(v, time.Second, func() bool {
		epoch, _, _ = n.Directory().NodeVersion(peer)
		return epoch != 0
	}) {
		t.Fatalf("%s never heard %s's discovery", n.ID(), peer)
	}
	return epoch
}

// waitNewEpoch waits until n's directory holds an epoch of peer other than
// old: n has admitted peer's new incarnation.
func waitNewEpoch(t *testing.T, v *clock.Virtual, n *Node, peer transport.NodeID, old uint64) {
	t.Helper()
	if !virtualWait(v, time.Second, func() bool {
		epoch, _, _ := n.Directory().NodeVersion(peer)
		return epoch != old
	}) {
		t.Fatalf("%s never heard %s's new incarnation", n.ID(), peer)
	}
}

const restartCalls = 40

// callsFailing makes restartCalls calls of fn from caller, each with a
// 300 ms deadline, and reports how many failed.
func callsFailing(caller *Node, fn string) int {
	u32 := presentation.Uint32()
	failed := 0
	for i := uint32(0); i < restartCalls; i++ {
		got, err := caller.RPC().Call(context.Background(), fn, i, u32, u32, qos.CallQoS{Deadline: 300 * time.Millisecond})
		if err != nil || got != i+1 {
			failed++
		}
	}
	return failed
}

// TestRestartedCallerCallsAgain: a caller makes 40 calls, crash-restarts
// and makes 40 more. Its new calls reuse seqs the provider's dedup window
// held for the old incarnation; all 40 must complete.
func TestRestartedCallerCallsAgain(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 31, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		provider := simVirtualNode(t, v, net, "provider")
		defer func() { _ = provider.Close() }()
		registerIncrement(t, provider, "fn", nil, nil)
		caller := simVirtualNode(t, v, net, "caller")
		waitProviders(t, v, caller, "fn", 1)
		if n := callsFailing(caller, "fn"); n != 0 {
			t.Fatalf("%d of %d calls failed before the crash", n, restartCalls)
		}
		old := knownEpoch(t, v, provider, "caller")

		caller = crashRestart(t, v, net, caller, "provider")
		defer func() { _ = caller.Close() }()
		waitProviders(t, v, caller, "fn", 1)
		waitNewEpoch(t, v, provider, "caller", old)
		if n := callsFailing(caller, "fn"); n != 0 {
			t.Errorf("%d of %d calls from the restarted caller failed", n, restartCalls)
		}
	})
}

// TestRestartedProviderAnswersAgain: the same with the provider restarted.
// Its new replies reuse seqs the caller's dedup window held for the old
// incarnation; all 40 calls must complete.
func TestRestartedProviderAnswersAgain(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 32, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		provider := simVirtualNode(t, v, net, "provider")
		registerIncrement(t, provider, "fn", nil, nil)
		caller := simVirtualNode(t, v, net, "caller")
		defer func() { _ = caller.Close() }()
		waitProviders(t, v, caller, "fn", 1)
		if n := callsFailing(caller, "fn"); n != 0 {
			t.Fatalf("%d of %d calls failed before the crash", n, restartCalls)
		}
		old := knownEpoch(t, v, caller, "provider")

		provider = crashRestart(t, v, net, provider, "caller")
		defer func() { _ = provider.Close() }()
		registerIncrement(t, provider, "fn", nil, nil)
		waitNewEpoch(t, v, caller, "provider", old)
		waitProviders(t, v, caller, "fn", 1)
		if n := callsFailing(caller, "fn"); n != 0 {
			t.Errorf("%d of %d calls to the restarted provider failed", n, restartCalls)
		}
	})
}

// TestRestartedPublisherDeliversAgain: a reliable-event publisher publishes
// 40 events, crash-restarts and publishes 40 more. Its new events reuse
// seqs the subscriber's dedup window held for the old incarnation; all 40
// must be delivered.
func TestRestartedPublisherDeliversAgain(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 33, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		u32 := presentation.Uint32()
		offer := func(n *Node) *events.Publisher {
			p, err := n.Events().Offer("alarm", "svc", u32, qos.EventQoS{})
			if err != nil {
				t.Fatal(err)
			}
			n.AnnounceNow()
			return p
		}
		pubNode := simVirtualNode(t, v, net, "pub")
		pub := offer(pubNode)
		sub := simVirtualNode(t, v, net, "sub")
		defer func() { _ = sub.Close() }()
		if !virtualWait(v, time.Second, func() bool {
			return sub.Directory().ProviderCount(naming.KindEvent, "alarm") == 1
		}) {
			t.Fatal("the subscriber never saw the topic")
		}
		var received atomic.Int32
		if _, err := sub.Events().Subscribe("alarm", u32, qos.EventQoS{},
			func(any, transport.NodeID) { received.Add(1) }); err != nil {
			t.Fatal(err)
		}
		publish := func(p *events.Publisher) int {
			t.Helper()
			if !virtualWait(v, time.Second, func() bool { return len(p.Subscribers()) == 1 }) {
				t.Fatal("the publisher never saw the subscription")
			}
			before := received.Load()
			for i := uint32(0); i < restartCalls; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				_ = p.Publish(ctx, i)
				cancel()
			}
			virtualWait(v, 300*time.Millisecond, func() bool { return received.Load()-before == restartCalls })
			return int(received.Load() - before)
		}
		if n := publish(pub); n != restartCalls {
			t.Fatalf("%d of %d events delivered before the crash", n, restartCalls)
		}
		old := knownEpoch(t, v, sub, "pub")

		pubNode = crashRestart(t, v, net, pubNode, "sub")
		defer func() { _ = pubNode.Close() }()
		pub = offer(pubNode)
		waitNewEpoch(t, v, sub, "pub", old)
		if n := publish(pub); n != restartCalls {
			t.Errorf("%d of %d events from the restarted publisher delivered", n, restartCalls)
		}
	})
}

// TestSlowLinkStopsRetransmitting runs reliable events over a sim bus with
// 40 ms latency each way, twice the 20 ms timeout a peer starts at. The
// first messages retransmit until one, started at the carried backoff,
// yields a round-trip sample; after at most 5 messages the measured
// timeout clears the link, and 100 more cost no retransmission.
func TestSlowLinkStopsRetransmitting(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 34, Latency: 40 * time.Millisecond, Clock: v})
		defer net.Close()
		slow := []NodeOption{WithAnnouncePeriod(200 * time.Millisecond)}
		pubNode := simVirtualNode(t, v, net, "pub", slow...)
		defer func() { _ = pubNode.Close() }()
		sub := simVirtualNode(t, v, net, "sub", slow...)
		defer func() { _ = sub.Close() }()
		u32 := presentation.Uint32()
		pub, err := pubNode.Events().Offer("telemetry", "svc", u32, qos.EventQoS{})
		if err != nil {
			t.Fatal(err)
		}
		pubNode.AnnounceNow()
		if !virtualWait(v, 5*time.Second, func() bool {
			return sub.Directory().ProviderCount(naming.KindEvent, "telemetry") == 1
		}) {
			t.Fatal("the subscriber never saw the topic")
		}
		if _, err := sub.Events().Subscribe("telemetry", u32, qos.EventQoS{}, func(any, transport.NodeID) {}); err != nil {
			t.Fatal(err)
		}
		if !virtualWait(v, 5*time.Second, func() bool { return len(pub.Subscribers()) == 1 }) {
			t.Fatal("the publisher never saw the subscription")
		}
		publish := func(from, n uint32) {
			for i := from; i < from+n; i++ {
				if err := pub.Publish(context.Background(), i); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
			}
		}
		publish(0, 5)
		before := counter(t, pubNode, "arq", "retransmits")
		publish(5, 100)
		if r := counter(t, pubNode, "arq", "retransmits") - before; r != 0 {
			t.Errorf("100 events after the first 5 retransmitted %d times on a loss-free 80 ms round trip", r)
		}
	})
}

// fragmentGate is a transport that loses every datagram carrying a
// fragment of index k or above: a message split into fragments reaches its
// peer only in part.
type fragmentGate struct {
	transport.Transport
	k int
}

func (g *fragmentGate) Send(to transport.NodeID, payload []byte) error {
	for _, f := range unbatch(payload) {
		if f.Type == protocol.MTFragment && len(f.Payload) >= 10 && int(binary.BigEndian.Uint16(f.Payload[8:])) >= g.k {
			return nil
		}
	}
	return g.Transport.Send(to, payload)
}

// TestRestartMidReassemblyDropsPartial: a peer sends 2 of the 5 reliable
// fragments of one message and crash-restarts. Once the receiver has
// admitted the new incarnation, and so forgotten the old one, it holds no
// partial message from the peer, rather than keeping it for the 5 s
// reassembly TTL.
func TestRestartMidReassemblyDropsPartial(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 35, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		recv := simVirtualNode(t, v, net, "recv")
		defer func() { _ = recv.Close() }()
		ep, err := net.Endpoint("sender")
		if err != nil {
			t.Fatal(err)
		}
		sender := virtualNode(t, v, &fragmentGate{Transport: ep, k: 2}, WithFailureDeadline(time.Minute))
		old := knownEpoch(t, v, recv, "sender")

		// MTFileCancel is dropped at the routing switch: no engine runs.
		f := &protocol.Frame{Type: protocol.MTFileCancel, Priority: qos.PriorityNormal, Channel: "big", Payload: make([]byte, 6000)}
		sender.SendReliable("recv", f, qos.ReliableARQ, nil)
		if !virtualWait(v, time.Second, func() bool { return recv.arq.Partials() == 1 }) {
			t.Fatalf("the receiver holds %d partial messages, want the sender's one", recv.arq.Partials())
		}

		sender = crashRestart(t, v, net, sender, "recv")
		defer func() { _ = sender.Close() }()
		waitNewEpoch(t, v, recv, "sender", old)
		if !virtualWait(v, 10*time.Millisecond, func() bool { return recv.arq.Partials() == 0 }) {
			t.Errorf("the receiver still holds %d partial messages of the sender's old incarnation", recv.arq.Partials())
		}
	})
}
