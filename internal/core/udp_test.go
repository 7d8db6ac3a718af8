package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/fabric"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// groupTap is a UDP transport that counts the packets it delivers to the
// node of one group and from one sender. Embedding the pointer keeps every
// capability the node looks for (PeerBook, Addressable, Multicaster).
type groupTap struct {
	*transport.UDP
	group string
	from  transport.NodeID
	seen  atomic.Int64 // packets of group delivered to the node
	heard atomic.Int64 // packets from from delivered to the node
}

func (g *groupTap) SetHandler(h transport.Handler) {
	g.UDP.SetHandler(func(pkt transport.Packet) {
		if pkt.Group == g.group {
			g.seen.Add(1)
		}
		if pkt.From == g.from {
			g.heard.Add(1)
		}
		h(pkt)
	})
}

// newUDPNodes builds one node per id over UDP loopback sockets in unicast
// fan-out mode, the cmd/uavnode and cmd/uavmission deployment, each knowing
// every other's address. Each transport is tapped for group and the first
// node's packets. It skips when the host has no UDP.
func newUDPNodes(t *testing.T, group string, ids ...transport.NodeID) ([]*Node, []*groupTap) {
	t.Helper()
	taps := make([]*groupTap, len(ids))
	for i, id := range ids {
		u, err := transport.NewUDP(id, "127.0.0.1:0", nil, transport.WithUnicastFanout())
		if err != nil {
			for _, tap := range taps[:i] {
				_ = tap.Close()
			}
			t.Skipf("udp unavailable: %v", err)
		}
		taps[i] = &groupTap{UDP: u, group: group, from: ids[0]}
	}
	for _, a := range taps {
		for _, b := range taps {
			if a != b {
				if err := a.AddPeer(b.Node(), b.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	nodes := make([]*Node, len(ids))
	for i, tap := range taps {
		n, err := NewNode(
			WithDatagram(tap),
			WithAnnouncePeriod(25*time.Millisecond),
		)
		if err != nil {
			_ = tap.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[i] = n
	}
	return nodes, taps
}

// TestNodesOverUDPLoopback runs the four paths a node takes over a real
// UDP transport (egress lane, one datagram per write, read loop, ingress):
// a critical reliable event is acknowledged, an RPC returns, a variable
// sample arrives, and a group event reaches only the node that joined its
// group, although fan-out sends it to every peer.
func TestNodesOverUDPLoopback(t *testing.T) {
	const burst = "mission.burst"
	nodes, taps := newUDPNodes(t, fabric.EventGroup(burst), "uav", "gs", "obs")
	uav, gs, obs := nodes[0], nodes[1], nodes[2]
	syncNodes(t, uav, gs, obs)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	t.Run("critical event acknowledged", func(t *testing.T) {
		alarmQoS := qos.EventQoS{Priority: qos.PriorityCritical}
		pub, err := uav.Events().Offer("alarm", "mc", presentation.Uint32(), alarmQoS)
		if err != nil {
			t.Fatal(err)
		}
		uav.AnnounceNow()
		waitUntil(t, 2*time.Second, "event record", func() bool {
			return gs.Directory().ProviderCount(naming.KindEvent, "alarm") == 1
		})
		var got atomic.Uint32
		if _, err := gs.Events().Subscribe("alarm", presentation.Uint32(), alarmQoS,
			func(v any, _ transport.NodeID) { got.Store(v.(uint32)) }); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 2*time.Second, "publisher learns subscriber", func() bool {
			return len(pub.Subscribers()) == 1
		})
		acked := counter(t, uav, "arq", "acked")
		// A reliable Publish returns nil only once the subscriber acked.
		if err := pub.Publish(ctx, uint32(7)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		waitUntil(t, 2*time.Second, "alarm handler", func() bool { return got.Load() == 7 })
		if n := counter(t, uav, "arq", "acked"); n <= acked {
			t.Errorf("arq.acked = %d after the publish, want above %d", n, acked)
		}
	})

	t.Run("rpc returns", func(t *testing.T) {
		retT := presentation.Int32()
		if err := gs.RPC().Register("math.double", "calc", retT, retT, qos.CallQoS{},
			func(arg any) (any, error) { return 2 * arg.(int32), nil }); err != nil {
			t.Fatal(err)
		}
		gs.AnnounceNow()
		waitUntil(t, 2*time.Second, "function record", func() bool {
			return uav.Directory().ProviderCount(naming.KindFunction, "math.double") == 1
		})
		got, err := uav.RPC().Call(ctx, "math.double", int32(21), retT, retT, qos.CallQoS{})
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		if got != int32(42) {
			t.Errorf("Call = %v, want 42", got)
		}
	})

	t.Run("variable sample arrives", func(t *testing.T) {
		p, err := uav.Variables().Offer("gps.position", "gps", gpsType, qos.VariableQoS{Validity: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		uav.AnnounceNow()
		s, err := gs.Variables().Subscribe("gps.position", gpsType, variables.SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		waitUntil(t, 2*time.Second, "sample delivery", func() bool {
			if err := p.Publish(gpsValue(41.5)); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			v, _, err := s.Get()
			return err == nil && v.(map[string]any)["lat"] == 41.5
		})
	})

	t.Run("group event reaches only the joined peer", func(t *testing.T) {
		pub, err := uav.Events().Offer(burst, "mc", presentation.Uint32(), mcastEventQoS)
		if err != nil {
			t.Fatal(err)
		}
		uav.AnnounceNow()
		waitUntil(t, 2*time.Second, "event record", func() bool {
			return gs.Directory().ProviderCount(naming.KindEvent, burst) == 1
		})
		var got atomic.Uint32
		if _, err := gs.Events().Subscribe(burst, presentation.Uint32(), mcastEventQoS,
			func(v any, _ transport.NodeID) { got.Store(v.(uint32)) }); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 2*time.Second, "publisher learns subscriber", func() bool {
			return len(pub.Subscribers()) == 1
		})
		if err := pub.Publish(ctx, uint32(9)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		waitUntil(t, 2*time.Second, "group event handler", func() bool { return got.Load() == 9 })
		if n := taps[1].seen.Load(); n == 0 {
			t.Error("gs delivered no packet of the event group")
		}
		// Fan-out wrote a copy to obs too. Once obs delivers a packet uav
		// wrote after it, its read loop has been past that copy.
		uav.FlushEgress()
		heard := taps[2].heard.Load()
		waitUntil(t, 2*time.Second, "obs to hear uav again", func() bool { return taps[2].heard.Load() > heard })
		if n := taps[2].seen.Load(); n != 0 {
			t.Errorf("obs, which never joined, delivered %d packets of the event group", n)
		}
	})
}
