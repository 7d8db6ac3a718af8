package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

var mcastEventQoS = qos.EventQoS{Delivery: qos.DeliverMulticast}

// TestMulticastEventNackRepairUnderLoss is the E3 reliability criterion:
// group-addressed occurrences dropped by the network are detected as
// sequence gaps and recovered through NACK-triggered unicast
// retransmissions from the publisher's replay buffer.
func TestMulticastEventNackRepairUnderLoss(t *testing.T) {
	net := transport.NewSimBus(transport.SimConfig{Loss: 0.15, Seed: 77, Latency: time.Millisecond})
	defer net.Close()
	pub := newSimNode(t, net, "uav")
	sub := newSimNode(t, net, "gs")
	syncNodes(t, pub, sub)

	p, err := pub.Events().Offer("telemetry.burst", "mc", presentation.Uint32(), mcastEventQoS)
	if err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	waitUntil(t, 3*time.Second, "event record", func() bool {
		return sub.Directory().ProviderCount(naming.KindEvent, "telemetry.burst") == 1
	})

	var (
		mu  sync.Mutex
		got = make(map[uint32]bool)
	)
	s, err := sub.Events().Subscribe("telemetry.burst", presentation.Uint32(), mcastEventQoS,
		func(v any, _ transport.NodeID) {
			mu.Lock()
			got[v.(uint32)] = true
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "subscriber registration", func() bool {
		return len(p.Subscribers()) == 1
	})

	// This test's subject is per-occurrence loss and repair: each
	// occurrence goes out before the next is published, so none coalesce
	// and the seeded loss pattern hits individual sequence numbers.
	const n = 40
	ctx := context.Background()
	for i := 1; i <= n; i++ {
		if err := p.Publish(ctx, uint32(i)); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
		pub.FlushEgress()
	}
	// Tail losses are only detectable when a later occurrence arrives;
	// keep a trickle of follow-on occurrences flowing until every one of
	// the first n is recovered.
	deadline := time.Now().Add(20 * time.Second)
	flush := n
	for {
		mu.Lock()
		have := 0
		for i := 1; i <= n; i++ {
			if got[uint32(i)] {
				have++
			}
		}
		mu.Unlock()
		if have == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d occurrences recovered", have, n)
		}
		flush++
		if err := p.Publish(ctx, uint32(flush)); err != nil {
			t.Fatalf("flush publish: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// At 15% loss the recovery must actually have exercised the repair
	// path, not gotten lucky.
	detected, repaired := s.Gaps()
	if detected == 0 || repaired == 0 {
		t.Errorf("gaps detected/repaired = %d/%d, want both > 0", detected, repaired)
	}
	if p.Repairs() == 0 {
		t.Error("publisher performed no NACK repairs")
	}
}

// TestMulticastEventFanoutWireCost verifies the §4.1 bandwidth property on
// the event primitive: one occurrence is one wire packet however many nodes
// subscribe.
func TestMulticastEventFanoutWireCost(t *testing.T) {
	net := transport.NewSimBus(transport.SimConfig{Seed: 3, Latency: time.Millisecond})
	defer net.Close()
	pub := newSimNode(t, net, "uav")
	const nSubs = 4
	subs := make([]*Node, nSubs)
	for i := range subs {
		subs[i] = newSimNode(t, net, transport.NodeID("gs"+string(rune('0'+i))))
	}
	syncNodes(t, append([]*Node{pub}, subs...)...)

	p, err := pub.Events().Offer("alarm", "mc", presentation.Uint32(), mcastEventQoS)
	if err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	counts := make([]*countingHandler, nSubs)
	for i, sn := range subs {
		sn := sn
		waitUntil(t, 3*time.Second, "event record", func() bool {
			return sn.Directory().ProviderCount(naming.KindEvent, "alarm") == 1
		})
		h := &countingHandler{}
		counts[i] = h
		if _, err := sn.Events().Subscribe("alarm", presentation.Uint32(), mcastEventQoS, h.handle); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 3*time.Second, "all registered", func() bool {
		return len(p.Subscribers()) == nSubs
	})

	time.Sleep(50 * time.Millisecond) // quiet window
	net.ResetWireStats()
	const occurrences = 20
	ctx := context.Background()
	for i := 0; i < occurrences; i++ {
		if err := p.Publish(ctx, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, "all delivered", func() bool {
		for _, h := range counts {
			if h.count() < occurrences {
				return false
			}
		}
		return true
	})
	packets, _, _ := net.WireStats()
	// Unicast ARQ fan-out would cost >= occurrences*nSubs*2 packets
	// (data + ack). Group addressing must stay well below that;
	// concurrent announce chatter adds a handful.
	if packets >= occurrences*nSubs {
		t.Errorf("wire packets = %d for %d occurrences to %d subscribers; group send is not saving bandwidth",
			packets, occurrences, nSubs)
	}
}

type countingHandler struct {
	mu sync.Mutex
	n  int
}

func (h *countingHandler) handle(any, transport.NodeID) {
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
}

func (h *countingHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}
