package core

import (
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

// An event subscription binds when its container applies the publisher's
// offer, and rebinds when its publisher departs, rather than on the
// subscriber's next beacon. These tests run on a sim bus with 1 ms latency
// under the virtual clock, with a 200 ms announce period, and hold each
// binding to a few link latencies after the event that enables it.

const (
	bindPeriod  = 200 * time.Millisecond
	bindLatency = time.Millisecond
	// bindBound is how long after the enabling event the publisher may
	// first hold the subscriber: the event's hop, the MTSubscribe's hop,
	// and slack for the receive pipeline.
	bindBound = 4 * bindLatency
)

// bindNode attaches a container for id to net under v, beaconing every
// bindPeriod from the current instant.
func bindNode(t *testing.T, v *clock.Virtual, net *transport.Bus, id transport.NodeID) *Node {
	t.Helper()
	return simVirtualNode(t, v, net, id, WithAnnouncePeriod(bindPeriod))
}

// offerAlarm offers the reliable event topic "alarm" on n.
func offerAlarm(t *testing.T, n *Node) *events.Publisher {
	t.Helper()
	p, err := n.Events().Offer("alarm", "svc", presentation.Uint32(), qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// subscribeAlarm subscribes n to "alarm".
func subscribeAlarm(t *testing.T, n *Node) {
	t.Helper()
	if _, err := n.Events().Subscribe("alarm", presentation.Uint32(), qos.EventQoS{},
		func(any, transport.NodeID) {}); err != nil {
		t.Fatal(err)
	}
}

// waitSubscribed waits until p holds one subscriber and fails the test
// unless that took at most bindBound from since.
func waitSubscribed(t *testing.T, v *clock.Virtual, p *events.Publisher, since time.Time) {
	t.Helper()
	if !virtualWait(v, 2*bindPeriod, func() bool { return len(p.Subscribers()) == 1 }) {
		t.Fatal("the publisher never saw the subscription")
	}
	if took := v.Now().Sub(since); took > bindBound {
		t.Errorf("the publisher saw the subscription %v after it could, want at most %v", took, bindBound)
	}
}

// sleepToPhase sleeps until phase past the next beacon of a node that
// started beaconing at start.
func sleepToPhase(v *clock.Virtual, start time.Time, phase time.Duration) {
	v.Sleep(bindPeriod - v.Now().Sub(start)%bindPeriod + phase)
}

// TestSubscriptionBindsOnIntroduction: a subscription made before any
// publisher is known registers when the publisher's introduction arrives,
// a quarter period before the subscriber's next beacon.
func TestSubscriptionBindsOnIntroduction(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 41, Latency: bindLatency, Clock: v})
		defer net.Close()
		sub := bindNode(t, v, net, "sub")
		defer func() { _ = sub.Close() }()
		subscribeAlarm(t, sub)
		v.Sleep(bindPeriod / 4)

		pubNode := bindNode(t, v, net, "pub")
		defer func() { _ = pubNode.Close() }()
		pub := offerAlarm(t, pubNode)
		at := v.Now()
		pubNode.AnnounceNow()
		waitSubscribed(t, v, pub, at)
	})
}

// TestSubscriptionBindsToRestartedPublisher: a publisher crash-restarts
// inside the failure deadline. Its new incarnation starts with no
// subscribers and hears the subscription again one hop after its
// introduction, not at the subscriber's next beacon.
func TestSubscriptionBindsToRestartedPublisher(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 42, Latency: bindLatency, Clock: v})
		defer net.Close()
		start := v.Now()
		sub := bindNode(t, v, net, "sub")
		defer func() { _ = sub.Close() }()
		subscribeAlarm(t, sub)
		pubNode := bindNode(t, v, net, "pub")
		pub := offerAlarm(t, pubNode)
		pubNode.AnnounceNow()
		if !virtualWait(v, 2*bindPeriod, func() bool { return len(pub.Subscribers()) == 1 }) {
			t.Fatal("the first incarnation never saw the subscription")
		}
		old := knownEpoch(t, v, sub, "pub")

		sleepToPhase(v, start, bindPeriod/4)
		pubNode = crashRestart(t, v, net, pubNode, "sub", WithAnnouncePeriod(bindPeriod))
		defer func() { _ = pubNode.Close() }()
		pub = offerAlarm(t, pubNode)
		at := v.Now()
		pubNode.AnnounceNow()
		waitNewEpoch(t, v, sub, "pub", old)
		waitSubscribed(t, v, pub, at)
	})
}

// TestSubscriptionBindsOnFailover: with two publishers of a topic, the
// subscription is bound to one. When that one departs, the subscription
// registers with the other at the instant the subscriber declares the
// first gone.
func TestSubscriptionBindsOnFailover(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 43, Latency: bindLatency, Clock: v})
		defer net.Close()
		sub := bindNode(t, v, net, "sub")
		defer func() { _ = sub.Close() }()
		nodes := map[transport.NodeID]*Node{}
		pubs := map[transport.NodeID]*events.Publisher{}
		for _, id := range []transport.NodeID{"p1", "p2"} {
			nodes[id] = bindNode(t, v, net, id)
			pubs[id] = offerAlarm(t, nodes[id])
			nodes[id].AnnounceNow()
		}
		defer func() {
			for _, n := range nodes {
				_ = n.Close()
			}
		}()
		if !virtualWait(v, bindPeriod, func() bool {
			return sub.Directory().ProviderCount(naming.KindEvent, "alarm") == 2
		}) {
			t.Fatal("the subscriber never saw both publishers")
		}
		var goneAt atomic.Int64
		sub.OnPeerFailed(func(transport.NodeID) { goneAt.Store(v.Now().UnixNano()) })
		subscribeAlarm(t, sub)
		if !virtualWait(v, bindPeriod/4, func() bool {
			return len(pubs["p1"].Subscribers())+len(pubs["p2"].Subscribers()) == 1
		}) {
			t.Fatal("the subscription did not bind to exactly one publisher")
		}
		bound, survivor := transport.NodeID("p1"), transport.NodeID("p2")
		if len(pubs[survivor].Subscribers()) == 1 {
			bound, survivor = survivor, bound
		}

		_ = nodes[bound].Close() // its goodbye reaches the subscriber
		delete(nodes, bound)
		if !virtualWait(v, bindPeriod/4, func() bool { return goneAt.Load() != 0 }) {
			t.Fatalf("the subscriber never declared %s gone", bound)
		}
		waitSubscribed(t, v, pubs[survivor], time.Unix(0, goneAt.Load()))
	})
}

// TestIdleSubscriptionLeasesOncePerPeriod: a bound, idle publisher and
// subscriber run for 20 periods. The subscriber sends one MTSubscribe per
// subscription per period, its lease, and the heartbeat digests it hears
// meanwhile add none.
func TestIdleSubscriptionLeasesOncePerPeriod(t *testing.T) {
	const periods = 20
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 44, Latency: bindLatency, Clock: v})
		defer net.Close()
		ep, err := net.Endpoint("sub")
		if err != nil {
			t.Fatal(err)
		}
		subLog := newWireLog(ep)
		start := v.Now()
		sub := virtualNode(t, v, subLog, WithAnnouncePeriod(bindPeriod))
		defer func() { _ = sub.Close() }()
		pubNode := bindNode(t, v, net, "pub")
		defer func() { _ = pubNode.Close() }()
		topics := []string{"alarm", "arrival"}
		var pubs []*events.Publisher
		for _, topic := range topics {
			p, err := pubNode.Events().Offer(topic, "svc", nil, qos.EventQoS{})
			if err != nil {
				t.Fatal(err)
			}
			pubs = append(pubs, p)
			if _, err := sub.Events().Subscribe(topic, nil, qos.EventQoS{}, func(any, transport.NodeID) {}); err != nil {
				t.Fatal(err)
			}
		}
		pubNode.AnnounceNow()
		if !virtualWait(v, 2*bindPeriod, func() bool {
			return len(pubs[0].Subscribers()) == 1 && len(pubs[1].Subscribers()) == 1
		}) {
			t.Fatal("the publisher never saw both subscriptions")
		}

		sleepToPhase(v, start, bindPeriod/2)
		subLog.reset()
		digests := counter(t, sub, "discovery", "heartbeats_received")
		v.Sleep(periods * bindPeriod)
		if got := counter(t, sub, "discovery", "heartbeats_received") - digests; got < periods-1 {
			t.Fatalf("the subscriber heard %d digests in %d periods", got, periods)
		}
		if got, want := len(subLog.sent(protocol.MTSubscribe)), periods*len(topics); got != want {
			t.Errorf("the subscriber sent %d MTSubscribes in %d periods for %d subscriptions, want %d",
				got, periods, len(topics), want)
		}
	})
}
