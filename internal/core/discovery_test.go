package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// The incremental discovery plane: registrations multicast versioned
// deltas, the periodic beacon is a constant-size digest, and gaps repair
// through unicast anti-entropy sync. These tests pin the convergence
// properties under churn.

// offerN registers count variables "prefix.i" on node.
func offerN(t *testing.T, n *Node, prefix string, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("%s.%d", prefix, i)
		if _, err := n.Variables().Offer(name, "svc", gpsType, qos.VariableQoS{}); err != nil {
			t.Fatal(err)
		}
	}
}

// sees reports whether node resolves count records of every prefix.i name.
func seesAll(n *Node, prefix string, count int) bool {
	for i := 0; i < count; i++ {
		if n.Directory().ProviderCount(naming.KindVariable, fmt.Sprintf("%s.%d", prefix, i)) != 1 {
			return false
		}
	}
	return true
}

func TestRegistrationAnnouncesWithoutBeacon(t *testing.T) {
	// With a very long announce period, a new offer must still become
	// resolvable remotely — via the immediate delta, not the beacon.
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "pub", WithAnnouncePeriod(10*time.Second))
	sub := newBusNode(t, bus, "sub", WithAnnouncePeriod(10*time.Second))
	// Introduce both nodes first (a beacon tick is 10s away), so the
	// offer below can only propagate via the delta path.
	pub.AnnounceNow()
	sub.AnnounceNow()
	waitUntil(t, 2*time.Second, "startup announce", func() bool {
		return counter(t, pub, "discovery", "full_announces_sent") >= 1
	})

	start := time.Now()
	if _, err := pub.Variables().Offer("fast.var", "svc", gpsType, qos.VariableQoS{}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "delta-announced record", func() bool {
		return sub.Directory().ProviderCount(naming.KindVariable, "fast.var") == 1
	})
	if lat := time.Since(start); lat > time.Second {
		t.Errorf("discovery took %v; the delta path should need one hop, not a beacon period", lat)
	}
	if counter(t, pub, "discovery", "deltas_sent") == 0 {
		t.Error("no deltas sent")
	}
	if counter(t, sub, "discovery", "deltas_received") == 0 {
		t.Error("no deltas received")
	}
}

func TestLateJoinerConvergesViaSync(t *testing.T) {
	net := transport.NewSimBus(transport.SimConfig{Seed: 21, Latency: 200 * time.Microsecond})
	t.Cleanup(net.Close)
	a := newSimNode(t, net, "a")
	const records = 40
	offerN(t, a, "late", records)
	// Let a's startup full-state announce and registration deltas drain
	// before the joiner exists: it must miss all of them.
	waitUntil(t, 2*time.Second, "a's first beacons", func() bool {
		return counter(t, a, "discovery", "heartbeats_sent") >= 2
	})

	// The joiner has missed every delta; only digest-triggered sync can
	// deliver the full catalog.
	b := newSimNode(t, net, "b")
	waitUntil(t, 3*time.Second, "late joiner full catalog", func() bool {
		return seesAll(b, "late", records)
	})
	if counter(t, a, "discovery", "sync_requests_served") == 0 || counter(t, a, "discovery", "sync_delta_replies") != 0 {
		t.Error("late joiner converged without a snapshot sync")
	}
}

// TestLateJoinerSyncsFragmentedSnapshotUnderLoss: a snapshot reply too
// large for one datagram leaves as reliable fragments, each acknowledged
// on its own. On a link losing 10% of datagrams the joiner still installs
// the whole offer from one snapshot, and afterwards neither node has a send
// in flight nor a half-reassembled message.
func TestLateJoinerSyncsFragmentedSnapshotUnderLoss(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 24, Loss: 0.1, Latency: time.Millisecond, Clock: v})
		defer net.Close()
		ep, err := net.Endpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		aLog := newWireLog(ep)
		a := virtualNode(t, v, aLog)
		defer func() { _ = a.Close() }()
		const records = 200
		offerN(t, a, "big", records)
		// a introduces itself before the joiner exists: only a sync can
		// bring b the offer.
		v.Sleep(50 * time.Millisecond)
		aLog.reset()

		ep, err = net.Endpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		b := virtualNode(t, v, ep)
		defer func() { _ = b.Close() }()
		if !virtualWait(v, 5*time.Second, func() bool { return seesAll(b, "big", records) }) {
			t.Fatalf("joiner holds %d of a's %d records", b.Directory().NodeRecordCount("a"), records)
		}
		if !virtualWait(v, 5*time.Second, func() bool { return a.arq.Pending() == 0 && b.arq.Pending() == 0 }) {
			t.Fatalf("ARQ tables not empty: a %d, b %d", a.arq.Pending(), b.arq.Pending())
		}
		for _, n := range []*Node{a, b} {
			if pending := n.arq.Partials(); pending != 0 {
				t.Errorf("%s holds %d partial messages", n.ID(), pending)
			}
		}
		frags := aLog.sent(protocol.MTFragment)
		slices.Sort(frags)
		if n := len(slices.Compact(frags)); n < 5 {
			t.Errorf("the snapshot left in %d fragments, want at least 5", n)
		}
		// A lost fragment waits out its retransmission timeout, longer than
		// a period, so the joiner's next digests ask again; a coalesces
		// them into the snapshot already in flight.
		if served := counter(t, a, "discovery", "sync_requests_served"); served != 1 {
			t.Errorf("a served %d sync requests, want 1", served)
		}
		if deltas := counter(t, a, "discovery", "sync_delta_replies"); deltas != 0 {
			t.Errorf("a answered %d sync requests with a delta, want a snapshot", deltas)
		}
	})
}

func TestRestartWithNewEpochConverges(t *testing.T) {
	net := transport.NewSimBus(transport.SimConfig{Seed: 22, Latency: 200 * time.Microsecond})
	t.Cleanup(net.Close)
	a := newSimNode(t, net, "a")
	b := newSimNode(t, net, "b")
	offerN(t, a, "old", 5)
	waitUntil(t, 3*time.Second, "pre-restart catalog", func() bool {
		return seesAll(b, "old", 5)
	})

	// Restart "a": new container on the same id, new epoch, new offer.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2 := newSimNode(t, net, "a")
	offerN(t, a2, "new", 5)

	waitUntil(t, 3*time.Second, "post-restart catalog", func() bool {
		return seesAll(b, "new", 5)
	})
	// The fresh epoch must have displaced the previous incarnation's
	// records, not merged with them.
	waitUntil(t, 3*time.Second, "old records displaced", func() bool {
		for i := 0; i < 5; i++ {
			if b.Directory().ProviderCount(naming.KindVariable, fmt.Sprintf("old.%d", i)) != 0 {
				return false
			}
		}
		return true
	})
}

func TestPartitionHealConverges(t *testing.T) {
	net := transport.NewSimBus(transport.SimConfig{Seed: 23, Latency: 200 * time.Microsecond})
	t.Cleanup(net.Close)
	// Generous failure deadline so the partition outlives suspicion and
	// the heal exercises version-gap repair, not a fresh join.
	opts := []NodeOption{WithFailureDeadline(10 * time.Second)}
	a := newSimNode(t, net, "a", opts...)
	b := newSimNode(t, net, "b", opts...)
	c := newSimNode(t, net, "c", opts...)
	offerN(t, a, "base", 3)
	waitUntil(t, 3*time.Second, "baseline catalog", func() bool {
		return seesAll(b, "base", 3) && seesAll(c, "base", 3)
	})

	// Partition c away from a, register during the partition: c misses
	// the deltas.
	net.Partition("a", "c")
	offerN(t, a, "during", 3)
	waitUntil(t, 3*time.Second, "survivor sees partition-time offers", func() bool {
		return seesAll(b, "during", 3)
	})
	if seesAll(c, "during", 3) {
		t.Fatal("partitioned node saw offers through the partition")
	}

	// Heal: the next digest exposes the version gap; c must pull the
	// full set within a bounded number of heartbeats.
	net.Heal("a", "c")
	healed := time.Now()
	waitUntil(t, 3*time.Second, "healed catalog", func() bool {
		return seesAll(c, "during", 3) && seesAll(c, "base", 3)
	})
	// Bounded convergence: a handful of beacon periods, not the TTL.
	if lat := time.Since(healed); lat > 10*25*time.Millisecond {
		t.Errorf("heal convergence took %v, want within ~10 heartbeats", lat)
	}
	// The gap spans few versions, so the sync request is answered with a
	// compact catch-up delta, not a snapshot.
	if counter(t, c, "discovery", "sync_requests_sent") == 0 {
		t.Error("heal did not use anti-entropy sync")
	}
	if counter(t, a, "discovery", "sync_delta_replies") == 0 {
		t.Error("small gap not served as a catch-up delta")
	}
}

func TestWithdrawalPropagates(t *testing.T) {
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "pub")
	sub := newBusNode(t, bus, "sub")

	p, err := pub.Variables().Offer("tmp.var", "svc", gpsType, qos.VariableQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.RPC().Register("tmp.fn", "svc", nil, presentation.String_(), qos.CallQoS{},
		func(any) (any, error) { return "x", nil }); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "offers visible", func() bool {
		return sub.Directory().ProviderCount(naming.KindVariable, "tmp.var") == 1 &&
			sub.Directory().ProviderCount(naming.KindFunction, "tmp.fn") == 1
	})

	p.Close()
	pub.RPC().Unregister("tmp.fn")
	waitUntil(t, 2*time.Second, "withdrawals visible", func() bool {
		return sub.Directory().ProviderCount(naming.KindVariable, "tmp.var") == 0 &&
			sub.Directory().ProviderCount(naming.KindFunction, "tmp.fn") == 0
	})
}

func TestHeartbeatKeepsRecordsAliveWithoutTraffic(t *testing.T) {
	// With deltas only at registration time, steady state depends on the
	// digest refreshing TTLs: records must survive many TTL windows.
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "pub") // 25ms period → 150ms TTL
	sub := newBusNode(t, bus, "sub")
	offerN(t, pub, "keep", 2)
	waitUntil(t, 2*time.Second, "records visible", func() bool {
		return seesAll(sub, "keep", 2)
	})
	time.Sleep(500 * time.Millisecond) // > 3 TTL windows, no offer changes
	if !seesAll(sub, "keep", 2) {
		t.Fatal("records expired despite heartbeats")
	}
	if counter(t, sub, "discovery", "heartbeats_received") == 0 {
		t.Error("no heartbeats received")
	}
}

func TestMalformedDiscoveryFramesAreCounted(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "n")
	ep, err := bus.Endpoint("rogue")
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range []protocol.MsgType{
		protocol.MTHeartbeat, protocol.MTAnnounceDelta, protocol.MTSyncReq, protocol.MTAnnounce,
	} {
		raw, err := protocol.EncodeFrame(&protocol.Frame{Type: mt, Seq: 1, Payload: []byte{0xFF, 0xEE}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Send("n", raw); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 2*time.Second, "malformed counters", func() bool {
		return counter(t, n, "discovery", "errors", metrics.L("category", uerr.CatDecode.String())) >= 4
	})
}
