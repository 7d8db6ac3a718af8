package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// wifiProfile/radioProfile model the E14 bearer pair: a fat short-range
// low-latency pipe and a slow long-range robust modem.
var (
	wifiProfile  = qos.BearerProfile{RateBPS: 125_000, Latency: 5 * time.Millisecond, Robustness: 1}
	radioProfile = qos.BearerProfile{RateBPS: 31_250, Latency: 40 * time.Millisecond, Robustness: 10}
)

// newTwoBearerNode attaches id to both simulated networks and builds a
// node with wifi (given its profile) + radio bearers.
func newTwoBearerNode(t *testing.T, wifi, radio *transport.Bus, id transport.NodeID, wifiProf qos.BearerProfile) *Node {
	t.Helper()
	wep, err := wifi.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := radio.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(
		WithBearer("wifi", wep, wifiProf),
		WithBearer("radio", rep, radioProfile),
		WithAnnouncePeriod(25*time.Millisecond),
		WithFailureDeadline(100*time.Millisecond),
		WithARQ(protocol.WithMaxRetries(10)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestBearerConfigValidation(t *testing.T) {
	bus := transport.NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(); !errors.Is(err, ErrNoDatagram) {
		t.Errorf("no bearers: err = %v, want ErrNoDatagram", err)
	}
	if _, err := NewNode(WithBearer("x", a, qos.BearerProfile{}), WithBearer("x", a, qos.BearerProfile{})); !errors.Is(err, ErrBadBearer) {
		t.Errorf("duplicate names: err = %v, want ErrBadBearer", err)
	}
	if _, err := NewNode(WithBearer("x", a, qos.BearerProfile{}), WithBearer("y", b, qos.BearerProfile{})); !errors.Is(err, ErrBadBearer) {
		t.Errorf("mismatched node ids: err = %v, want ErrBadBearer", err)
	}
	if _, err := NewNode(WithBearer("", a, qos.BearerProfile{})); !errors.Is(err, ErrBadBearer) {
		t.Errorf("empty name: err = %v, want ErrBadBearer", err)
	}
}

// TestBearerRecordsAdvertised pins discovery-carried reachability: each
// node's offer includes one KindBearer record per datalink, visible in
// peers' directories.
func TestBearerRecordsAdvertised(t *testing.T) {
	wifi := transport.NewSimBus(transport.SimConfig{Seed: 1})
	defer wifi.Close()
	radio := transport.NewSimBus(transport.SimConfig{Seed: 2})
	defer radio.Close()
	uav := newTwoBearerNode(t, wifi, radio, "uav", wifiProfile)
	gs := newTwoBearerNode(t, wifi, radio, "gs", wifiProfile)

	waitUntil(t, 5*time.Second, "bearer records discovered", func() bool {
		return gs.Directory().ProviderCount(naming.KindBearer, "wifi") >= 2 &&
			gs.Directory().ProviderCount(naming.KindBearer, "radio") >= 2
	})
	// gs having heard uav says nothing about the opposite direction yet.
	waitUntil(t, 5*time.Second, "uav to learn gs's bearers", func() bool {
		return uav.Directory().ProviderCount(naming.KindBearer, "wifi") >= 2 &&
			uav.Directory().ProviderCount(naming.KindBearer, "radio") >= 2
	})
	names := uav.Bearers()
	if len(names) != 2 || names[0] != "wifi" || names[1] != "radio" {
		t.Errorf("Bearers() = %v", names)
	}
}

// TestCriticalPinsToRobustBearer pins the default policy: with both links
// healthy, critical events ride the robust radio while bulk-class frames
// ride the fat wifi pipe.
func TestCriticalPinsToRobustBearer(t *testing.T) {
	wifi := transport.NewSimBus(transport.SimConfig{Seed: 1})
	defer wifi.Close()
	radio := transport.NewSimBus(transport.SimConfig{Seed: 2})
	defer radio.Close()
	uav := newTwoBearerNode(t, wifi, radio, "uav", wifiProfile)
	newTwoBearerNode(t, wifi, radio, "gs", wifiProfile)
	// Knowing gs is not enough: uav may have heard it only on the radio,
	// and then the radio is rightly the one bearer that reaches it. The
	// premise is both links up, so wait until uav hears gs on each.
	waitUntil(t, 5*time.Second, "uav to hear gs on both bearers", func() bool {
		for _, rep := range uav.LinkReports() {
			if !rep.Healthy || rep.PeersHeard == 0 {
				return false
			}
		}
		return len(uav.Peers()) == 1
	})
	if got := uav.links.Unicast("gs", qos.PriorityCritical); got != "radio" {
		t.Errorf("critical bearer = %q, want radio", got)
	}
	if got := uav.links.Unicast("gs", qos.PriorityBulk); got != "wifi" {
		t.Errorf("bulk bearer = %q, want wifi", got)
	}
	if got := uav.links.Unicast("gs", qos.PriorityNormal); got != "wifi" {
		t.Errorf("normal bearer = %q, want wifi (lowest latency)", got)
	}
}

// TestEventsSurviveBearerBlackout is the core failover property: events
// bound to a bearer that blacks out mid-stream keep arriving — ARQ
// retransmissions re-select per the failover order, and the link monitor
// declares the bearer down within the failure deadline.
func TestEventsSurviveBearerBlackout(t *testing.T) {
	wifi := transport.NewSimBus(transport.SimConfig{Seed: 1, Latency: time.Millisecond})
	defer wifi.Close()
	radio := transport.NewSimBus(transport.SimConfig{Seed: 2, Latency: 5 * time.Millisecond})
	defer radio.Close()
	// A wifi more robust than the radio puts every class wifi-first, so the
	// blackout forces a real failover.
	robustWifi := wifiProfile
	robustWifi.Robustness = radioProfile.Robustness + 1
	uav := newTwoBearerNode(t, wifi, radio, "uav", robustWifi)
	gs := newTwoBearerNode(t, wifi, radio, "gs", robustWifi)

	alarmType := presentation.Uint32()
	alarmQoS := qos.EventQoS{Priority: qos.PriorityCritical}
	pub, err := uav.Events().Offer("alarm", "test", alarmType, alarmQoS)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Uint32
	waitUntil(t, 5*time.Second, "event discovered", func() bool {
		return gs.Directory().ProviderCount(naming.KindEvent, "alarm") >= 1
	})
	if _, err := gs.Events().Subscribe("alarm", alarmType, alarmQoS,
		func(v any, _ transport.NodeID) { got.Store(v.(uint32)) }); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "subscriber registered", func() bool {
		return len(pub.Subscribers()) == 1
	})

	publish := func(seq uint32) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := pub.Publish(ctx, seq); err != nil {
			t.Fatalf("publish %d: %v", seq, err)
		}
	}
	publish(1)
	waitUntil(t, 2*time.Second, "pre-blackout alarm", func() bool { return got.Load() == 1 })

	// Blackout wifi in both directions. The very next publish goes out on
	// the dead link, is retransmitted, and must complete over radio within
	// the ARQ budget — Publish returning nil is the delivery proof.
	wifi.Partition("uav", "gs")
	start := time.Now()
	publish(2)
	waitUntil(t, 2*time.Second, "post-blackout alarm", func() bool { return got.Load() == 2 })
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Errorf("failover took %v", elapsed)
	}

	// The monitor must declare wifi down within ~a failure deadline (plus
	// sweep granularity), while radio stays healthy.
	waitUntil(t, 3*time.Second, "wifi declared down", func() bool {
		for _, rep := range uav.LinkReports() {
			if rep.Name == "wifi" {
				return !rep.Healthy
			}
		}
		return false
	})
	for _, rep := range uav.LinkReports() {
		if rep.Name == "radio" && !rep.Healthy {
			t.Error("radio should remain healthy through the wifi blackout")
		}
	}
	// And fresh critical selection now avoids wifi.
	if got := uav.links.Unicast("gs", qos.PriorityCritical); got != "radio" {
		t.Errorf("critical bearer after blackout = %q, want radio", got)
	}

	// Heal: probes keep flowing on the dead bearer, so recovery is
	// detected and traffic fails back to the preferred wifi.
	wifi.Heal("uav", "gs")
	waitUntil(t, 5*time.Second, "wifi recovers", func() bool {
		return uav.links.Unicast("gs", qos.PriorityCritical) == "wifi"
	})
	publish(3)
	waitUntil(t, 2*time.Second, "post-heal alarm", func() bool { return got.Load() == 3 })
}

// countingTransport wraps a Transport and counts Close calls.
type countingTransport struct {
	transport.Transport
	closes atomic.Int32
}

func (c *countingTransport) Close() error {
	c.closes.Add(1)
	return c.Transport.Close()
}

// TestMultiBearerCloseClosesEveryTransportOnce pins shutdown: Close with
// several bearers closes every transport promptly and exactly once, twice
// Close stays idempotent, and the node's goroutines wind down (checked
// under -race by the harness).
func TestMultiBearerCloseClosesEveryTransportOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	// Three separate buses: one per bearer, same node id on each.
	eps := make([]*countingTransport, 3)
	var opts []NodeOption
	for i, name := range []string{"b0", "b1", "b2"} {
		ep, err := transport.NewBus().Endpoint("n")
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = &countingTransport{Transport: ep}
		opts = append(opts, WithBearer(name, eps[i], qos.BearerProfile{}))
	}
	opts = append(opts, WithAnnouncePeriod(10*time.Millisecond))
	n, err := NewNode(opts...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return promptly")
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for i, ep := range eps {
		if c := ep.closes.Load(); c != 1 {
			t.Errorf("bearer %d closed %d times, want exactly 1", i, c)
		}
	}
	// Goroutines must wind down to near the starting count (allow slack
	// for runtime background goroutines).
	waitUntil(t, 5*time.Second, "goroutines drained", func() bool {
		return runtime.NumGoroutine() <= before+3
	})
}
