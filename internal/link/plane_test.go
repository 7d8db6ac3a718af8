package link

import (
	"reflect"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/fabric"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// bookTransport is the slice of a transport the plane touches: an address
// book and, optionally, a dialable address.
type bookTransport struct {
	transport.Transport
	local string
	book  map[transport.NodeID]string
}

func (b *bookTransport) LocalAddr() string { return b.local }
func (b *bookTransport) AddPeer(id transport.NodeID, addr string) error {
	b.book[id] = addr
	return nil
}
func (b *bookTransport) RemovePeer(id transport.NodeID) { delete(b.book, id) }

// probeSent is one frame the plane asked the container to transmit.
type probeSent struct {
	bearer string
	to     transport.NodeID
	typ    protocol.MsgType
	nonce  []byte
}

// testPlane is a wifi+radio plane (the E14 pair: fat and near, slow and
// robust) on a virtual clock, with its sends and reroutes recorded.
type testPlane struct {
	*Plane
	clk         *clock.Virtual
	dir         *naming.Directory
	wifi, radio *bookTransport
	sent        []probeSent
	rerouted    []string
}

const (
	testDeadline = 100 * time.Millisecond
	testPeriod   = 25 * time.Millisecond
)

func newTestPlane() *testPlane {
	tp := &testPlane{
		clk:   clock.NewVirtualAt(t0),
		dir:   naming.NewDirectory(time.Minute),
		wifi:  &bookTransport{local: "wifi-self:1", book: map[transport.NodeID]string{}},
		radio: &bookTransport{local: "radio-self:1", book: map[transport.NodeID]string{}},
	}
	tp.Plane = NewPlane(PlaneConfig{
		Self:      "uav",
		Clock:     tp.clk,
		Directory: tp.dir,
		Deadline:  testDeadline,
		Period:    testPeriod,
		Send: func(bearer string, to transport.NodeID, f *protocol.Frame) {
			tp.sent = append(tp.sent, probeSent{bearer, to, f.Type, append([]byte(nil), f.Payload...)})
		},
		Reroute: func(bearer string) { tp.rerouted = append(tp.rerouted, bearer) },
	}, []*Bearer{
		{Name: "wifi", Transport: tp.wifi, Profile: qos.BearerProfile{RateBPS: 125_000, Latency: 5 * time.Millisecond, Robustness: 1}},
		{Name: "radio", Transport: tp.radio, Profile: qos.BearerProfile{RateBPS: 31_250, Latency: 40 * time.Millisecond, Robustness: 10}},
	})
	return tp
}

// offer installs peer's bearer records (name → address) in the directory
// as its accepted offer at the given version, then tells the plane.
func (tp *testPlane) offer(peer transport.NodeID, version uint64, bearers map[string]string) {
	ann := &naming.Announcement{Node: peer, Epoch: 1, Version: version}
	for name, addr := range bearers {
		ann.Records = append(ann.Records, naming.Record{Kind: naming.KindBearer, Name: name, Service: addr, Node: peer})
	}
	tp.dir.Apply(ann, tp.clk.Now())
	tp.PeerChanged(peer)
}

func TestRecordsAdvertiseEveryBearer(t *testing.T) {
	tp := newTestPlane()
	want := []naming.Record{
		{Kind: naming.KindBearer, Name: "wifi", Service: "wifi-self:1", Node: "uav"},
		{Kind: naming.KindBearer, Name: "radio", Service: "radio-self:1", Node: "uav"},
	}
	if got := tp.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("Records() = %+v, want %+v", got, want)
	}
}

// TestUnicastPolicyHealthReachability walks selection down its preference
// ladder: healthy and reachable, reachable only, healthy only, the class's
// primary.
func TestUnicastPolicyHealthReachability(t *testing.T) {
	tp := newTestPlane()
	tp.clk.Run(func() {
		// Nothing known about gs, both bearers optimistically healthy: policy.
		if got := tp.Unicast("gs", qos.PriorityCritical); got != "radio" {
			t.Errorf("critical = %q, want radio (most robust)", got)
		}
		if got := tp.Unicast("gs", qos.PriorityBulk); got != "wifi" {
			t.Errorf("bulk = %q, want wifi (fattest)", got)
		}
		if got := tp.Unicast("gs", qos.Priority(99)); got != tp.Unicast("gs", qos.PriorityNormal) {
			t.Errorf("out-of-range priority = %q, want the normal class's choice", got)
		}

		// gs advertises wifi only: reachable beats merely healthy.
		tp.offer("gs", 1, map[string]string{"wifi": "wifi-gs:1"})
		if got := tp.Unicast("gs", qos.PriorityCritical); got != "wifi" {
			t.Errorf("critical to a wifi-only peer = %q, want wifi", got)
		}
		// Heard on radio too: back to policy.
		tp.Bearers()[1].Monitor.SawRx("gs", tp.clk.Now())
		if got := tp.Unicast("gs", qos.PriorityCritical); got != "radio" {
			t.Errorf("critical to a peer heard on radio = %q, want radio", got)
		}

		// Both bearers silent past the deadline, gs still advertised on wifi:
		// a down link the peer is on beats a down link it is not.
		tp.clk.Sleep(testDeadline + time.Millisecond)
		if got := tp.Unicast("gs", qos.PriorityCritical); got != "wifi" {
			t.Errorf("critical with every bearer down = %q, want wifi (advertised)", got)
		}
		// Radio comes back but gs is not on it; wifi down but gs is.
		tp.Bearers()[1].Monitor.SawRx("other", tp.clk.Now())
		if got := tp.Unicast("gs", qos.PriorityCritical); got != "wifi" {
			t.Errorf("critical = %q, want wifi: reachable-but-down beats healthy-but-unreachable", got)
		}
		if got := tp.Unicast("stranger", qos.PriorityBulk); got != "radio" {
			t.Errorf("bulk to an unknown peer = %q, want radio (the only healthy bearer)", got)
		}
	})
}

func TestGroupDiscoveryRidesEveryBearerDataRidesOne(t *testing.T) {
	tp := newTestPlane()
	tp.clk.Run(func() {
		if got := tp.Group(fabric.DiscoveryGroup, qos.PriorityNormal); !reflect.DeepEqual(got, []string{"wifi", "radio"}) {
			t.Errorf("discovery group rides %v, want every bearer", got)
		}
		if got := tp.Group("v:gps", qos.PriorityBulk); !reflect.DeepEqual(got, []string{"wifi"}) {
			t.Errorf("bulk data group rides %v, want [wifi]", got)
		}
		tp.clk.Sleep(testDeadline + time.Millisecond)
		tp.Bearers()[1].Monitor.SawRx("gs", tp.clk.Now())
		if got := tp.Group("v:gps", qos.PriorityBulk); !reflect.DeepEqual(got, []string{"radio"}) {
			t.Errorf("bulk data group with wifi down rides %v, want [radio]", got)
		}
	})
}

// TestPeerChangedFollowsTheDirectory: address books and advertised
// reachability are whatever the directory holds for the peer — added,
// moved, withdrawn — and a peer that is gone is forgotten everywhere.
func TestPeerChangedFollowsTheDirectory(t *testing.T) {
	tp := newTestPlane()
	tp.offer("gs", 1, map[string]string{"wifi": "wifi-gs:1", "radio": "radio-gs:1", "satcom": "sat-gs:1"})
	if tp.wifi.book["gs"] != "wifi-gs:1" || tp.radio.book["gs"] != "radio-gs:1" {
		t.Fatalf("address books = %v / %v", tp.wifi.book, tp.radio.book)
	}
	// The wifi endpoint moves and radio is withdrawn.
	tp.offer("gs", 2, map[string]string{"wifi": "wifi-gs:2"})
	if tp.wifi.book["gs"] != "wifi-gs:2" {
		t.Errorf("wifi book has gs at %q, want the re-advertised wifi-gs:2", tp.wifi.book["gs"])
	}
	if _, still := tp.radio.book["gs"]; still || tp.advertises("gs", "radio") {
		t.Error("withdrawn radio bearer still in the address book or the reach cache")
	}
	// An offer the directory rejects changes nothing, hook or no hook.
	tp.offer("gs", 1, map[string]string{"radio": "radio-stale:1"})
	if _, back := tp.radio.book["gs"]; back || tp.wifi.book["gs"] != "wifi-gs:2" {
		t.Errorf("stale offer moved the address books: %v / %v", tp.wifi.book, tp.radio.book)
	}
	// The plane's own records never feed its books.
	tp.offer("uav", 1, map[string]string{"wifi": "wifi-self:1"})
	if _, self := tp.wifi.book["uav"]; self {
		t.Error("plane installed an address for its own node")
	}

	tp.Bearers()[0].Monitor.SawRx("gs", tp.clk.Now())
	tp.dir.RemoveNode("gs")
	tp.PeerGone("gs")
	if len(tp.wifi.book) != 0 || tp.advertises("gs", "wifi") || tp.Bearers()[0].Monitor.PeerKnown("gs") {
		t.Errorf("gone peer left behind: book %v, advertised %v, known %v",
			tp.wifi.book, tp.advertises("gs", "wifi"), tp.Bearers()[0].Monitor.PeerKnown("gs"))
	}
}

// TestSweepProbesQuietBearersAndReroutesOnce: a bearer silent for a period
// is probed towards the peers expected on it, at most once per period; the
// echo proves it alive; a bearer that stays silent past the deadline has
// its queue rerouted exactly once per outage.
func TestSweepProbesQuietBearersAndReroutesOnce(t *testing.T) {
	tp := newTestPlane()
	tp.clk.Run(func() {
		tp.offer("gs", 1, map[string]string{"wifi": "wifi-gs:1"})
		peers := func() []transport.NodeID { return []transport.NodeID{"gs", "stranger"} }

		tp.Sweep(peers)
		if len(tp.sent) != 0 {
			t.Fatalf("fresh bearers probed: %+v", tp.sent)
		}
		tp.clk.Sleep(testPeriod)
		tp.Sweep(peers)
		// gs is expected on wifi only (advertised); stranger on neither.
		if len(tp.sent) != 1 || tp.sent[0].bearer != "wifi" || tp.sent[0].to != "gs" || tp.sent[0].typ != protocol.MTProbe {
			t.Fatalf("sweep of quiet bearers sent %+v, want one MTProbe to gs on wifi", tp.sent)
		}
		tp.Sweep(peers)
		if len(tp.sent) != 1 {
			t.Fatalf("second sweep in the same period probed again: %+v", tp.sent)
		}

		// gs answers: the echo carries the nonce back on the same bearer.
		probe := tp.sent[0]
		tp.HandleProbe("wifi", "gs", &protocol.Frame{Type: protocol.MTProbe, Payload: probe.nonce})
		echo := tp.sent[len(tp.sent)-1]
		if echo.typ != protocol.MTProbeEcho || echo.bearer != "wifi" || echo.to != "gs" || string(echo.nonce) != string(probe.nonce) {
			t.Fatalf("probe answered with %+v", echo)
		}
		tp.clk.Sleep(3 * time.Millisecond)
		tp.HandleProbeEcho("wifi", &protocol.Frame{Type: protocol.MTProbeEcho, Payload: probe.nonce})
		if rep := tp.Reports()[0]; rep.Name != "wifi" || rep.ProbesEchoed != 1 || rep.RTT != 3*time.Millisecond {
			t.Errorf("wifi report after the echo = %+v", rep)
		}
		tp.HandleProbeEcho("nosuch", &protocol.Frame{Payload: probe.nonce}) // unknown bearer: ignored
		tp.HandleProbeEcho("wifi", &protocol.Frame{Payload: []byte{1}})     // truncated nonce: ignored

		// Nothing is ever received: past the deadline both bearers are down.
		tp.clk.Sleep(testDeadline)
		tp.Sweep(peers)
		tp.Sweep(peers)
		if !reflect.DeepEqual(tp.rerouted, []string{"wifi", "radio"}) {
			t.Errorf("rerouted %v, want each bearer once", tp.rerouted)
		}
		// Wifi recovers, then fails again: a second outage, a second reroute.
		tp.Bearers()[0].Monitor.SawRx("gs", tp.clk.Now())
		tp.Sweep(peers)
		tp.clk.Sleep(testDeadline + time.Millisecond)
		tp.Sweep(peers)
		if !reflect.DeepEqual(tp.rerouted, []string{"wifi", "radio", "wifi"}) {
			t.Errorf("rerouted %v, want wifi rerouted again after recovering", tp.rerouted)
		}
	})
}

func TestSingleBearerPlaneNeverSweeps(t *testing.T) {
	only := &bookTransport{book: map[transport.NodeID]string{}}
	clk := clock.NewVirtualAt(t0)
	p := NewPlane(PlaneConfig{
		Self: "n", Clock: clk, Directory: naming.NewDirectory(time.Minute),
		Deadline: testDeadline, Period: testPeriod,
		Send:    func(string, transport.NodeID, *protocol.Frame) { t.Error("single-bearer plane probed") },
		Reroute: func(string) { t.Error("single-bearer plane rerouted") },
	}, []*Bearer{{Name: "datagram", Transport: only}})
	clk.Run(func() {
		p.cfg.Clock.Sleep(time.Second)
		p.Sweep(func() []transport.NodeID { return []transport.NodeID{"gs"} })
	})
}
