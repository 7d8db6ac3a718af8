package core

import (
	"sync"
	"testing"
	"time"

	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// bookTransport is a bus endpoint with the address book a UDP bearer has,
// so a test can see which dialable address discovery installed for a peer.
type bookTransport struct {
	transport.Transport
	mu   sync.Mutex
	book map[transport.NodeID]string
}

func newBookTransport(t *testing.T, id transport.NodeID) (*bookTransport, *transport.Bus) {
	t.Helper()
	bus := transport.NewBus()
	ep, err := bus.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return &bookTransport{Transport: ep, book: make(map[transport.NodeID]string)}, bus
}

func (b *bookTransport) AddPeer(id transport.NodeID, addr string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.book[id] = addr
	return nil
}

func (b *bookTransport) RemovePeer(id transport.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.book, id)
}

func (b *bookTransport) addr(id transport.NodeID) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.book[id]
}

// TestStaleOfferLeavesReachabilityAlone pins that what the bearer plane
// knows about reaching a peer follows the directory's accepted state and
// nothing else: a late announce from the peer's previous incarnation, a
// reordered older delta and a delta past a version gap all carry bearer
// records, the directory rejects all three, and neither the transports'
// address books nor bearer selection may move.
func TestStaleOfferLeavesReachabilityAlone(t *testing.T) {
	wifi, wifiBus := newBookTransport(t, "n")
	radio, _ := newBookTransport(t, "n")
	n, err := NewNode(
		WithBearer("wifi", wifi, wifiProfile),
		WithBearer("radio", radio, radioProfile),
		WithAnnouncePeriod(25*time.Millisecond),
		WithFailureDeadline(time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })

	// The peer is a bare endpoint driven by hand, present on wifi only: it
	// is never heard on radio, so radio is selectable for it only through
	// the bearer record it advertises.
	peer, err := wifiBus.Endpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	send := func(mt protocol.MsgType, payload []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := protocol.EncodeFrame(&protocol.Frame{Type: mt, Seq: 1, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		if err := peer.Send("n", raw); err != nil {
			t.Fatal(err)
		}
	}
	bearers := func(wifiAddr, radioAddr string) []naming.Record {
		return []naming.Record{
			{Kind: naming.KindBearer, Name: "wifi", Service: wifiAddr, Node: "peer"},
			{Kind: naming.KindBearer, Name: "radio", Service: radioAddr, Node: "peer"},
		}
	}
	// processed blocks until n has handled everything sent so far: frames
	// of one source dispatch in order, so a heartbeat sent last and counted
	// means the frames before it are done.
	processed := func() {
		t.Helper()
		before := n.Metrics().SumCounters("discovery", "heartbeats_received")
		payload, err := naming.EncodeDigest(&naming.Digest{Node: "peer", Epoch: 2, Version: 3, RecordCount: 2})
		send(protocol.MTHeartbeat, payload, err)
		waitUntil(t, 2*time.Second, "marker heartbeat", func() bool {
			return n.Metrics().SumCounters("discovery", "heartbeats_received") > before
		})
	}

	payload, err := naming.EncodeAnnouncement(&naming.Announcement{
		Node: "peer", Epoch: 2, Version: 3, Records: bearers("wifi-now:1", "radio-now:1"),
	})
	send(protocol.MTAnnounce, payload, err)
	processed()
	check := func(after string) {
		t.Helper()
		if got := wifi.addr("peer"); got != "wifi-now:1" {
			t.Errorf("after %s: wifi address book has peer at %q, want wifi-now:1", after, got)
		}
		if got := radio.addr("peer"); got != "radio-now:1" {
			t.Errorf("after %s: radio address book has peer at %q, want radio-now:1", after, got)
		}
		if got := n.links.Unicast("peer", qos.PriorityCritical); got != "radio" {
			t.Errorf("after %s: critical frames to peer ride %q, want radio", after, got)
		}
		if _, version, _ := n.Directory().NodeVersion("peer"); version != 3 {
			t.Fatalf("after %s: directory holds peer at version %d, want 3", after, version)
		}
	}
	check("the current announce")

	payload, err = naming.EncodeAnnouncement(&naming.Announcement{
		Node: "peer", Epoch: 1, Version: 9,
		Records: []naming.Record{{Kind: naming.KindBearer, Name: "wifi", Service: "wifi-stale:1", Node: "peer"}},
	})
	send(protocol.MTAnnounce, payload, err)
	processed()
	check("a stale-epoch announce")

	payload, err = naming.EncodeDelta(&naming.Delta{
		Node: "peer", Epoch: 2, From: 1, To: 2,
		Added:     []naming.Record{{Kind: naming.KindBearer, Name: "wifi", Service: "wifi-old:1", Node: "peer"}},
		Withdrawn: []naming.RecordKey{{Kind: naming.KindBearer, Name: "radio"}},
	})
	send(protocol.MTAnnounceDelta, payload, err)
	processed()
	check("a reordered older delta")

	payload, err = naming.EncodeDelta(&naming.Delta{
		Node: "peer", Epoch: 2, From: 7, To: 8,
		Added: []naming.Record{{Kind: naming.KindBearer, Name: "radio", Service: "radio-gap:1", Node: "peer"}},
	})
	send(protocol.MTAnnounceDelta, payload, err)
	processed()
	check("a delta past a version gap")
}
