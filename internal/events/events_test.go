package events

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"uavmw/internal/encoding"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

var alertType = presentation.MustParse("{code:u32}")

func TestOfferValidation(t *testing.T) {
	e := New(fabrictest.New(t, "n"))
	if _, err := e.Offer("t", "svc", presentation.StructOf(), qos.EventQoS{}); err == nil {
		t.Error("invalid type accepted")
	}
	if _, err := e.Offer("t", "svc", nil, qos.EventQoS{Reliability: qos.BestEffort}); err == nil {
		t.Error("best-effort events accepted")
	}
	if _, err := e.Offer("t", "svc", alertType, qos.EventQoS{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Offer("t", "svc", alertType, qos.EventQoS{}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestLocalDeliveryBypass(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	p, err := e.Offer("t", "svc", alertType, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Value
	if _, err := e.Subscribe("t", alertType, qos.EventQoS{},
		func(v any, from transport.NodeID) { got.Store(v) }); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(context.Background(), map[string]any{"code": 7}); err != nil {
		t.Fatal(err)
	}
	v := got.Load()
	if v == nil || v.(map[string]any)["code"] != uint32(7) {
		t.Fatalf("local delivery = %v", v)
	}
	// Purely local: no reliable frames.
	if n := f.Count(fabrictest.Reliable, protocol.MTEvent); n != 0 {
		t.Errorf("local publish sent %d event frames", n)
	}
}

func TestRemoteSubscriberManagement(t *testing.T) {
	f := fabrictest.New(t, "pub")
	e := New(f)
	p, err := e.Offer("t", "svc", alertType, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("gs", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	e.HandleSubscribe("mc", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	if got := len(p.Subscribers()); got != 2 {
		t.Fatalf("subscribers = %d", got)
	}
	if err := p.Publish(context.Background(), map[string]any{"code": 1}); err != nil {
		t.Fatal(err)
	}
	if n := f.Count(fabrictest.Reliable, protocol.MTEvent); n != 2 {
		t.Errorf("event frames = %d, want 2", n)
	}
	e.HandleUnsubscribe("gs", &protocol.Frame{Type: protocol.MTUnsubscribe, Channel: "t"})
	if got := len(p.Subscribers()); got != 1 {
		t.Errorf("after unsubscribe = %d", got)
	}
	e.PeerGone("mc")
	if got := len(p.Subscribers()); got != 0 {
		t.Errorf("after PeerGone = %d", got)
	}
	published, failures := p.Stats()
	if published != 1 || failures != 0 {
		t.Errorf("stats = %d/%d", published, failures)
	}
}

func TestPartialDeliveryDropsSubscriber(t *testing.T) {
	f := fabrictest.New(t, "pub")
	e := New(f)
	p, err := e.Offer("t", "svc", nil, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("good", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	e.HandleSubscribe("bad", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	f.Fail("bad")

	err = p.Publish(context.Background(), nil)
	if !errors.Is(err, ErrPartialDelivery) {
		t.Fatalf("want ErrPartialDelivery, got %v", err)
	}
	// The unreachable subscriber is dropped; next publish succeeds fully.
	if err := p.Publish(context.Background(), nil); err != nil {
		t.Errorf("after drop: %v", err)
	}
	if got := len(p.Subscribers()); got != 1 {
		t.Errorf("subscribers = %d", got)
	}
}

func TestPublishTypeEnforcement(t *testing.T) {
	e := New(fabrictest.New(t, "n"))
	p, err := e.Offer("payload-less", "svc", nil, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(context.Background(), "unexpected"); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("payload on void topic: %v", err)
	}
	p2, err := e.Offer("typed", "svc", alertType, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Publish(context.Background(), "garbage"); err == nil {
		t.Error("uncoercible payload accepted")
	}
}

func TestSubscribeRegistersWithRemotePublisher(t *testing.T) {
	f := fabrictest.New(t, "sub")
	e := New(f)
	f.Directory().Apply(&naming.Announcement{
		Node: "pub", Epoch: 1,
		Records: []naming.Record{{
			Kind: naming.KindEvent, Name: "t", Service: "svc", Node: "pub",
			TypeSig: alertType.String(),
		}},
	})

	s, err := e.Subscribe("t", alertType, qos.EventQoS{}, func(any, transport.NodeID) {})
	if err != nil {
		t.Fatal(err)
	}
	if n := f.Count(fabrictest.Reliable, protocol.MTSubscribe); n != 1 {
		t.Fatalf("subscribe frames = %d", n)
	}
	// Refresh re-registers (publisher restart recovery).
	e.Refresh()
	if n := f.Count(fabrictest.Reliable, protocol.MTSubscribe); n != 2 {
		t.Errorf("after refresh = %d", n)
	}
	s.Close()
	if n := f.Count(fabrictest.Reliable, protocol.MTUnsubscribe); n != 1 {
		t.Errorf("unsubscribe frames = %d", n)
	}
}

// offerTopic applies an announcement of node's incarnation epoch offering
// event topic "t" to f's directory.
func offerTopic(f *fabrictest.Fabric, node transport.NodeID, epoch uint64) {
	f.Directory().AdmitEpoch(node, epoch, f.Clock().Now())
	f.Directory().Apply(&naming.Announcement{
		Node: node, Epoch: epoch, Version: 1,
		Records: []naming.Record{{
			Kind: naming.KindEvent, Name: "t", Service: "svc", Node: node,
			TypeSig: alertType.String(),
		}},
	})
}

// subscribes lists the nodes f sent an MTSubscribe to since the last Take.
func subscribes(f *fabrictest.Fabric) []transport.NodeID {
	var to []transport.NodeID
	for _, s := range f.Take() {
		if s.Frame.Type == protocol.MTSubscribe {
			to = append(to, s.To)
		}
	}
	return to
}

// TestOfferedPeerBindsOncePerIncarnation: a subscription made before its
// publisher is known registers when the publisher's offer is applied, once
// per publisher incarnation; offers of other peers and repeated offers of
// the same incarnation send nothing.
func TestOfferedPeerBindsOncePerIncarnation(t *testing.T) {
	f := fabrictest.New(t, "sub")
	e := New(f)
	if _, err := e.Subscribe("t", alertType, qos.EventQoS{}, func(any, transport.NodeID) {}); err != nil {
		t.Fatal(err)
	}
	if got := subscribes(f); len(got) != 0 {
		t.Fatalf("subscribed to %v with no publisher known", got)
	}
	offerTopic(f, "pub", 1)
	e.PeerOffered("other")
	e.PeerOffered("pub")
	e.PeerOffered("pub")
	if got := subscribes(f); len(got) != 1 || got[0] != "pub" {
		t.Fatalf("after pub's offer subscribed to %v, want [pub]", got)
	}
	offerTopic(f, "pub", 2) // pub restarted
	e.PeerOffered("pub")
	if got := subscribes(f); len(got) != 1 || got[0] != "pub" {
		t.Fatalf("after pub's new incarnation subscribed to %v, want [pub]", got)
	}
}

// TestFailedRegistrationUnbinds: an MTSubscribe that fails in ARQ leaves
// the subscription unbound, so the publisher's next offer registers again.
func TestFailedRegistrationUnbinds(t *testing.T) {
	f := fabrictest.New(t, "sub")
	f.Hold()
	e := New(f)
	offerTopic(f, "pub", 1)
	if _, err := e.Subscribe("t", alertType, qos.EventQoS{}, func(any, transport.NodeID) {}); err != nil {
		t.Fatal(err)
	}
	f.NextHeld().Release(errors.New("retries exhausted"))
	f.Take()
	e.PeerOffered("pub")
	if got := subscribes(f); len(got) != 1 {
		t.Fatalf("after a failed registration the offer sent %d subscribes, want 1", len(got))
	}
	f.NextHeld().Release(nil)
	e.PeerOffered("pub")
	if got := subscribes(f); len(got) != 0 {
		t.Fatalf("a bound subscription sent %d subscribes on a repeated offer", len(got))
	}
}

// TestPeerGoneRebindsToNextProvider: when the provider a subscription is
// bound to fails, the subscription registers with the other provider at
// once, without waiting for a Refresh.
func TestPeerGoneRebindsToNextProvider(t *testing.T) {
	f := fabrictest.New(t, "sub")
	e := New(f)
	offerTopic(f, "p1", 1)
	offerTopic(f, "p2", 1)
	if _, err := e.Subscribe("t", alertType, qos.EventQoS{}, func(any, transport.NodeID) {}); err != nil {
		t.Fatal(err)
	}
	got := subscribes(f)
	if len(got) != 1 {
		t.Fatalf("subscribed to %v, want one provider", got)
	}
	bound, other := got[0], transport.NodeID("p2")
	if bound == other {
		other = "p1"
	}
	f.Directory().RemoveNode(bound)
	e.PeerGone(bound)
	if got := subscribes(f); len(got) != 1 || got[0] != other {
		t.Fatalf("after %s failed subscribed to %v, want [%s]", bound, got, other)
	}
}

func TestHandleEventDecodesAndCounts(t *testing.T) {
	f := fabrictest.New(t, "sub")
	e := New(f)
	var got atomic.Value
	s, err := e.Subscribe("t", alertType, qos.EventQoS{},
		func(v any, from transport.NodeID) { got.Store(v) })
	if err != nil {
		t.Fatal(err)
	}
	body, err := encoding.Marshal(alertType, map[string]any{"code": uint32(9)})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleEvent("pub", &protocol.Frame{
		Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: 1,
		Payload: protocol.EncodeEventPayload(7, 1, body, nil),
	})
	v := got.Load()
	if v == nil || v.(map[string]any)["code"] != uint32(9) {
		t.Fatalf("delivered = %v", v)
	}
	if s.Received() != 1 {
		t.Errorf("Received = %d", s.Received())
	}
	// Wrong encoding: ignored.
	e.HandleEvent("pub", &protocol.Frame{
		Type: protocol.MTEvent, Encoding: 99, Channel: "t", Seq: 2,
		Payload: protocol.EncodeEventPayload(7, 2, body, nil),
	})
	if s.Received() != 1 {
		t.Error("foreign-encoded event delivered")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	e := New(fabrictest.New(t, "n"))
	if _, err := e.Subscribe("t", nil, qos.EventQoS{}, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestRecords(t *testing.T) {
	e := New(fabrictest.New(t, "node3"))
	if _, err := e.Offer("alarm", "svc", alertType, qos.EventQoS{}); err != nil {
		t.Fatal(err)
	}
	recs := e.Records()
	if len(recs) != 1 || recs[0].Kind != naming.KindEvent || recs[0].TypeSig != alertType.String() {
		t.Errorf("records = %+v", recs)
	}
}
