package events

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

var mcastQoS = qos.EventQoS{Delivery: qos.DeliverMulticast}

func TestMulticastQoSValidation(t *testing.T) {
	e := New(fabrictest.New(t, "n"))
	if _, err := e.Offer("t", "svc", alertType,
		qos.EventQoS{Delivery: qos.DeliverMulticast, Reliability: qos.BestEffort}); err == nil {
		t.Error("best-effort multicast accepted")
	}
	if _, err := e.Offer("t", "svc", alertType, mcastQoS); err != nil {
		t.Fatal(err)
	}
}

func TestMulticastPublishSendsOneGroupFrame(t *testing.T) {
	f := fabrictest.New(t, "pub")
	e := New(f)
	p, err := e.Offer("t", "svc", alertType, mcastQoS)
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("a", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	e.HandleSubscribe("b", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	e.HandleSubscribe("c", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})

	for i := 0; i < 3; i++ {
		if err := p.Publish(context.Background(), map[string]any{"code": uint32(i)}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	var groupSends []fabrictest.Sent
	for _, s := range f.Sent() {
		if s.Kind == fabrictest.Group {
			groupSends = append(groupSends, s)
		}
	}
	// One frame per occurrence regardless of the 3 subscribers.
	if len(groupSends) != 3 {
		t.Fatalf("group frames = %d, want 3", len(groupSends))
	}
	if n := f.Count(fabrictest.Reliable, protocol.MTEvent); n != 0 {
		t.Errorf("multicast publish also sent %d unicast event frames", n)
	}
	for i, s := range groupSends {
		if s.Group != fabric.EventGroup("t") {
			t.Errorf("frame %d group = %q", i, s.Group)
		}
		pubID, seq, _, err := protocol.DecodeEventPayload(s.Frame.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if pubID == 0 || seq != uint64(i+1) {
			t.Errorf("frame %d: pubID=%d seq=%d", i, pubID, seq)
		}
	}
}

func TestMulticastSubscribeJoinsGroup(t *testing.T) {
	f := fabrictest.New(t, "sub")
	e := New(f)
	s, err := e.Subscribe("t", alertType, mcastQoS, func(any, transport.NodeID) {})
	if err != nil {
		t.Fatal(err)
	}
	joined := f.Joined(fabric.EventGroup("t"))
	if joined != 1 {
		t.Fatalf("join count = %d", joined)
	}
	s.Close()
	joined = f.Joined(fabric.EventGroup("t"))
	if joined != 0 {
		t.Errorf("after close join count = %d", joined)
	}
}

// occurrence builds the wire payload of one sequenced occurrence.
func occurrence(t *testing.T, pubID uint32, seq uint64, code uint32) []byte {
	t.Helper()
	body, err := encoding.Marshal(alertType, map[string]any{"code": code})
	if err != nil {
		t.Fatal(err)
	}
	return protocol.EncodeEventPayload(pubID, seq, body, nil)
}

func TestGapDetectionNackAndRepair(t *testing.T) {
	f := fabrictest.New(t, "sub")
	e := New(f)
	var received atomic.Int64
	s, err := e.Subscribe("t", alertType, mcastQoS,
		func(any, transport.NodeID) { received.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	ev := func(seq uint64) *protocol.Frame {
		return &protocol.Frame{
			Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: seq,
			Payload: occurrence(t, 11, seq, uint32(seq)),
		}
	}
	e.HandleEvent("pub", ev(1))
	e.HandleEvent("pub", ev(4)) // 2 and 3 lost

	if detected, repaired := s.Gaps(); detected != 2 || repaired != 0 {
		t.Fatalf("gaps = %d/%d, want 2/0", detected, repaired)
	}
	// A NACK listing both missing sequences went back to the source.
	if n := f.Count(fabrictest.Reliable, protocol.MTEventNack); n != 1 {
		t.Fatalf("nack frames = %d", n)
	}
	var nack *protocol.Frame
	for _, fr := range f.Frames(fabrictest.Reliable) {
		if fr.Type == protocol.MTEventNack {
			nack = fr
		}
	}
	missing, err := protocol.DecodeEventNack(nack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 2 || missing[0] != 2 || missing[1] != 3 {
		t.Fatalf("nacked = %v", missing)
	}

	// Repairs arrive (unicast retransmission): delivered exactly once.
	e.HandleEvent("pub", ev(2))
	e.HandleEvent("pub", ev(3))
	if detected, repaired := s.Gaps(); detected != 2 || repaired != 2 {
		t.Fatalf("after repair gaps = %d/%d", detected, repaired)
	}
	// Late duplicate of a repaired occurrence: suppressed.
	e.HandleEvent("pub", ev(2))
	if got := received.Load(); got != 4 {
		t.Fatalf("received = %d, want 4", got)
	}
	if s.Received() != 4 {
		t.Errorf("Received() = %d", s.Received())
	}
}

func TestReorderedStartupOccurrencesAreNotDropped(t *testing.T) {
	// Concurrent publishes can race the subscribe so the tracker's first
	// observation is not the stream's first occurrence; the earlier one
	// arriving late must still be delivered (guaranteed primitive), not
	// suppressed as a duplicate.
	f := fabrictest.New(t, "sub")
	e := New(f)
	var received atomic.Int64
	if _, err := e.Subscribe("t", alertType, qos.EventQoS{},
		func(any, transport.NodeID) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ev := func(seq uint64) *protocol.Frame {
		return &protocol.Frame{
			Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: seq,
			Payload: occurrence(t, 11, seq, uint32(seq)),
		}
	}
	e.HandleEvent("pub", ev(2)) // first observation mid-stream
	e.HandleEvent("pub", ev(1)) // reordered predecessor
	if got := received.Load(); got != 2 {
		t.Fatalf("received = %d, want 2", got)
	}
}

func TestUnicastSubscriberHearsMulticastPublisher(t *testing.T) {
	// Delivery mode is the publisher's choice: a subscriber that asked
	// for unicast QoS still joins the topic group so group-addressed
	// occurrences reach it.
	f := fabrictest.New(t, "sub")
	e := New(f)
	s, err := e.Subscribe("t", alertType, qos.EventQoS{}, func(any, transport.NodeID) {})
	if err != nil {
		t.Fatal(err)
	}
	joined := f.Joined(fabric.EventGroup("t"))
	if joined != 1 {
		t.Fatalf("unicast subscription join count = %d, want 1", joined)
	}
	// Gaps in a multicast stream are still NACKed (the subscription is
	// ARQ-reliable), so repair works across the mode mismatch.
	e.HandleEvent("pub", &protocol.Frame{
		Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: 1,
		Payload: occurrence(t, 11, 1, 1),
	})
	e.HandleEvent("pub", &protocol.Frame{
		Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: 3,
		Payload: occurrence(t, 11, 3, 3),
	})
	if n := f.Count(fabrictest.Reliable, protocol.MTEventNack); n != 1 {
		t.Errorf("nack frames = %d, want 1", n)
	}
	s.Close()
}

func TestHugeGapNackBoundedByReplayDepth(t *testing.T) {
	f := fabrictest.New(t, "sub")
	e := New(f)
	s, err := e.Subscribe("t", alertType, mcastQoS, func(any, transport.NodeID) {})
	if err != nil {
		t.Fatal(err)
	}
	ev := func(seq uint64) *protocol.Frame {
		return &protocol.Frame{
			Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: seq,
			Payload: occurrence(t, 11, seq, uint32(seq)),
		}
	}
	e.HandleEvent("pub", ev(1))
	e.HandleEvent("pub", ev(300)) // 298 lost, far beyond the replay ring

	if detected, _ := s.Gaps(); detected != 298 {
		t.Fatalf("gaps detected = %d, want 298", detected)
	}
	var nack *protocol.Frame
	for _, fr := range f.Frames(fabrictest.Reliable) {
		if fr.Type == protocol.MTEventNack {
			nack = fr
		}
	}
	if nack == nil {
		t.Fatal("no nack sent")
	}
	missing, err := protocol.DecodeEventNack(nack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Only what the publisher's replay ring can serve is requested: the
	// newest replayDepth sequences before the arriving one.
	if len(missing) != replayDepth {
		t.Fatalf("nacked %d seqs, want %d", len(missing), replayDepth)
	}
	if missing[0] != 300-replayDepth || missing[len(missing)-1] != 299 {
		t.Errorf("nack range [%d, %d]", missing[0], missing[len(missing)-1])
	}
}

func TestPublisherRestartResetsTracker(t *testing.T) {
	f := fabrictest.New(t, "sub")
	e := New(f)
	var received atomic.Int64
	if _, err := e.Subscribe("t", alertType, mcastQoS,
		func(any, transport.NodeID) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	e.HandleEvent("pub", &protocol.Frame{
		Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: 1,
		Payload: occurrence(t, 5, 40, 0),
	})
	// Restarted publisher: new incarnation, numbering back at 1. Must be
	// delivered as fresh, not dropped as an ancient duplicate.
	e.HandleEvent("pub", &protocol.Frame{
		Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: 2,
		Payload: occurrence(t, 6, 1, 0),
	})
	if got := received.Load(); got != 2 {
		t.Fatalf("received = %d, want 2", got)
	}
	if n := f.Count(fabrictest.Reliable, protocol.MTEventNack); n != 0 {
		t.Errorf("restart produced %d nacks", n)
	}
}

func TestHandleEventNackRepairsFromReplay(t *testing.T) {
	f := fabrictest.New(t, "pub")
	e := New(f)
	p, err := e.Offer("t", "svc", alertType, mcastQoS)
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("sub1", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	for i := 1; i <= 3; i++ {
		if err := p.Publish(context.Background(), map[string]any{"code": uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}

	nackPayload, err := protocol.EncodeEventNack([]uint64{2})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleEventNack("sub1", &protocol.Frame{
		Type: protocol.MTEventNack, Channel: "t", Seq: 9, Payload: nackPayload,
	})

	if n := f.Count(fabrictest.Reliable, protocol.MTEvent); n != 1 {
		t.Fatalf("repair frames = %d", n)
	}
	var repair *protocol.Frame
	var repairTo transport.NodeID
	for _, s := range f.Sent() {
		if s.Kind == fabrictest.Reliable && s.Frame.Type == protocol.MTEvent {
			repair, repairTo = s.Frame, s.To
		}
	}
	if repairTo != "sub1" {
		t.Errorf("repair sent to %q", repairTo)
	}
	_, seq, body, err := protocol.DecodeEventPayload(repair.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Errorf("repair seq = %d", seq)
	}
	v, err := encoding.Binary{}.Unmarshal(alertType, body)
	if err != nil {
		t.Fatal(err)
	}
	if v.(map[string]any)["code"] != uint32(2) {
		t.Errorf("repair body = %v", v)
	}
	if p.Repairs() != 1 {
		t.Errorf("Repairs() = %d", p.Repairs())
	}

	// A NACK for a sequence beyond the replay buffer is silently skipped.
	old, err := protocol.EncodeEventNack([]uint64{999})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleEventNack("sub1", &protocol.Frame{
		Type: protocol.MTEventNack, Channel: "t", Seq: 10, Payload: old,
	})
	if n := f.Count(fabrictest.Reliable, protocol.MTEvent); n != 1 {
		t.Errorf("unrepairable nack produced frames: %d", n)
	}
}

func TestUnicastCarriesTopicSeqOnWire(t *testing.T) {
	f := fabrictest.New(t, "pub")
	e := New(f)
	p, err := e.Offer("t", "svc", alertType, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("gs", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	for i := 1; i <= 2; i++ {
		if err := p.Publish(context.Background(), map[string]any{"code": uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := uint64(1)
	for _, fr := range f.Frames(fabrictest.Reliable) {
		if fr.Type != protocol.MTEvent {
			continue
		}
		pubID, seq, _, err := protocol.DecodeEventPayload(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if pubID == 0 || seq != want {
			t.Errorf("unicast frame pubID=%d seq=%d, want seq %d", pubID, seq, want)
		}
		want++
	}
	if want != 3 {
		t.Errorf("saw %d event frames", want-1)
	}
}

func TestPublishCancellationAccountsDrainedOutcomes(t *testing.T) {
	// Sends to "slow" never complete; sends to "bad" fail at once.
	f := fabrictest.New(t, "pub")
	f.Hold("slow")
	e := New(f)
	p, err := e.Offer("t", "svc", nil, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("bad", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	e.HandleSubscribe("slow", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	f.Fail("bad")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = p.Publish(ctx, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	// The failure that completed before cancellation is accounted and the
	// unreachable subscriber dropped; the stalled one stays registered.
	if _, failures := p.Stats(); failures != 1 {
		t.Errorf("failures = %d, want 1", failures)
	}
	subs := p.Subscribers()
	if len(subs) != 1 || subs[0] != "slow" {
		t.Errorf("subscribers after cancel = %v", subs)
	}
}
