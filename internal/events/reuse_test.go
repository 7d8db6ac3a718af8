package events

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
)

// TestDeliveryRecordReuseUnderInlineReentry has a handler re-enter the
// engine with a second occurrence. On an inline scheduler the nested
// delivery runs inside the first one's handler. The first record was
// recycled before that handler ran, so the nested delivery takes it again,
// and the first handler still sees its own value afterwards.
func TestDeliveryRecordReuseUnderInlineReentry(t *testing.T) {
	f := fabrictest.New(t, "n")
	f.Sched = scheduler.NewInline().Submit // a job runs inside the Schedule call that queues it
	e := New(f)
	enc := encoding.Binary{}
	occurrence := func(seq uint64, code uint32) *protocol.Frame {
		body, err := enc.Marshal(alertType, map[string]any{"code": code})
		if err != nil {
			t.Fatal(err)
		}
		return &protocol.Frame{Type: protocol.MTEvent, Encoding: enc.ID(), Channel: "t", Seq: seq,
			Payload: protocol.EncodeEventPayload(7, seq, body, nil)}
	}
	var seen []uint32
	s, err := e.Subscribe("t", alertType, qos.EventQoS{}, func(v any, from transport.NodeID) {
		if n := e.deliveries.Len(); n != 1 {
			t.Errorf("%d idle delivery records inside the handler, want 1: the record that carried this occurrence", n)
		}
		code := v.(map[string]any)["code"].(uint32)
		if code == 1 {
			e.HandleEvent("pub", occurrence(2, 2))
		}
		if from != "pub" {
			t.Errorf("occurrence %d from %q, want pub", code, from)
		}
		seen = append(seen, code)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e.HandleEvent("pub", occurrence(1, 1))
	if !slices.Equal(seen, []uint32{2, 1}) {
		t.Fatalf("handler saw %v, want the nested occurrence 2 and then the outer occurrence 1", seen)
	}
}

// TestFanoutReuseAfterCancelledPublish cancels a unicast publish with its
// completion still in flight, starts a second publish, and only then lets
// the first one's completion land, with a failure. The abandoned record
// stays off the free list until that completion, which recycles it; the
// second publish sees none of it and returns on its own ack; a third
// publish runs on a recycled record.
func TestFanoutReuseAfterCancelledPublish(t *testing.T) {
	// The double hands every event send's completion to the test, which
	// fires it when it chooses.
	f := fabrictest.New(t, "pub")
	f.Hold()
	e := New(f)
	p, err := e.Offer("t", "svc", nil, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("sub", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	errc := make(chan error, 1)
	publish := func(ctx context.Context) { errc <- p.Publish(ctx, nil) }

	ctx, cancel := context.WithCancel(context.Background())
	go publish(ctx)
	late := f.NextHeld()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled publish: %v, want context.Canceled", err)
	}
	if n := e.fanouts.Len(); n != 0 {
		t.Fatalf("%d idle fan-out records with a completion outstanding, want 0", n)
	}

	go publish(context.Background())
	own := f.NextHeld()
	late.Release(errors.New("late failure"))
	select {
	case err := <-errc:
		t.Fatalf("second publish returned %v on the first one's late outcome", err)
	case <-time.After(20 * time.Millisecond):
	}
	if n := e.fanouts.Len(); n != 1 {
		t.Fatalf("%d idle fan-out records after the late completion, want the abandoned one back", n)
	}
	if subs := p.Subscribers(); len(subs) != 1 {
		t.Fatalf("subscribers %v: an outcome that landed after cancellation was accounted", subs)
	}
	own.Release(nil)
	if err := <-errc; err != nil {
		t.Fatalf("second publish: %v", err)
	}

	go publish(context.Background())
	f.NextHeld().Release(nil)
	if err := <-errc; err != nil {
		t.Fatalf("publish on a recycled record: %v", err)
	}
	if n := e.fanouts.Len(); n != 2 {
		t.Fatalf("%d idle fan-out records, want both back", n)
	}
}
