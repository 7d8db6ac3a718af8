package variables

import (
	"slices"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/protocol"
	"uavmw/internal/scheduler"
)

// TestDeliveryRecordReuseUnderInlineReentry has OnSample re-enter the engine
// with a second sample. On an inline scheduler the nested delivery runs
// inside the first one's callback. The first record was recycled before
// that callback ran, so the nested delivery takes it again, and the first
// callback still sees its own value afterwards.
func TestDeliveryRecordReuseUnderInlineReentry(t *testing.T) {
	f := fabrictest.New(t, "n")
	f.Sched = scheduler.NewInline().Submit // a job runs inside the Schedule call that queues it
	e := New(f)
	enc := encoding.Binary{}
	sample := func(seq uint64, lat float64) *protocol.Frame {
		payload, err := encodeSamplePayload(enc, posType, map[string]any{"lat": lat, "lon": 0.0}, time.Now(), 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		return &protocol.Frame{Type: protocol.MTSample, Encoding: enc.ID(), Channel: "v", Seq: seq, Payload: payload}
	}
	var seen []float64
	s, err := e.Subscribe("v", posType, SubscribeOptions{OnSample: func(v any, _ time.Time) {
		if n := e.deliveries.Len(); n != 1 {
			t.Errorf("%d idle delivery records inside OnSample, want 1: the record that carried this sample", n)
		}
		lat := v.(map[string]any)["lat"].(float64)
		if lat == 1 {
			e.HandleSample("remote", sample(2, 2))
		}
		seen = append(seen, lat)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e.HandleSample("remote", sample(1, 1))
	if !slices.Equal(seen, []float64{2, 1}) {
		t.Fatalf("OnSample saw %v, want the nested sample 2 and then the outer sample 1", seen)
	}
}
