package events

import (
	"context"
	"testing"

	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/presentation/ptest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
)

// TestPublishEncodeAllocatesNothing gates the event publish-encode site.
// A multicast occurrence — header, fused coerce+append of the value onto
// the pooled payload, replay-ring copy, one group send — allocates nothing.
// So does a unicast one: its fan-out record (target list, outcome slots,
// completions, trigger) is reused.
func TestPublishEncodeAllocatesNothing(t *testing.T) {
	val := map[string]any{"name": "det.alarm", "count": 7, "x": uint32(1024), "y": uint32(768), "score": 0.875}
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		delivery qos.Delivery
	}{
		{"multicast", qos.DeliverMulticast},
		{"unicast", qos.DeliverUnicast},
	} {
		// The double drops every send unrecorded, completing reliable ones
		// at once, so the gate measures the engine alone.
		f := fabrictest.New(t, "n")
		f.Discard(nil)
		e := New(f)
		p, err := e.Offer("det.alarm", "svc", ptest.DetectionType, qos.EventQoS{Delivery: tc.delivery})
		if err != nil {
			t.Fatal(err)
		}
		e.HandleSubscribe("gcs", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "det.alarm"})
		for i := 0; i <= replayDepth; i++ { // fill every replay slot's storage once
			if err := p.Publish(ctx, val); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := p.Publish(ctx, val); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s Publish allocates %.1f times per occurrence, want 0", tc.name, allocs)
		}
	}
}
