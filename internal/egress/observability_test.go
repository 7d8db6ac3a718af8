package egress

import (
	"errors"
	"testing"

	"uavmw/internal/metrics"
	"uavmw/internal/metrics/metricstest"
	"uavmw/internal/qos"
	"uavmw/internal/uerr"
)

// A transport send failure on the egress drain used to vanish into an
// anonymous per-bearer counter; now it must land in the shared registry
// as both the operational send_failures series and a typed
// egress.errors{category=send} count.
func TestSendFailuresAreCountedInRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	s := &gateSender{errs: errors.New("radio dead")}
	p := New(s, Config{Metrics: reg})
	defer p.Close()

	const sends = 5
	for i := 0; i < sends; i++ {
		if err := p.Enqueue("gs", qos.PriorityHigh, frameBytes(t, 20, qos.PriorityHigh, uint64(i), 600)); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()

	failures := counter(t, p, DefaultBearer, "send_failures")
	if failures == 0 {
		t.Fatal("send_failures = 0 after a failing transport drained frames")
	}
	typed := metricstest.Counter(t, reg, "egress", "errors", metrics.L("category", uerr.CatSend.String()))
	if typed != failures {
		t.Fatalf("egress.errors{send} = %d, want %d (every send failure typed and counted)", typed, failures)
	}
}

// Drop-oldest eviction is a per-frame hot-path failure with no error
// value; it must still increment the egress.errors{category=resource}
// family through its pre-resolved handle.
func TestLaneOverflowCountsResourceErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	s := &gateSender{gate: make(chan struct{})} // hold the drainer: queues fill
	p := New(s, Config{Metrics: reg, CoalesceMax: -1})

	const sends = DefaultQueueCap + 8
	for i := 0; i < sends; i++ {
		if err := p.Enqueue("gs", qos.PriorityNormal, frameBytes(t, 20, qos.PriorityNormal, uint64(i), 600)); err != nil {
			t.Fatal(err)
		}
	}
	close(s.gate)
	p.Close()

	dropped := counter(t, p, DefaultBearer, "dropped")
	if dropped == 0 {
		t.Fatal("no drops past DefaultQueueCap with a gated drainer")
	}
	typed := metricstest.Counter(t, reg, "egress", "errors", metrics.L("category", uerr.CatResource.String()))
	if typed < dropped {
		t.Fatalf("egress.errors{resource} = %d, want >= %d dropped frames", typed, dropped)
	}
}
