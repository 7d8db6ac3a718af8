package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"uavmw/internal/fabric"
	"uavmw/internal/metrics"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// failingTransport wraps an endpoint and fails every send — the bearer
// is up but the medium rejects everything, the shape of a dead radio.
type failingTransport struct {
	transport.Transport
}

var errMediumDead = errors.New("medium dead")

func (f *failingTransport) Send(transport.NodeID, []byte) error { return errMediumDead }
func (f *failingTransport) SendGroup(string, []byte) error      { return errMediumDead }

// Discovery beaconing is fire-and-forget: before the observability plane
// its send failures were discarded. They must now surface as typed
// egress.errors{category=send} counts in the node registry.
func TestBeaconSendFailuresAreCounted(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("solo")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(WithDatagram(&failingTransport{Transport: ep}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()

	n.AnnounceNow()
	n.FlushEgress()

	typed := n.Metrics().SumCounters("egress", "errors",
		metrics.L("category", uerr.CatSend.String()))
	if typed == 0 {
		t.Fatal("beacon send failures left egress.errors{send} at 0")
	}
	if !strings.Contains(n.MetricsSnapshot().Text(), "counter egress.errors") {
		t.Fatal("MetricsSnapshot does not export the egress.errors family")
	}
}

// The node is the container's single Instrumented fabric: every engine
// resolved through fabric.MetricsOf must land in the same registry that
// MetricsSnapshot exports.
func TestNodeIsTheSingleInstrumentedRegistry(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "a")
	if fabric.MetricsOf(n) != n.Metrics() {
		t.Fatal("fabric.MetricsOf(node) is not the node registry")
	}
}

// MetricsSnapshot must be scrapeable: deterministic ordering, valid JSON,
// and the per-plane families present after real traffic.
func TestMetricsSnapshotExportsEveryPlane(t *testing.T) {
	bus := transport.NewBus()
	a := newBusNode(t, bus, "a")
	b := newBusNode(t, bus, "b")

	waitUntil(t, 2*time.Second, "nodes hear each other's heartbeats", func() bool {
		return counter(t, a, "discovery", "heartbeats_received") > 0 &&
			counter(t, b, "discovery", "heartbeats_received") > 0
	})

	snap := a.MetricsSnapshot()
	text := snap.Text()
	for _, want := range []string{
		"counter discovery.heartbeats_sent",
		"counter egress.enqueued",
		"gauge transport.packets_sent",
		"gauge link.healthy",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot text missing %q:\n%s", want, text)
		}
	}
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if counter(t, a, "discovery", "heartbeats_sent") == 0 {
		t.Fatal("no heartbeats counted after convergence")
	}
}
