package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"uavmw/internal/metrics"
	"uavmw/internal/metrics/metricstest"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/rpc"
	"uavmw/internal/transport"
)

// TestRPCHedgedFailoverUnderLoss kills the pinned provider mid-stream on a
// 15% lossy network; a hedged call must still complete within its QoS
// deadline via the redundant provider (§4.3 bounded-latency redirection).
func TestRPCHedgedFailoverUnderLoss(t *testing.T) {
	net := transport.NewSimBus(transport.SimConfig{Loss: 0.15, Seed: 21, Latency: 500 * time.Microsecond})
	defer net.Close()
	provA := newSimNode(t, net, "a-prov")
	provB := newSimNode(t, net, "b-prov")
	client := newSimNode(t, net, "client")
	syncNodes(t, provA, provB, client)

	retT := presentation.String_()
	for _, n := range []*Node{provA, provB} {
		id := string(n.ID())
		if err := n.RPC().Register("nav.fn", "nav", nil, retT, qos.CallQoS{},
			func(any) (any, error) { return id, nil }); err != nil {
			t.Fatal(err)
		}
		n.AnnounceNow()
	}
	waitUntil(t, 3*time.Second, "both providers discovered", func() bool {
		return client.Directory().ProviderCount(naming.KindFunction, "nav.fn") == 2
	})

	ctx := context.Background()
	q := qos.CallQoS{
		Binding:    qos.BindStatic,
		Deadline:   2 * time.Second,
		HedgeAfter: 0.2,
	}
	// Warm the static pin (lowest node id: a-prov) with a few calls.
	var pinned string
	for i := 0; i < 3; i++ {
		got, err := client.RPC().Call(ctx, "nav.fn", nil, nil, retT, q)
		if err != nil {
			t.Fatalf("warm call %d: %v", i, err)
		}
		pinned = got.(string)
	}
	if pinned != "a-prov" {
		t.Fatalf("pin landed on %q, want a-prov", pinned)
	}

	// Kill the pinned provider silently, mid-stream.
	net.Partition("a-prov", "client")
	net.Partition("a-prov", "b-prov")

	start := time.Now()
	got, err := client.RPC().Call(ctx, "nav.fn", nil, nil, retT, q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("call after provider death: %v (elapsed %v)", err, elapsed)
	}
	if got != "b-prov" {
		t.Errorf("served by %v, want the redundant provider", got)
	}
	if elapsed > q.Deadline {
		t.Errorf("failover took %v, beyond the %v deadline", elapsed, q.Deadline)
	}
}

// TestRPCBusyShedFailsOver occupies a provider whose concurrency limit is
// 1; the next call must receive MTBusy and fail over to the redundant
// provider instead of queueing blind or surfacing an app error.
func TestRPCBusyShedFailsOver(t *testing.T) {
	net := transport.NewSimBus(transport.SimConfig{Seed: 33, Latency: 300 * time.Microsecond})
	defer net.Close()
	provA := newSimNode(t, net, "a-prov")
	provA.RPC().SetInflightLimit(1)
	provB := newSimNode(t, net, "b-prov")
	client := newSimNode(t, net, "client")
	syncNodes(t, provA, provB, client)

	retT := presentation.String_()
	release := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	if err := provA.RPC().Register("work.fn", "work", nil, retT, qos.CallQoS{},
		func(any) (any, error) {
			enterOnce.Do(func() { close(entered) })
			<-release
			return "a-prov", nil
		}); err != nil {
		t.Fatal(err)
	}
	if err := provB.RPC().Register("work.fn", "work", nil, retT, qos.CallQoS{},
		func(any) (any, error) { return "b-prov", nil }); err != nil {
		t.Fatal(err)
	}
	provA.AnnounceNow()
	provB.AnnounceNow()
	waitUntil(t, 3*time.Second, "both providers discovered", func() bool {
		return client.Directory().ProviderCount(naming.KindFunction, "work.fn") == 2
	})

	ctx := context.Background()
	q := qos.CallQoS{Binding: qos.BindStatic, Deadline: 5 * time.Second}
	occupied := make(chan error, 1)
	go func() {
		_, err := client.RPC().Call(ctx, "work.fn", nil, nil, retT, q)
		occupied <- err
	}()
	select {
	case <-entered:
	case err := <-occupied:
		close(release)
		t.Fatalf("occupying call returned early: %v", err)
	case <-time.After(3 * time.Second):
		close(release)
		t.Fatal("occupying call never executed on a-prov")
	}

	start := time.Now()
	got, err := client.RPC().Call(ctx, "work.fn", nil, nil, retT, q)
	elapsed := time.Since(start)
	if err != nil {
		// In particular MTBusy must not surface as an AppError.
		var appErr *rpc.AppError
		if errors.As(err, &appErr) {
			t.Fatalf("busy surfaced as app error: %v", appErr)
		}
		t.Fatalf("shed call did not fail over: %v", err)
	}
	if got != "b-prov" {
		t.Errorf("served by %v, want failover to b-prov", got)
	}
	if metricstest.Counter(t, provA.Metrics(), "rpc", "errors", metrics.L("code", "busy_shed")) == 0 {
		t.Error("provider never shed with MTBusy")
	}
	if elapsed > q.Deadline {
		t.Errorf("failover took %v", elapsed)
	}
	close(release)
	if err := <-occupied; err != nil {
		t.Errorf("occupying call failed: %v", err)
	}
}
