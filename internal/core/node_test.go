package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/filetransfer"
	"uavmw/internal/metrics"
	"uavmw/internal/metrics/metricstest"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/rpc"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

var gpsType = presentation.MustParse("{lat:f64,lon:f64,alt:f32,fix:u8}")

func gpsValue(lat float64) map[string]any {
	return map[string]any{"lat": lat, "lon": 2.1, "alt": float32(120), "fix": uint8(3)}
}

// newBusNode builds a container on a shared in-process bus with fast
// discovery for tests.
func newBusNode(t *testing.T, bus *transport.Bus, id transport.NodeID, opts ...NodeOption) *Node {
	t.Helper()
	ep, err := bus.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]NodeOption{WithDatagram(ep), WithAnnouncePeriod(25 * time.Millisecond)}, opts...)
	n, err := NewNode(all...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// counter reads counter family component.name from n's registry, summed
// over the series whose labels include match. The registry is the node's
// one stats surface; a family it does not hold fails the test.
func counter(t testing.TB, n *Node, component, name string, match ...metrics.Label) uint64 {
	t.Helper()
	return metricstest.Counter(t, n.Metrics(), component, name, match...)
}

// waitUntil polls cond until true or the timeout elapses.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// syncNodes waits until each node sees every other node's announcements.
func syncNodes(t *testing.T, nodes ...*Node) {
	t.Helper()
	for _, n := range nodes {
		n.AnnounceNow()
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			b := b
			a := a
			waitUntil(t, 2*time.Second, fmt.Sprintf("%s to see %s", a.ID(), b.ID()), func() bool {
				for _, peer := range a.Peers() {
					if peer == b.ID() {
						return true
					}
				}
				return false
			})
		}
	}
}

func TestDiscoveryPropagatesRecords(t *testing.T) {
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "pub")
	sub := newBusNode(t, bus, "sub")

	if _, err := pub.Variables().Offer("gps.position", "gps", gpsType, qos.VariableQoS{}); err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	waitUntil(t, 2*time.Second, "directory record", func() bool {
		return sub.Directory().ProviderCount(naming.KindVariable, "gps.position") == 1
	})
}

func TestVariablePubSubAcrossNodes(t *testing.T) {
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "uav")
	sub := newBusNode(t, bus, "gs")
	syncNodes(t, pub, sub)

	p, err := pub.Variables().Offer("gps.position", "gps", gpsType, qos.VariableQoS{Validity: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()

	var got atomic.Value
	s, err := sub.Variables().Subscribe("gps.position", gpsType, variables.SubscribeOptions{
		OnSample: func(v any, ts time.Time) { got.Store(v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The cache takes a sample before the scheduler runs its OnSample, so
	// both are waited for.
	waitUntil(t, 2*time.Second, "sample delivery and its OnSample callback", func() bool {
		if err := p.Publish(gpsValue(41.5)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		v, _, err := s.Get()
		if err != nil {
			return false
		}
		return v.(map[string]any)["lat"] == 41.5 && got.Load() != nil
	})
	samples, _ := s.Stats()
	if samples == 0 {
		t.Error("no samples counted")
	}
}

func TestVariableLocalBypass(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")

	p, err := n.Variables().Offer("v", "svc", presentation.Float64(), qos.VariableQoS{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := n.Variables().Subscribe("v", presentation.Float64(), variables.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := p.Publish(3.5); err != nil {
		t.Fatal(err)
	}
	// Local delivery is synchronous in the engine; no network wait.
	v, _, err := s.Get()
	if err != nil {
		t.Fatalf("Get after local publish: %v", err)
	}
	if v != 3.5 {
		t.Errorf("got %v", v)
	}
}

func TestVariableValidityStale(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")
	p, err := n.Variables().Offer("v", "svc", presentation.Int32(), qos.VariableQoS{Validity: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s, err := n.Variables().Subscribe("v", presentation.Int32(), variables.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := p.Publish(7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(); err != nil {
		t.Fatalf("fresh value: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	if _, _, err := s.Get(); !errors.Is(err, variables.ErrStale) {
		t.Errorf("want ErrStale, got %v", err)
	}
	// A republish revives it.
	if err := p.Publish(8); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Get(); err != nil || v != int32(8) {
		t.Errorf("revived value %v err %v", v, err)
	}
}

func TestVariableSilenceTimeout(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")
	var timeouts atomic.Int64
	s, err := n.Variables().Subscribe("quiet", presentation.Int32(), variables.SubscribeOptions{
		QoS:       qos.VariableQoS{Period: 20 * time.Millisecond},
		OnTimeout: func(time.Duration) { timeouts.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitUntil(t, 2*time.Second, "silence warning", func() bool { return timeouts.Load() >= 1 })
}

func TestVariableInitialSnapshot(t *testing.T) {
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "uav")
	sub := newBusNode(t, bus, "gs")
	syncNodes(t, pub, sub)

	p, err := pub.Variables().Offer("cfg", "svc", presentation.Int32(), qos.VariableQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(42); err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	waitUntil(t, 2*time.Second, "publisher visible", func() bool {
		return sub.Directory().ProviderCount(naming.KindVariable, "cfg") == 1
	})

	// The subscriber gets the last value immediately, without waiting for
	// the next periodic publish (§4.1 guaranteed initial exact value).
	s, err := sub.Variables().Subscribe("cfg", presentation.Int32(), variables.SubscribeOptions{
		RequireInitial: true,
		InitialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v, _, err := s.Get()
	if err != nil {
		t.Fatalf("Get after snapshot: %v", err)
	}
	if v != int32(42) {
		t.Errorf("initial value %v", v)
	}
}

func TestEventDeliveryAcrossNodes(t *testing.T) {
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "uav")
	sub := newBusNode(t, bus, "gs")
	syncNodes(t, pub, sub)

	p, err := pub.Events().Offer("mission.alert", "mc", presentation.String_(), qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	waitUntil(t, 2*time.Second, "event record", func() bool {
		return sub.Directory().ProviderCount(naming.KindEvent, "mission.alert") == 1
	})

	var received atomic.Value
	_, err = sub.Events().Subscribe("mission.alert", presentation.String_(), qos.EventQoS{},
		func(v any, from transport.NodeID) { received.Store(v) })
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "publisher learns subscriber", func() bool {
		return len(p.Subscribers()) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := p.Publish(ctx, "engine overheat"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	waitUntil(t, 2*time.Second, "event handler", func() bool {
		v := received.Load()
		return v != nil && v.(string) == "engine overheat"
	})
}

func TestEventGuaranteedUnderLoss(t *testing.T) {
	// Even at heavy loss the ARQ path delivers every event (§4.2).
	t.Skip("moved to the simulated-bus integration test in loss_test.go")
}

func TestRPCLocalAndRemote(t *testing.T) {
	bus := transport.NewBus()
	server := newBusNode(t, bus, "srv")
	client := newBusNode(t, bus, "cli")
	syncNodes(t, server, client)

	argT := presentation.MustParse("{a:i32,b:i32}")
	retT := presentation.Int32()
	err := server.RPC().Register("math.add", "calc", argT, retT, qos.CallQoS{},
		func(args any) (any, error) {
			m := args.(map[string]any)
			return m["a"].(int32) + m["b"].(int32), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	server.AnnounceNow()
	waitUntil(t, 2*time.Second, "function record", func() bool {
		return client.Directory().ProviderCount(naming.KindFunction, "math.add") == 1
	})

	ctx := context.Background()
	// Remote call.
	got, err := client.RPC().Call(ctx, "math.add", map[string]any{"a": 2, "b": 3}, argT, retT, qos.CallQoS{})
	if err != nil {
		t.Fatalf("remote call: %v", err)
	}
	if got != int32(5) {
		t.Errorf("remote result %v", got)
	}
	// Local call on the server node (bypass).
	got, err = server.RPC().Call(ctx, "math.add", map[string]any{"a": 10, "b": 20}, argT, retT, qos.CallQoS{})
	if err != nil {
		t.Fatalf("local call: %v", err)
	}
	if got != int32(30) {
		t.Errorf("local result %v", got)
	}
	if server.RPC().Calls("math.add") != 2 {
		t.Errorf("call count = %d", server.RPC().Calls("math.add"))
	}
}

func TestRPCAppErrorNoFailover(t *testing.T) {
	bus := transport.NewBus()
	server := newBusNode(t, bus, "srv")
	client := newBusNode(t, bus, "cli")
	syncNodes(t, server, client)

	err := server.RPC().Register("always.fails", "svc", nil, nil, qos.CallQoS{},
		func(any) (any, error) { return nil, errors.New("boom") })
	if err != nil {
		t.Fatal(err)
	}
	server.AnnounceNow()
	waitUntil(t, 2*time.Second, "function record", func() bool {
		return client.Directory().ProviderCount(naming.KindFunction, "always.fails") == 1
	})

	_, err = client.RPC().Call(context.Background(), "always.fails", nil, nil, nil, qos.CallQoS{})
	var appErr *rpc.AppError
	if !errors.As(err, &appErr) {
		t.Fatalf("want AppError, got %v", err)
	}
}

func TestRPCNoProvider(t *testing.T) {
	bus := transport.NewBus()
	client := newBusNode(t, bus, "cli")
	_, err := client.RPC().Call(context.Background(), "ghost.fn", nil, nil, nil, qos.CallQoS{})
	if err == nil {
		t.Fatal("call to unprovided function must fail")
	}
}

func TestFileTransferAcrossNodes(t *testing.T) {
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "camera")
	sub := newBusNode(t, bus, "storage")
	syncNodes(t, pub, sub)

	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := pub.Files().Offer("photo.42", "camera", data, qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	waitUntil(t, 2*time.Second, "file record", func() bool {
		return sub.Directory().ProviderCount(naming.KindFile, "photo.42") == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, rev, err := sub.Files().Fetch(ctx, "photo.42", filetransfer.FetchOptions{})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if rev != 1 {
		t.Errorf("revision = %d", rev)
	}
	if len(got) != len(data) {
		t.Fatalf("size %d vs %d", len(got), len(data))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestFileLocalBypass(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")
	data := []byte("local resource")
	if _, err := n.Files().Offer("cfg", "svc", data, qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	before := n.datagramStats().PacketsSent
	got, _, err := n.Files().Fetch(context.Background(), "cfg", filetransfer.FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("got %q", got)
	}
	if after := n.datagramStats().PacketsSent; after != before {
		t.Errorf("local fetch sent %d packets", after-before)
	}
}

// TestCloseEndsFileTransfer: closing a node ends its file transfer. A fetch
// blocked on a resource nobody offers returns ErrClosed instead of waiting
// on its never-ending context, the node's offers are closed, and no new
// offer can start.
func TestCloseEndsFileTransfer(t *testing.T) {
	bus := transport.NewBus()
	a := newBusNode(t, bus, "a")
	b := newBusNode(t, bus, "b")
	syncNodes(t, a, b)

	offer, err := b.Files().Offer("b.offers.this", "svc", []byte("rev1"), qos.TransferQoS{})
	if err != nil {
		t.Fatal(err)
	}
	fetched := make(chan error, 1)
	go func() {
		_, _, err := b.Files().Fetch(context.Background(), "nobody.offers.this", filetransfer.FetchOptions{})
		fetched <- err
	}()
	// Let the fetch block first; it must return ErrClosed either way.
	time.Sleep(50 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-fetched:
		if !errors.Is(err, filetransfer.ErrClosed) {
			t.Errorf("fetch after Close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fetch still blocked 2s after Close")
	}
	if _, err := offer.Update([]byte("rev2")); !errors.Is(err, filetransfer.ErrClosed) {
		t.Errorf("Offer.Update after Close: %v, want ErrClosed", err)
	}
	if _, err := b.Files().Offer("too.late", "svc", []byte("x"), qos.TransferQoS{}); !errors.Is(err, filetransfer.ErrClosed) {
		t.Errorf("Offer after Close: %v, want ErrClosed", err)
	}
}

func TestServiceLifecycle(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")

	svc := &testService{name: "gps"}
	rt, err := n.AddService(svc)
	if err != nil {
		t.Fatal(err)
	}
	if rt.State() != ServiceRegistered {
		t.Errorf("state = %v", rt.State())
	}
	if err := n.StartServices(); err != nil {
		t.Fatal(err)
	}
	if rt.State() != ServiceRunning {
		t.Errorf("state = %v", rt.State())
	}
	if svc.inits != 1 || svc.starts != 1 {
		t.Errorf("inits=%d starts=%d", svc.inits, svc.starts)
	}
	if err := n.StopService("gps"); err != nil {
		t.Fatal(err)
	}
	if rt.State() != ServiceStopped || svc.stops != 1 {
		t.Errorf("state=%v stops=%d", rt.State(), svc.stops)
	}
	// Stopping again is an error.
	if err := n.StopService("gps"); !errors.Is(err, ErrBadState) {
		t.Errorf("double stop: %v", err)
	}
}

type testService struct {
	name                 string
	inits, starts, stops int
	initErr              error
	onInit               func(ctx *Context) error
	manifest             Manifest
}

func (s *testService) Name() string { return s.name }
func (s *testService) Init(ctx *Context) error {
	s.inits++
	if s.onInit != nil {
		if err := s.onInit(ctx); err != nil {
			return err
		}
	}
	return s.initErr
}
func (s *testService) Start(*Context) error { s.starts++; return nil }
func (s *testService) Stop(*Context) error  { s.stops++; return nil }
func (s *testService) Manifest() Manifest   { return s.manifest }

func TestServiceResourceAdmission(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo", WithResourceBudget(ResourceBudget{MemoryKB: 1000, CPUShare: 1.0}))

	if _, err := n.AddService(&testService{name: "big", manifest: Manifest{MemoryKB: 800}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddService(&testService{name: "too-big", manifest: Manifest{MemoryKB: 300}}); !errors.Is(err, ErrAdmission) {
		t.Errorf("memory admission: %v", err)
	}
	if _, err := n.AddService(&testService{name: "cpu-hog", manifest: Manifest{CPUShare: 1.5}}); !errors.Is(err, ErrAdmission) {
		t.Errorf("cpu admission: %v", err)
	}
	if _, err := n.AddService(&testService{name: "fits", manifest: Manifest{MemoryKB: 200, CPUShare: 0.5}}); err != nil {
		t.Errorf("fitting service rejected: %v", err)
	}
}

func TestServiceExclusiveDevices(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")
	if _, err := n.AddService(&testService{name: "cam1", manifest: Manifest{Devices: []string{"/dev/video0"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddService(&testService{name: "cam2", manifest: Manifest{Devices: []string{"/dev/video0"}}}); !errors.Is(err, ErrDeviceBusy) {
		t.Errorf("device conflict: %v", err)
	}
	// Released on stop.
	if err := n.StartServices(); err != nil {
		t.Fatal(err)
	}
	if err := n.StopService("cam1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddService(&testService{name: "cam3", manifest: Manifest{Devices: []string{"/dev/video0"}}}); err != nil {
		t.Errorf("device not released: %v", err)
	}
}

func TestServiceInitFailure(t *testing.T) {
	bus := transport.NewBus()
	n := newBusNode(t, bus, "solo")
	boom := errors.New("missing dependency")
	rt, err := n.AddService(&testService{name: "bad", initErr: boom})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.StartServices(); !errors.Is(err, boom) {
		t.Errorf("StartServices: %v", err)
	}
	if rt.State() != ServiceFailed {
		t.Errorf("state = %v", rt.State())
	}
	if !errors.Is(rt.Err(), boom) {
		t.Errorf("Err = %v", rt.Err())
	}
}

func TestDependencyCheckThroughContext(t *testing.T) {
	bus := transport.NewBus()
	provider := newBusNode(t, bus, "provider")
	consumer := newBusNode(t, bus, "consumer")
	syncNodes(t, provider, consumer)

	if err := provider.RPC().Register("camera.prepare", "camera", nil, nil, qos.CallQoS{},
		func(any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	provider.AnnounceNow()
	waitUntil(t, 2*time.Second, "provider record", func() bool {
		return consumer.Directory().ProviderCount(naming.KindFunction, "camera.prepare") == 1
	})

	// E12: service with satisfied deps starts; unsatisfied fails Init.
	okSvc := &testService{name: "mc-ok", onInit: func(ctx *Context) error {
		return ctx.RequireFunctions("camera.prepare")
	}}
	if _, err := consumer.AddService(okSvc); err != nil {
		t.Fatal(err)
	}
	if err := consumer.StartServices(); err != nil {
		t.Fatalf("satisfied dependency rejected: %v", err)
	}

	badSvc := &testService{name: "mc-bad", onInit: func(ctx *Context) error {
		return ctx.RequireFunctions("camera.prepare", "ghost.fn")
	}}
	if _, err := consumer.AddService(badSvc); err != nil {
		t.Fatal(err)
	}
	if err := consumer.StartServices(); err == nil {
		t.Fatal("unsatisfied dependency must fail startup")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("x")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(WithDatagram(ep), WithAnnouncePeriod(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Error("Close must be idempotent")
	}
}

func TestByeTriggersPeerCleanup(t *testing.T) {
	bus := transport.NewBus()
	a := newBusNode(t, bus, "a")
	b := newBusNode(t, bus, "b")
	syncNodes(t, a, b)

	var failed atomic.Value
	a.OnPeerFailed(func(node transport.NodeID) { failed.Store(node) })

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "bye cleanup", func() bool {
		v := failed.Load()
		return v != nil && v.(transport.NodeID) == "b"
	})
}

func TestPEPtPluggability(t *testing.T) {
	// F4: swap encoding and scheduler; everything still works.
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "pub", WithEncoding(debugEnc()), WithScheduler(inlineSched()))
	sub := newBusNode(t, bus, "sub", WithEncoding(debugEnc()), WithScheduler(inlineSched()))
	syncNodes(t, pub, sub)

	p, err := pub.Variables().Offer("v", "svc", gpsType, qos.VariableQoS{})
	if err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	s, err := sub.Variables().Subscribe("v", gpsType, variables.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitUntil(t, 2*time.Second, "debug-encoded sample", func() bool {
		if err := p.Publish(gpsValue(40.0)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		v, _, err := s.Get()
		return err == nil && v.(map[string]any)["lat"] == 40.0
	})
}

// datagramStats exposes transport counters to the tests.
func (n *Node) datagramStats() transport.Stats { return n.links.Bearers()[0].Transport.Stats() }

// debugEnc and inlineSched are the alternate PEPt plugins used by the
// pluggability test.
func debugEnc() encoding.Encoding      { return encoding.Debug{} }
func inlineSched() scheduler.Scheduler { return scheduler.NewInline() }

func TestEventUnsubscribeStopsDelivery(t *testing.T) {
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "pub")
	sub := newBusNode(t, bus, "sub")
	syncNodes(t, pub, sub)

	p, err := pub.Events().Offer("topic", "svc", nil, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	waitUntil(t, 2*time.Second, "event record", func() bool {
		return sub.Directory().ProviderCount(naming.KindEvent, "topic") == 1
	})
	var count atomic.Int64
	es, err := sub.Events().Subscribe("topic", nil, qos.EventQoS{},
		func(any, transport.NodeID) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "subscriber", func() bool { return len(p.Subscribers()) == 1 })

	ctx := context.Background()
	if err := p.Publish(ctx, nil); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "first delivery", func() bool { return count.Load() == 1 })

	es.Close()
	waitUntil(t, 2*time.Second, "unsubscribe", func() bool { return len(p.Subscribers()) == 0 })
	if err := p.Publish(ctx, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if count.Load() != 1 {
		t.Errorf("event delivered after unsubscribe: %d", count.Load())
	}
}

func TestFileRevisionWatch(t *testing.T) {
	bus := transport.NewBus()
	pub := newBusNode(t, bus, "pub")
	sub := newBusNode(t, bus, "sub")
	syncNodes(t, pub, sub)

	offer, err := pub.Files().Offer("fw", "svc", []byte("rev1-data"), qos.TransferQoS{})
	if err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	waitUntil(t, 2*time.Second, "file record", func() bool {
		return sub.Directory().ProviderCount(naming.KindFile, "fw") == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type delivery struct {
		rev  uint64
		data string
	}
	got := make(chan delivery, 4)
	go func() {
		_ = sub.Files().Watch(ctx, "fw", filetransfer.FetchOptions{}, func(data []byte, rev uint64) {
			got <- delivery{rev: rev, data: string(data)}
		})
	}()

	select {
	case d := <-got:
		if d.rev != 1 || d.data != "rev1-data" {
			t.Fatalf("first delivery %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first delivery timeout")
	}

	if _, err := offer.Update([]byte("rev2-data")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if d.rev != 2 || d.data != "rev2-data" {
			t.Fatalf("second delivery %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("revision change not delivered")
	}
}
