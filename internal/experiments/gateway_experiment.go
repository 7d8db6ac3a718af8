package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/gateway"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// E16 quantifies the ground gateway's scale contract: N external clients
// following live telemetry through one gateway must cost the air link
// nothing extra and the gateway a flat, allocation-free amount per
// client.
//
// Three phases:
//
//   - sweep (virtual time): 1k/10k/100k in-memory clients behind one
//     gateway node that subscribes once over a simulated air link. The
//     air-side bytes per published sample must be flat in the client
//     count — the whole point of shared-subscription multiplexing.
//   - alloc (real clock): marginal allocations per delivered sample per
//     client across a small and a large audience, via the public
//     subscribe path. The encode is paid once per occurrence; the
//     per-client delta must pin at zero.
//   - slow (virtual time): per-sample completion latency across 1k healthy
//     clients, clean and beside stalled consumers; the stalled ones must be
//     evicted, and no healthy delivery may wait behind a stalled write.
type E16Result struct {
	Sweep []E16SweepPoint
	Alloc E16AllocResult
	Slow  E16SlowResult
	// AirFlatnessRatio is bytes-per-sample at the largest sweep point
	// over the smallest — ~1.0 when the air link is truly flat.
	AirFlatnessRatio float64
	// MetricsText is the gateway node's observability snapshot from the
	// largest sweep point (gateway.* families included).
	MetricsText string
}

// E16SweepPoint is one client-count point of the virtual-time sweep.
type E16SweepPoint struct {
	Clients   int
	Samples   int
	Delivered int64 // frames received across all clients
	// AirPackets/AirBytes is simulated-wire cost during the publish
	// window (discovery heartbeats included; they are steady-state).
	AirPackets, AirBytes uint64
	AirBytesPerSample    float64
	// ClientBytes is what the gateway pushed to external consumers.
	ClientBytes int64
}

// E16AllocResult is the fan-out allocation gate.
type E16AllocResult struct {
	SmallClients, BigClients int
	SmallPerSample           float64 // allocs per delivered sample, small audience
	BigPerSample             float64
	// PerClientMarginal is (big-small)/(bigClients-smallClients): the
	// steady-state allocation cost of one more client per sample.
	PerClientMarginal float64
}

// E16SlowResult is the slow-consumer isolation phase.
type E16SlowResult struct {
	HealthyClients int
	StalledClients int
	Samples        int
	Evicted        int64
	// Per-sample completion latency (publish → last healthy delivery).
	BaselineP50Ms, BaselineP99Ms float64
	StalledP50Ms, StalledP99Ms   float64
	// StalledMaxMs is the slowest completion with stalled clients attached.
	StalledMaxMs float64
}

// e16Conn counts delivered frames and bytes; never blocks. One value
// stands in for every client of a run, so it counts their sum.
type e16Conn struct {
	frames, bytes atomic.Int64
	want          atomic.Int64
	reached       clock.Trigger // if set, signalled by the write that brings frames to want
}

func (c *e16Conn) Write(p []byte) (int, error) {
	c.bytes.Add(int64(len(p)))
	if n := c.frames.Add(1); c.reached != nil && n == c.want.Load() {
		c.reached.Signal()
	}
	return len(p), nil
}
func (c *e16Conn) Close() error                     { return nil }
func (c *e16Conn) SetWriteDeadline(time.Time) error { return nil }

// e16StallConn models a jammed consumer: writes park on the run's clock
// until the deadline and fail with a timeout. Close wakes a parked write.
type e16StallConn struct {
	clk      clock.Clock
	wake     clock.Trigger
	deadline atomic.Int64 // unix nanos on clk
}

func (c *e16StallConn) Write(p []byte) (int, error) {
	if d := time.Unix(0, c.deadline.Load()).Sub(c.clk.Now()); d > 0 && !c.wake.Wait(d) {
		return 0, os.ErrClosed
	}
	return 0, os.ErrDeadlineExceeded
}
func (c *e16StallConn) Close() error {
	c.wake.Close()
	return nil
}
func (c *e16StallConn) SetWriteDeadline(t time.Time) error {
	c.deadline.Store(t.UnixNano())
	return nil
}

// RunE16 runs the sweep at the given client counts (sorted ascending)
// with `samples` published points per sweep step.
func RunE16(clk clock.Clock, clientCounts []int, samples int, seed int64) (*E16Result, error) {
	clk = clock.Or(clk)
	res := &E16Result{}

	for i, n := range clientCounts {
		pt, metrics, err := e16Sweep(clk, n, samples, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("e16 sweep %d clients: %w", n, err)
		}
		res.Sweep = append(res.Sweep, pt)
		res.MetricsText = metrics
	}
	if len(res.Sweep) > 1 {
		first, last := res.Sweep[0], res.Sweep[len(res.Sweep)-1]
		if first.AirBytesPerSample > 0 {
			res.AirFlatnessRatio = last.AirBytesPerSample / first.AirBytesPerSample
		}
	} else if len(res.Sweep) == 1 {
		res.AirFlatnessRatio = 1
	}

	alloc, err := e16Alloc()
	if err != nil {
		return nil, fmt.Errorf("e16 alloc: %w", err)
	}
	res.Alloc = alloc

	slow, err := e16Slow(clk, samples, seed)
	if err != nil {
		return nil, fmt.Errorf("e16 slow: %w", err)
	}
	res.Slow = slow
	return res, nil
}

// e16Pair builds a uav publisher node and a gateway-hosting node on one
// simulated medium. The caller owns them through teardown, which closes
// the gateway (its clients and fabric subscriptions), the gateway's node,
// the uav node and the medium, in that order.
func e16Pair(clk clock.Clock, seed int64, opts gateway.Options) (sim *transport.Bus, g *gateway.Gateway, pub *variables.Publisher, teardown func(), err error) {
	sim = transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: 2 * time.Millisecond, Clock: clk})
	var uav, gs *core.Node
	teardown = func() {
		if g != nil {
			g.Close()
		}
		for _, n := range []*core.Node{gs, uav} {
			if n != nil {
				_ = n.Close()
			}
		}
		sim.Close()
	}
	defer func() {
		if err != nil {
			teardown()
		}
	}()
	if uav, err = simNode(clk, sim, "uav", core.WithAnnouncePeriod(100*time.Millisecond)); err != nil {
		return
	}
	if gs, err = simNode(clk, sim, "gs", core.WithAnnouncePeriod(100*time.Millisecond)); err != nil {
		return
	}
	if pub, err = uav.Variables().Offer("e16.pos", "bench", presentation.Uint32(), qos.VariableQoS{Validity: time.Hour}); err != nil {
		return
	}
	if err = waitProviders(clk, gs, naming.KindVariable, "e16.pos", 1, 5*time.Second); err != nil {
		return
	}
	return sim, gateway.New(gs, opts), pub, teardown, nil
}

// e16Sweep runs one virtual-time point: n clients, `samples` published
// values, air-link cost measured over the publish window.
func e16Sweep(clk clock.Clock, n, samples int, seed int64) (E16SweepPoint, string, error) {
	pt := E16SweepPoint{Clients: n, Samples: samples}
	sim, g, pub, teardown, err := e16Pair(clk, seed, gateway.Options{Shards: 8, QueueLen: 8})
	if err != nil {
		return pt, "", err
	}
	defer teardown()

	var c e16Conn
	if err := attach(g, n, "e16.pos", func() gateway.Conn { return &c }); err != nil {
		return pt, "", err
	}
	// Every client hears a sample (group join and first fan-out landed)
	// before the measured window.
	pubs := []*variables.Publisher{pub}
	if err := warmUp(clk, 10*time.Second, pubs, c.frames.Load, int64(n)); err != nil {
		return pt, "", err
	}
	startClientBytes := c.bytes.Load()
	w, err := publishWindow(clk, sim, pubs, c.frames.Load, n, samples, 10*time.Second)
	if err != nil {
		return pt, "", err
	}
	pt.Delivered, pt.AirPackets, pt.AirBytes = w.delivered, w.packets, w.bytes
	pt.ClientBytes = c.bytes.Load() - startClientBytes
	if samples > 0 {
		pt.AirBytesPerSample = float64(pt.AirBytes) / float64(samples)
	}
	return pt, g.Node().MetricsSnapshot().Text(), nil
}

// e16AllocPoint measures allocations per delivered sample with n clients
// attached, publish→encode→fan-out→write inclusive, on a quiet
// real-clock node with a local publisher (no air traffic in the loop).
func e16AllocPoint(n int) (float64, error) {
	sim := transport.NewSimBus(transport.SimConfig{Seed: 99, Latency: time.Millisecond})
	defer sim.Close()
	ep, err := sim.Endpoint("gs")
	if err != nil {
		return 0, err
	}
	node, err := core.NewNode(core.WithDatagram(ep), core.WithAnnouncePeriod(time.Hour))
	if err != nil {
		return 0, err
	}
	defer func() { _ = node.Close() }()

	pub, err := node.Variables().Offer("e16.alloc", "bench", presentation.Uint32(), qos.VariableQoS{Validity: time.Hour})
	if err != nil {
		return 0, err
	}
	node.AnnounceNow() // installs the record in the local directory
	g := gateway.New(node, gateway.Options{Shards: 4, QueueLen: 8})
	defer g.Close()

	var c e16Conn
	if err := attach(g, n, "e16.alloc", func() gateway.Conn { return &c }); err != nil {
		return 0, err
	}

	var v atomic.Uint32
	op := func() {
		want := c.frames.Load() + int64(n)
		if err := pub.Publish(v.Add(1)); err != nil {
			panic(err)
		}
		for c.frames.Load() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 16; i++ {
		op()
	}
	runtime.GC()
	return testing.AllocsPerRun(100, op), nil
}

// e16Alloc computes the marginal per-client allocation cost.
func e16Alloc() (E16AllocResult, error) {
	const small, big = 16, 256
	res := E16AllocResult{SmallClients: small, BigClients: big}
	var err error
	if res.SmallPerSample, err = e16AllocPoint(small); err != nil {
		return res, err
	}
	if res.BigPerSample, err = e16AllocPoint(big); err != nil {
		return res, err
	}
	res.PerClientMarginal = (res.BigPerSample - res.SmallPerSample) / float64(big-small)
	return res, nil
}

// e16WriteStall is the slow-consumer phase's per-write deadline: how long
// one stalled write holds whatever waits behind it.
const e16WriteStall = 50 * time.Millisecond

// e16SlowRun measures per-sample completion latency (publish → last
// healthy delivery) across `healthy` clients with `stalled` jammed
// consumers attached, on clk.
func e16SlowRun(clk clock.Clock, healthy, stalled, samples int, seed int64) (lat []time.Duration, evicted int64, err error) {
	_, g, pub, teardown, err := e16Pair(clk, seed, gateway.Options{
		Shards:     8,
		QueueLen:   16,
		WriteStall: e16WriteStall,
		StallLimit: 3,
	})
	if err != nil {
		return nil, 0, err
	}
	defer teardown()

	c := e16Conn{reached: clock.NewTrigger(clk)}
	if err := attach(g, healthy, "e16.pos", func() gateway.Conn { return &c }); err != nil {
		return nil, 0, err
	}
	if err := attach(g, stalled, "e16.pos", func() gateway.Conn {
		return &e16StallConn{clk: clk, wake: clock.NewTrigger(clk)}
	}); err != nil {
		return nil, 0, err
	}

	// Warm-up: every healthy client hears a sample; the stalled clients
	// take their one fast-path stall here, outside the measured window.
	if err := warmUp(clk, 10*time.Second, []*variables.Publisher{pub}, c.frames.Load, int64(healthy)); err != nil {
		return nil, 0, err
	}

	lat = make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		want := c.frames.Load() + int64(healthy)
		c.want.Store(want)
		t0 := clk.Now()
		if err := pub.Publish(uint32(i + 1)); err != nil {
			return nil, 0, err
		}
		for end := t0.Add(2 * time.Second); c.frames.Load() < want; {
			left := end.Sub(clk.Now())
			if left <= 0 {
				return nil, 0, fmt.Errorf("sample %d: %d/%d deliveries", i, c.frames.Load()-(want-int64(healthy)), healthy)
			}
			c.reached.Wait(left)
		}
		lat = append(lat, clk.Since(t0))
		clk.Sleep(time.Millisecond)
	}

	// Stalled clients must be gone: the third 50ms miss lands about when
	// the measured window ends, so wait for it.
	evictions := func() int64 { return int64(g.Node().Metrics().SumCounters("gateway", "evictions")) }
	await(clk, 5*time.Second, 10*time.Millisecond, func() bool { return evictions() >= int64(stalled) })
	return lat, evictions(), nil
}

// e16Slow runs the clean baseline and the stalled-consumer run on clk.
func e16Slow(clk clock.Clock, samples int, seed int64) (E16SlowResult, error) {
	const healthy, stalled = 1000, 4
	if samples < 50 {
		samples = 50
	}
	res := E16SlowResult{HealthyClients: healthy, StalledClients: stalled, Samples: samples}
	lat, evicted, err := e16SlowRun(clk, healthy, 0, samples, seed)
	if err != nil {
		return res, err
	}
	if evicted != 0 {
		return res, fmt.Errorf("baseline run evicted %d clients", evicted)
	}
	res.BaselineP50Ms, res.BaselineP99Ms = ms(quantile(lat, 0.50)), ms(quantile(lat, 0.99))
	if lat, res.Evicted, err = e16SlowRun(clk, healthy, stalled, samples, seed+1); err != nil {
		return res, err
	}
	res.StalledP50Ms, res.StalledP99Ms, res.StalledMaxMs = ms(quantile(lat, 0.50)), ms(quantile(lat, 0.99)), ms(quantile(lat, 1))
	return res, nil
}

// attach connects n clients to g, each on a conn from newConn and
// subscribed to the variable topic.
func attach(g *gateway.Gateway, n int, topic string, newConn func() gateway.Conn) error {
	for i := 0; i < n; i++ {
		c, err := g.Attach(newConn())
		if err != nil {
			return err
		}
		if err := c.Subscribe(gateway.StreamVariable, topic); err != nil {
			return err
		}
	}
	return nil
}
