package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// fanIn is the scenario E15 and E17 share, and the one figure of either
// that only a scenario can produce: `senders` publisher containers each
// offer a uint32 variable, one ground-station container subscribes to all
// of them, and a simulated bus carries the traffic under the injected clock.
// Once every flow has delivered a first sample, each publisher sends
// `samples` values 2ms apart; the report records what arrived and what the
// window cost on the wire, discovery heartbeats included (they are part of
// steady-state cost). Under the virtual clock a seed fixes every figure.
// The per-frame allocation gates of the path it exercises are package
// tests: the pooled codec's in internal/protocol, the receive path's in
// internal/core (TestReceivePathAllocs).
type fanIn struct {
	// name stems the variable names: <name>.pos, or <name>.pos<i> (and
	// publisher uav<i>) when there are several senders.
	name    string
	senders int
	latency time.Duration
	// shards sizes the subscriber's ingress pipeline; 0 keeps the default.
	shards int
}

func (s fanIn) report(clk clock.Clock, seed int64, samples int) (*Report, error) {
	clk = clock.Or(clk)
	net := transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: s.latency, Clock: clk})
	defer net.Close()

	period := core.WithAnnouncePeriod(100 * time.Millisecond)
	gs, err := simNode(clk, net, "gs", period, core.WithIngressShards(s.shards))
	if err != nil {
		return nil, err
	}
	defer func() { _ = gs.Close() }()

	typ := presentation.Uint32()
	var delivered atomic.Int64
	pubs := make([]*variables.Publisher, s.senders)
	for i := range pubs {
		id, name := transport.NodeID("uav"), s.name+".pos"
		if s.senders > 1 {
			id, name = transport.NodeID(fmt.Sprintf("uav%d", i)), fmt.Sprintf("%s%d", name, i)
		}
		uav, err := simNode(clk, net, id, period)
		if err != nil {
			return nil, err
		}
		defer func() { _ = uav.Close() }()
		if pubs[i], err = uav.Variables().Offer(name, "bench", typ, qos.VariableQoS{Validity: time.Hour}); err != nil {
			return nil, err
		}
		if err := waitProviders(clk, gs, naming.KindVariable, name, 1, 5*time.Second); err != nil {
			return nil, err
		}
		sub, err := gs.Variables().Subscribe(name, typ, variables.SubscribeOptions{
			OnSample: func(any, time.Time) { delivered.Add(1) },
		})
		if err != nil {
			return nil, err
		}
		defer sub.Close()
	}

	if err := warmUp(clk, 5*time.Second, pubs, delivered.Load, int64(s.senders)); err != nil {
		return nil, err
	}
	w, err := publishWindow(clk, net, pubs, delivered.Load, s.senders, samples, 5*time.Second)
	if err != nil {
		return nil, err
	}
	var perSample float64
	if w.delivered > 0 {
		perSample = float64(w.bytes) / float64(w.delivered)
	}
	r := &Report{Snapshot: gs.MetricsSnapshot().Text()}
	r.Notef("netsim: %d sender(s) x %d samples, %d delivered; %d packets %d bytes on the wire (%.1f B/sample)",
		rec("netsim_senders", s.senders), rec("netsim_samples", samples), rec("netsim_delivered", w.delivered),
		rec("netsim_wire_packets", w.packets), rec("netsim_wire_bytes", w.bytes), rec("netsim_bytes_per_sample", perSample))
	return r, nil
}

// warmUp publishes 0 on every publisher each 5ms until heard reaches want:
// every subscription has landed and delivered once.
func warmUp(clk clock.Clock, timeout time.Duration, pubs []*variables.Publisher, heard func() int64, want int64) error {
	deadline := clk.Now().Add(timeout)
	for heard() < want {
		if clk.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d deliveries", heard(), want)
		}
		for _, p := range pubs {
			if err := p.Publish(uint32(0)); err != nil {
				return err
			}
		}
		clk.Sleep(5 * time.Millisecond)
	}
	return nil
}

// window is what one publish window delivered and cost on the wire.
type window struct {
	delivered      int64
	packets, bytes uint64
}

// publishWindow publishes `samples` rounds, value i+1 on every publisher
// 2ms apart, then waits up to timeout for perRound deliveries per round.
func publishWindow(clk clock.Clock, net *transport.Bus, pubs []*variables.Publisher, heard func() int64, perRound, samples int, timeout time.Duration) (window, error) {
	startPkts, startBytes, _ := net.WireStats()
	before := heard()
	for i := 0; i < samples; i++ {
		for _, p := range pubs {
			if err := p.Publish(uint32(i + 1)); err != nil {
				return window{}, err
			}
		}
		clk.Sleep(2 * time.Millisecond)
	}
	want := before + int64(samples*perRound)
	await(clk, timeout, 5*time.Millisecond, func() bool { return heard() >= want })
	pkts, bytes, _ := net.WireStats()
	return window{delivered: heard() - before, packets: pkts - startPkts, bytes: bytes - startBytes}, nil
}
