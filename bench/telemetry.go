package main

import (
	"fmt"
	"math/rand"
	"time"

	"uavmw/internal/ingress"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/services"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

const (
	telemetrySources = 2
	telemetryTopics  = 4 // per source
	telemetryWindow  = 64
	telemetryTimeout = time.Second
)

// telemetry is telemetry_closed (§4.1): two sources × four position
// variables → one sink over the in-process bus, one generator, closed
// loop on a credit window.
type telemetry struct {
	*harness
	pubs   []*variables.Publisher
	pools  []valuePool
	order  []int
	seq    []uint32
	window *creditWindow
}

// telemetryIdent finds a sample's trace id: the generator writes the topic
// into fix and the per-topic sequence number into wp, and the variable
// engine numbers sample frames with the same per-publisher sequence.
type telemetryIdent struct{ flows map[string]uint32 }

func (telemetryIdent) value(_ *presentation.Type, v any) (traceID, bool) {
	m, _ := v.(map[string]any)
	fix, ok1 := m["fix"].(uint8)
	wp, ok2 := m["wp"].(uint32)
	if !ok1 || !ok2 {
		return traceID{}, false
	}
	return traceID{flow: uint32(fix) + 1, seq: wp}, false
}

func (ti telemetryIdent) frame(f *protocol.Frame) (traceID, bool) {
	if f.Type != protocol.MTSample {
		return traceID{}, false
	}
	return traceID{flow: ti.flows[f.Channel], seq: uint32(f.Seq)}, false
}

// sourceIDs picks source node ids that the sink's ingress pipeline hashes
// onto different shards, so both shard workers carry load.
func sourceIDs(n, shards int) []transport.NodeID {
	ids := make([]transport.NodeID, 0, n)
	used := make(map[int]bool)
	for i := 0; len(ids) < n; i++ {
		id := transport.NodeID(fmt.Sprintf("src-%d", i))
		sh := ingress.ShardFor(id, shards)
		if used[sh] && len(used) < shards {
			continue
		}
		used[sh] = true
		ids = append(ids, id)
	}
	return ids
}

func buildTelemetry(seed int64, tr *tracer) (_ instance, err error) {
	rng := rand.New(rand.NewSource(seed))
	w := &telemetry{
		harness: newHarness(tr),
		window:  newCreditWindow(telemetryWindow, telemetryTimeout),
	}
	defer w.closeOnError(&err)
	ident := telemetryIdent{flows: make(map[string]uint32)}
	if tr != nil {
		tr.ident = ident
	}
	bus := transport.NewBus()
	sink, err := w.addBusNode(bus, "sink")
	if err != nil {
		return nil, err
	}
	for _, id := range sourceIDs(telemetrySources, sink.IngressShards()) {
		src, err := w.addBusNode(bus, id)
		if err != nil {
			return nil, err
		}
		for t := 0; t < telemetryTopics; t++ {
			idx := len(w.pubs)
			name := topicName("nav.position", idx)
			ident.flows[name] = uint32(idx) + 1
			pub, err := src.Variables().Offer(name, "bench", services.TypePosition, qos.VariableQoS{})
			if err != nil {
				return nil, err
			}
			w.pubs = append(w.pubs, pub)
			w.pools = append(w.pools, positionPool(rng, uint8(idx)))
			if _, err := sink.Variables().Subscribe(name, services.TypePosition, variables.SubscribeOptions{
				OnSample: func(v any, _ time.Time) { w.onSample(idx, v) },
			}); err != nil {
				return nil, err
			}
		}
	}
	w.order = rng.Perm(len(w.pubs)) // the seeded order the generator visits topics in
	w.seq = make([]uint32, len(w.pubs))

	if err := w.discovered(); err != nil {
		return nil, fmt.Errorf("telemetry_closed: %w", err)
	}
	// First correct op: one sample through the whole path.
	w.window.acquire(nil)
	if !w.publish(w.order[0]) {
		return nil, fmt.Errorf("telemetry_closed: first publish failed")
	}
	if err := waitFor("first sample", 5*time.Second, func() bool { return w.ok.Load() > 0 }); err != nil {
		return nil, fmt.Errorf("telemetry_closed: %w", err)
	}
	return w, nil
}

// publish sends the next sample of one topic. The caller holds a credit.
func (w *telemetry) publish(topic int) bool {
	w.seq[topic]++
	seq := w.seq[topic]
	v := w.pools[topic].send[int(seq)%poolSize]
	v["wp"] = seq
	key := uint64(topic)<<32 | uint64(seq)
	w.attempted.Add(1)
	w.window.issue(key, time.Now())
	t0 := w.tr.start()
	err := w.pubs[topic].Publish(v)
	w.tr.finishCall(t0, traceID{flow: uint32(topic) + 1, seq: seq})
	if err != nil {
		w.window.cancel(key)
		w.fail(err.Error())
		return false
	}
	return true
}

// onSample is the subscriber callback: an op completes when the sample's
// sequence number is in flight and every field round-tripped.
func (w *telemetry) onSample(topic int, v any) {
	now := time.Now()
	got, _ := v.(map[string]any)
	seq, _ := got["wp"].(uint32)
	t0 := w.tr.start()
	defer w.tr.finishCallback(t0, traceID{flow: uint32(topic) + 1, seq: seq})
	lat, inflight := w.window.complete(uint64(topic)<<32|uint64(seq), now)
	if !inflight {
		return // already counted lost, or a duplicate
	}
	if !valueMatches(got, w.pools[topic].want[int(seq)%poolSize], "wp", seq) {
		w.fail("sample fields differ from the ones published")
		return
	}
	w.good(lat)
}

func (w *telemetry) run() {
	w.wg.Add(2)
	go func() {
		defer w.wg.Done()
		for i := 1; w.window.acquire(w.stopCh); i++ {
			w.publish(w.order[i%len(w.order)])
		}
	}()
	go func() {
		defer w.wg.Done()
		for sleepStop(100*time.Millisecond, w.stopCh) {
			w.failN(telemetryLost, uint64(w.window.expire(time.Now())))
		}
	}()
}

func (w *telemetry) stop() {
	w.stopGenerators()
	// Let the last window drain; whatever is still out is lost.
	_ = waitFor("drain", telemetryTimeout, func() bool { return w.window.outstanding() == 0 })
	w.failN(telemetryLost, uint64(w.window.outstanding()))
}

const telemetryLost = "sample not delivered within 1 s"
