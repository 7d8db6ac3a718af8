package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/core"
	"uavmw/internal/egress"
	"uavmw/internal/encoding"
	"uavmw/internal/events"
	"uavmw/internal/filetransfer"
	"uavmw/internal/ingress"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/rpc"
	"uavmw/internal/scheduler"
	"uavmw/internal/services"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// Isolated stage costs: each layer's exported entry points driven alone,
// with the workload's own value type, value and frame size, so the
// per-layer ledger has a cost per item that the in-situ figures and the
// end-to-end CPU per op can be set against.

// stageInput is what a workload's messages look like to the layers.
type stageInput struct {
	typ     *presentation.Type
	val     any
	channel string
	prio    qos.Priority
	// header is the primitive's own payload prefix around the encoded
	// value (sample header, event header, call id, chunk header).
	header int
}

// Each workload's stage input: one of its generated values, its channel
// name, its priority class and its payload header size.
func telemetryStage(rng *rand.Rand) stageInput {
	return stageInput{services.TypePosition, positionPool(rng, 0).send[1], topicName("nav.position", 0), qos.PriorityNormal, 16}
}

func alarmStage(rng *rand.Rand) stageInput {
	return stageInput{services.TypeDetection, detectionPool(rng, alarmTopic).send[1], alarmTopic, qos.PriorityCritical, 12}
}

func rpcStage(rng *rand.Rand) stageInput {
	return stageInput{services.TypePosition, positionPool(rng, 0).send[1], topicName("nav.resolve", 0), qos.PriorityNormal, 8}
}

func fileStage(rng *rand.Rand) stageInput {
	chunk, _ := fileBytes(rng, filetransfer.DefaultChunkSize)
	return stageInput{presentation.Bytes(), chunk, fileName, qos.PriorityBulk, 16}
}

const (
	stageRuns = 5
	stageMinN = 64
	stageMaxN = 100_000
)

// measureStage times run(n), which must process n items and return when
// they are done. It calibrates n so one run fills the budget (at most
// 100 k items), then reports the fastest of five runs in ns per item and
// the mean heap allocations per item over all five.
func measureStage(budget time.Duration, run func(n int)) (ns, allocs float64) {
	n := stageMinN
	var per time.Duration
	for {
		t0 := time.Now()
		run(n)
		d := time.Since(t0)
		per = d / time.Duration(n)
		if d >= 2*time.Millisecond || n >= stageMaxN {
			break
		}
		n *= 4
	}
	if per <= 0 {
		per = 1
	}
	n = int(budget / per)
	if n < stageMinN {
		n = stageMinN
	}
	if n > stageMaxN {
		n = stageMaxN
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := time.Duration(1 << 62)
	for i := 0; i < stageRuns; i++ {
		t0 := time.Now()
		run(n)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&after)
	return float64(best.Nanoseconds()) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(stageRuns*n)
}

// handoffGap is the idle time before each hand-off: as long as
// alarm_paced_udp's period, and long enough for the runtime to park its
// threads, so the hand-off pays the wake-up an idle plane pays.
const handoffGap = alarmPeriod

// measureHandoff times one() — hand one item to an idle layer and block
// until it comes out — after an idle gap each time, and reports the
// fastest of five runs' medians in ns. Only the hand-off is timed, not
// the gap.
func measureHandoff(items int, one func()) float64 {
	best := int64(1 << 62)
	samples := make([]int64, items)
	for run := 0; run < stageRuns; run++ {
		for i := range samples {
			time.Sleep(handoffGap)
			t0 := time.Now()
			one()
			samples[i] = int64(time.Since(t0))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		if med := samples[len(samples)/2]; med < best {
			best = med
		}
	}
	return float64(best)
}

// each adapts a one-item function to measureStage.
func each(fn func()) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			fn()
		}
	}
}

// stageWindow is how many items a saturated stage keeps queued ahead of
// the consumer: enough that the queue is never empty, below every ring
// and lane capacity so nothing drops.
const stageWindow = 128

// windowed drives an asynchronous stage saturated: produce is called n
// times, never more than stageWindow items ahead of done(), which reports
// how many items the consumer has finished.
func windowed(n int, produce func(i int), done func() int, wake <-chan struct{}) {
	base := done()
	for i := 0; i < n; i++ {
		for i-(done()-base) >= stageWindow {
			<-wake
		}
		produce(i)
	}
	for done()-base < n {
		<-wake
	}
}

// counter is a consumer-side item count with a wake-up for the producer.
type counter struct {
	n    atomic.Int64
	wake chan struct{}
}

func newCounter() *counter { return &counter{wake: make(chan struct{}, 1)} }

func (c *counter) add(k int) {
	c.n.Add(int64(k))
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *counter) done() int { return int(c.n.Load()) }

// await runs produce and blocks until the consumer has finished one more
// item.
func (c *counter) await(produce func()) {
	before := c.done()
	produce()
	for c.done() == before {
		<-c.wake
	}
}

// nullSender is an egress.Sender / transport that discards datagrams and
// counts the frames in them (a coalesced batch carries several).
type nullSender struct{ frames *counter }

func countFrames(payload []byte) int {
	n := 0
	framesIn(payload, func(*protocol.Frame) { n++ })
	return n
}

func (s nullSender) Send(_ transport.NodeID, payload []byte) error {
	s.frames.add(countFrames(payload))
	return nil
}

func (s nullSender) SendGroup(_ string, payload []byte) error {
	s.frames.add(countFrames(payload))
	return nil
}

// nullFabric is the fabric.Fabric the engine stages run on: sends are
// accepted and dropped (reliable ones complete at once), scheduled work
// runs inline, and the last frame sent can be captured so the receive
// stages replay exactly what the send stages produced.
type nullFabric struct {
	enc     encoding.Encoding
	dir     *naming.Directory
	seq     atomic.Uint64
	capture bool
	last    protocol.Frame
}

func newNullFabric() *nullFabric {
	return &nullFabric{enc: encoding.Binary{}, dir: naming.NewDirectory(0)}
}

func (f *nullFabric) Self() transport.NodeID       { return "stage" }
func (f *nullFabric) Encoding() encoding.Encoding  { return f.enc }
func (f *nullFabric) Directory() *naming.Directory { return f.dir }
func (f *nullFabric) NextSeq() uint64              { return f.seq.Add(1) }
func (f *nullFabric) Join(string) error            { return nil }
func (f *nullFabric) Leave(string) error           { return nil }
func (f *nullFabric) OfferChanged()                {}

func (f *nullFabric) Schedule(_ qos.Priority, job func()) error {
	job()
	return nil
}

func (f *nullFabric) keep(fr *protocol.Frame) {
	if f.capture {
		f.last = *fr
		f.last.Payload = append([]byte(nil), fr.Payload...)
	}
}

func (f *nullFabric) SendBestEffort(_ transport.NodeID, fr *protocol.Frame) error {
	f.keep(fr)
	return nil
}

func (f *nullFabric) SendGroup(_ string, fr *protocol.Frame) error {
	f.keep(fr)
	return nil
}

func (f *nullFabric) SendReliable(_ transport.NodeID, fr *protocol.Frame, _ qos.Reliability, done func(error)) {
	f.keep(fr)
	if done != nil {
		done(nil)
	}
}

// ackingTransport is the null transport of the core stages: it discards
// everything and acknowledges each ack-required frame at once, as the
// peer's container would, so reliable sends complete instead of
// retransmitting into later stages.
type ackingTransport struct {
	id      transport.NodeID
	peer    transport.NodeID
	handler atomic.Pointer[transport.Handler]
	frames  *counter
}

func (t *ackingTransport) Node() transport.NodeID         { return t.id }
func (t *ackingTransport) Join(string) error              { return nil }
func (t *ackingTransport) Leave(string) error             { return nil }
func (t *ackingTransport) Stats() transport.Stats         { return transport.Stats{} }
func (t *ackingTransport) Close() error                   { return nil }
func (t *ackingTransport) SetHandler(h transport.Handler) { t.handler.Store(&h) }

func (t *ackingTransport) SendGroup(_ string, payload []byte) error {
	t.frames.add(countFrames(payload))
	return nil
}

func (t *ackingTransport) Send(_ transport.NodeID, payload []byte) error {
	n := 0
	framesIn(payload, func(f *protocol.Frame) {
		n++
		if f.Flags&protocol.FlagAckRequired == 0 {
			return
		}
		ack, err := protocol.EncodeFrame(&protocol.Frame{Type: protocol.MTAck, Priority: f.Priority, Seq: f.Seq})
		if h := t.handler.Load(); err == nil && h != nil {
			(*h)(transport.Packet{From: t.peer, To: t.id, Payload: ack})
		}
	})
	t.frames.add(n)
	return nil
}

// runStages measures every isolated stage with w's inputs and returns the
// "<layer>.<stage>_ns" and "_allocs" figures.
func runStages(w *workload, seed int64, ef effort) (map[string]float64, error) {
	in := w.stage(rand.New(rand.NewSource(seed)))
	out := make(map[string]float64)
	pair := func(name string, run func(n int)) {
		ns, allocs := measureStage(ef.stageBudget, run)
		out[name+"_ns"] = ns
		out[name+"_allocs"] = allocs
	}
	nsOnly := func(name string, run func(n int)) {
		out[name], _ = measureStage(ef.stageBudget, run)
	}
	handoff := func(name string, one func()) { out[name] = measureHandoff(ef.handoffItems, one) }

	// presentation, encoding
	cv, err := presentation.Coerce(in.typ, in.val)
	if err != nil {
		return nil, fmt.Errorf("stages: coerce: %w", err)
	}
	var enc encoding.Encoding = encoding.Binary{}
	body, err := enc.Marshal(in.typ, cv)
	if err != nil {
		return nil, fmt.Errorf("stages: marshal: %w", err)
	}
	codec, err := encoding.Compile(in.typ)
	if err != nil {
		return nil, fmt.Errorf("stages: compile: %w", err)
	}
	var sink any
	pair("presentation.coerce", each(func() { sink, _ = presentation.Coerce(in.typ, in.val) }))
	pair("presentation.deepcopy", each(func() { sink = presentation.DeepCopy(cv) }))
	pair("encoding.marshal", each(func() { sink, _ = enc.Marshal(in.typ, cv) }))
	pair("encoding.unmarshal", each(func() { sink, _ = enc.Unmarshal(in.typ, body) }))
	wr := encoding.NewWriter(len(body))
	pair("encoding.codec_encode", each(func() { wr.Reset(); _ = codec.Encode(wr, cv) }))
	pair("encoding.codec_decode", each(func() { sink, _ = codec.Decode(encoding.NewReader(body)) }))
	_ = sink

	// protocol
	frame := protocol.Frame{
		Type: protocol.MTSample, Encoding: enc.ID(), Priority: in.prio,
		Channel: in.channel, Seq: 1, Payload: make([]byte, in.header+len(body)),
	}
	raw, err := protocol.EncodeFrame(&frame)
	if err != nil {
		return nil, fmt.Errorf("stages: frame: %w", err)
	}
	buf := make([]byte, 0, len(raw))
	pair("protocol.frame_append", each(func() { _, _ = protocol.AppendFrame(buf[:0], &frame) }))
	var decoded protocol.Frame
	pair("protocol.frame_decode", each(func() { _ = protocol.DecodeFrameInto(&decoded, raw) }))
	pair("protocol.frame_legacy_encode", each(func() { _, _ = protocol.EncodeFrame(&frame) }))
	const batchFrames, batchFrameLen = 8, 100
	inner := make([][]byte, batchFrames)
	for i := range inner {
		inner[i] = make([]byte, batchFrameLen)
	}
	batchBuf := make([]byte, 0, protocol.BatchOverhead(batchFrames)+batchFrames*batchFrameLen)
	pair("protocol.batch_append", func(n int) {
		for i := 0; i < n; i += batchFrames { // cost per inner frame
			_, _ = protocol.AppendBatch(batchBuf[:0], inner, in.prio)
		}
	})
	arq := protocol.NewARQ(func(transport.NodeID, []byte) error { return nil })
	var arqSeq uint64
	pair("protocol.arq_send_ack", each(func() {
		arqSeq++
		_ = arq.Send("peer", arqSeq, raw, nil)
		arq.Ack("peer", arqSeq)
	}))
	arq.Close()
	dedup := protocol.NewDedup(0)
	var dedupSeq uint64
	nsOnly("protocol.dedup_seen_ns", each(func() { dedupSeq++; dedup.Seen("peer", dedupSeq) }))
	nsOnly("bufpool.get_put_ns", each(func() { bufpool.Put(bufpool.Get(len(raw))) }))

	// egress
	sent := newCounter()
	plane := egress.New(nullSender{sent}, egress.Config{})
	pair("egress.enqueue_drain", func(n int) {
		windowed(n, func(int) { _ = plane.Enqueue("peer", in.prio, raw) }, sent.done, sent.wake)
	})
	handoff("egress.handoff_ns", func() { sent.await(func() { _ = plane.Enqueue("peer", in.prio, raw) }) })
	plane.Close()

	// transport
	if err := transportStages(pair, handoff, raw); err != nil {
		return nil, err
	}

	// ingress
	delivered := newCounter()
	pipe := ingress.New(ingress.Config{Deliver: func(_ int, batch []ingress.Packet) { delivered.add(len(batch)) }})
	pkt := transport.Packet{From: "peer", Payload: raw}
	pair("ingress.enqueue_deliver", func(n int) {
		windowed(n, func(int) { pipe.Enqueue(core.DefaultBearer, pkt) }, delivered.done, delivered.wake)
	})
	handoff("ingress.handoff_ns", func() { delivered.await(func() { pipe.Enqueue(core.DefaultBearer, pkt) }) })
	pipe.Close()

	// scheduler
	ran := newCounter()
	pool := scheduler.NewPool()
	job := func() { ran.add(1) }
	pair("scheduler.submit_run", func(n int) {
		windowed(n, func(int) { _ = pool.Submit(in.prio, job) }, ran.done, ran.wake)
	})
	handoff("scheduler.handoff_ns", func() { ran.await(func() { _ = pool.Submit(in.prio, job) }) })
	pool.Stop()

	if err := engineStages(pair, in, cv); err != nil {
		return nil, err
	}
	return out, coreStages(pair, in, &frame)
}

// transportStages times the two transports alone: saturated send→handler
// cost per datagram on the bus and on UDP loopback, and the idle
// one-datagram UDP hand-off.
func transportStages(pair func(string, func(int)), handoff func(string, func()), raw []byte) error {
	got := newCounter()
	handler := func(transport.Packet) { got.add(1) }

	bus := transport.NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		return err
	}
	b, err := bus.Endpoint("b")
	if err != nil {
		return err
	}
	b.SetHandler(handler)
	pair("transport.bus_send_deliver", func(n int) {
		windowed(n, func(int) { _ = a.Send("b", raw) }, got.done, got.wake)
	})
	_ = a.Close()
	_ = b.Close()

	ua, ub, err := udpPair("a", "b")
	if err != nil {
		return err
	}
	ub.SetHandler(handler)
	// Loopback UDP can drop a datagram, which would hang a wait for it, so
	// waits give up after 20 ms and the sender makes up what is missing.
	// One timer serves every wait: the stage's allocations are the
	// transport's, not the harness's.
	lossTimer := time.NewTimer(time.Hour)
	defer lossTimer.Stop()
	arrived := func() bool {
		if !lossTimer.Stop() {
			select { // drop the tick of a wait that was satisfied in time
			case <-lossTimer.C:
			default:
			}
		}
		lossTimer.Reset(20 * time.Millisecond)
		select {
		case <-got.wake:
			return true
		case <-lossTimer.C:
			return false
		}
	}
	pair("transport.udp_send_deliver", func(n int) {
		base := got.done()
		for sent := 0; got.done()-base < n; {
			for sent-(got.done()-base) < stageWindow/4 && sent < n {
				_ = ua.Send("b", raw)
				sent++
			}
			if !arrived() {
				sent = got.done() - base // whatever is still out was lost
			}
		}
	})
	handoff("transport.udp_handoff_ns", func() {
		before := got.done()
		_ = ua.Send("b", raw)
		for got.done() == before {
			if !arrived() {
				_ = ua.Send("b", raw)
			}
		}
	})
	_ = ua.Close()
	_ = ub.Close()
	return nil
}

// engineStages times the primitive engines on the null fabric: what the
// engine itself adds around the layers below it.
func engineStages(pair func(string, func(int)), in stageInput, cv any) error {
	ctx := context.Background()

	nf := newNullFabric()
	pub, err := variables.New(nf).Offer(in.channel, "stage", in.typ, qos.VariableQoS{})
	if err != nil {
		return fmt.Errorf("stages: variable offer: %w", err)
	}
	pair("variables.publish", each(func() { _ = pub.Publish(in.val) }))
	nf.capture = true
	if err := pub.Publish(in.val); err != nil {
		return fmt.Errorf("stages: variable publish: %w", err)
	}
	nf.capture = false
	sample := nf.last
	// A second engine subscribes, as the sink node would: a local
	// subscriber would take the bypass, not the decode path.
	sinkVars := variables.New(newNullFabric())
	if _, err := sinkVars.Subscribe(in.channel, in.typ, variables.SubscribeOptions{OnSample: func(any, time.Time) {}}); err != nil {
		return fmt.Errorf("stages: variable subscribe: %w", err)
	}
	pair("variables.handle_sample", each(func() {
		sample.Seq++ // a stale sequence number would be filtered out
		sinkVars.HandleSample("peer", &sample)
	}))
	pub.Close()

	nf = newNullFabric()
	evPub := events.New(nf)
	q := qos.EventQoS{Reliability: qos.ReliableARQ, Priority: in.prio}
	evOffer, err := evPub.Offer(in.channel, "stage", in.typ, q)
	if err != nil {
		return fmt.Errorf("stages: event offer: %w", err)
	}
	evPub.HandleSubscribe("peer", &protocol.Frame{Type: protocol.MTSubscribe, Channel: in.channel})
	pair("events.publish", each(func() { _ = evOffer.Publish(ctx, in.val) }))
	nf.capture = true
	if err := evOffer.Publish(ctx, in.val); err != nil {
		return fmt.Errorf("stages: event publish: %w", err)
	}
	nf.capture = false
	event := nf.last
	pubID, seq, body, err := protocol.DecodeEventPayload(event.Payload)
	if err != nil {
		return fmt.Errorf("stages: event payload: %w", err)
	}
	evSub := events.New(newNullFabric())
	if _, err := evSub.Subscribe(in.channel, in.typ, q, func(any, transport.NodeID) {}); err != nil {
		return fmt.Errorf("stages: event subscribe: %w", err)
	}
	scratch := make([]byte, 0, len(event.Payload))
	pair("events.handle_event", each(func() {
		seq++ // a repeated sequence number would be dropped as a duplicate
		event.Payload = protocol.EncodeEventPayload(pubID, seq, body, scratch)
		evSub.HandleEvent("peer", &event)
	}))
	evOffer.Close()

	calls := rpc.New(newNullFabric())
	ret := map[string]any{"ok": true, "index": uint32(7)}
	if err := calls.Register(in.channel, "stage", in.typ, rpcRetType, qos.CallQoS{},
		func(any) (any, error) { return ret, nil }); err != nil {
		return fmt.Errorf("stages: rpc register: %w", err)
	}
	if _, err := calls.Call(ctx, in.channel, cv, in.typ, rpcRetType, qos.CallQoS{}); err != nil {
		return fmt.Errorf("stages: rpc call: %w", err)
	}
	pair("rpc.call_loopback", each(func() {
		_, _ = calls.Call(ctx, in.channel, cv, in.typ, rpcRetType, qos.CallQoS{})
	}))
	return nil
}

// coreStages times the container's two send paths on a node whose
// transport discards (and acknowledges) everything.
func coreStages(pair func(string, func(int)), in stageInput, frame *protocol.Frame) error {
	wire := newCounter()
	node, err := core.NewNode(core.WithDatagram(&ackingTransport{id: "stage", peer: "peer", frames: wire}))
	if err != nil {
		return fmt.Errorf("stages: node: %w", err)
	}
	defer func() { _ = node.Close() }()
	group := "g:" + in.channel
	pair("core.send_group", func(n int) {
		windowed(n, func(int) {
			frame.Seq = 0
			_ = node.SendGroup(group, frame)
		}, wire.done, wire.wake)
	})
	acked := newCounter()
	done := func(error) { acked.add(1) }
	pair("core.send_reliable", func(n int) {
		windowed(n, func(int) {
			frame.Seq, frame.Flags = 0, 0
			node.SendReliable("peer", frame, qos.ReliableARQ, done)
		}, acked.done, acked.wake)
	})
	return nil
}

// telemetryPath lists the stages one telemetry_closed sample passes
// through whose isolated costs should add up to the workload's CPU per
// op. variables.publish already contains coerce, deepcopy and marshal,
// core.send_group contains frame append and the egress lane, and
// variables.handle_sample contains unmarshal, so those are not listed
// again.
var telemetryPath = []string{
	"variables.publish",
	"core.send_group",
	"transport.bus_send_deliver",
	"ingress.enqueue_deliver",
	"protocol.frame_decode",
	"variables.handle_sample",
	"scheduler.submit_run",
}

// attributedShare is Σ stage ns along one telemetry sample's path ÷ the
// measured CPU per op. Report-only; the ledger's target is 0.9–1.1.
// Other workloads report 0.
func attributedShare(workload string, stages map[string]float64, cpuUS float64) float64 {
	if workload != "telemetry_closed" || cpuUS <= 0 {
		return 0
	}
	var ns float64
	for _, s := range telemetryPath {
		ns += stages[s+"_ns"]
	}
	return ns / 1e3 / cpuUS
}
