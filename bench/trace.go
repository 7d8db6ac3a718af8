package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
)

// The tracer records spans at the layer boundaries the benchmark can
// reach from outside the program: the primitive call in the generator,
// the value encoding, the transport, the scheduler and the application
// callback. The decorators are injected through core.WithDatagram,
// core.WithScheduler and core.WithEncoding; spans inside the program are
// a later issue.

// traceID names one request: a flow (topic or caller, 1-based; 0 = the
// boundary exposes nothing) and the sequence number within it.
type traceID struct{ flow, seq uint32 }

func (id traceID) String() string {
	if id.flow == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d", id.flow, id.seq)
}

// identifier recovers the trace id at a boundary. Each workload supplies
// one, because which field of a value or frame carries the topic and
// sequence is the workload's choice. reply distinguishes the return leg of
// a request/response exchange.
type identifier interface {
	value(t *presentation.Type, v any) (id traceID, reply bool)
	frame(f *protocol.Frame) (id traceID, reply bool)
}

// noIdent is the identifier of boundaries that expose nothing (file_bulk:
// chunk frames carry no per-op id).
type noIdent struct{}

func (noIdent) value(*presentation.Type, any) (traceID, bool) { return traceID{}, false }
func (noIdent) frame(*protocol.Frame) (traceID, bool)         { return traceID{}, false }

// Span names. The part before the dot is the layer.
const (
	spanCall      = "engine.call"
	spanMarshal   = "encoding.marshal"
	spanUnmarshal = "encoding.unmarshal"
	spanSend      = "transport.send"
	spanDeliver   = "transport.deliver"
	spanRun       = "scheduler.run"
	spanCallback  = "app.callback"
)

type spanRec struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	id         traceID
}

// maxSpans bounds the spans kept per traced repetition — the first ones of
// the window; the aggregates cover every op regardless.
const maxSpans = 50_000

// stampTable remembers when a request crossed one boundary so the next
// boundary can compute the residence in between.
type stampTable struct {
	mu sync.Mutex
	m  map[stampKey]int64
}

type stampKey struct {
	id    traceID
	reply bool
}

func (s *stampTable) put(k stampKey, t int64) {
	s.mu.Lock()
	s.m[k] = t
	s.mu.Unlock()
}

func (s *stampTable) take(k stampKey) (int64, bool) {
	s.mu.Lock()
	t, ok := s.m[k]
	delete(s.m, k)
	s.mu.Unlock()
	return t, ok
}

type tracer struct {
	ident identifier
	epoch time.Time
	on    atomic.Bool

	spans   []spanRec
	next    atomic.Int64
	dropped atomic.Int64

	marshalBusy, unmarshalBusy, sendBusy, runBusy atomic.Int64
	marshalEnd, deliverAt                         stampTable
	calls, egressRes, ingressRes, schedWait       *latencies
}

// newTracer returns a tracer with its window closed. The workload's
// build installs the identifier before it creates any node.
func newTracer() *tracer {
	return &tracer{
		ident:      noIdent{},
		epoch:      time.Now(),
		spans:      make([]spanRec, maxSpans),
		marshalEnd: stampTable{m: make(map[stampKey]int64)},
		deliverAt:  stampTable{m: make(map[stampKey]int64)},
		calls:      newLatencies(),
		egressRes:  newLatencies(),
		ingressRes: newLatencies(),
		schedWait:  newLatencies(),
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// begin opens the recording window (set-up and warm-up are not traced),
// end closes it.
func (tr *tracer) begin() { tr.on.Store(true) }
func (tr *tracer) end()   { tr.on.Store(false) }

func (tr *tracer) record(name string, start, end int64, id traceID) {
	i := tr.next.Add(1) - 1
	if i >= int64(len(tr.spans)) {
		tr.dropped.Add(1)
		return
	}
	tr.spans[i] = spanRec{name: name, start: start, end: end, id: id}
}

// start opens a span in benchmark code (the primitive call in the
// generator, the application callback): it returns the start stamp, or -1
// for a nil tracer or one outside its window, and the matching finish is
// then a no-op. No closure, so the untraced path costs one nil check.
func (tr *tracer) start() int64 {
	if tr == nil || !tr.on.Load() {
		return -1
	}
	return tr.now()
}

// finishCall closes the span around one primitive invocation (Publish,
// Call, Fetch).
func (tr *tracer) finishCall(t0 int64, id traceID) {
	if t0 < 0 {
		return
	}
	t1 := tr.now()
	tr.calls.add(time.Duration(t1 - t0))
	tr.record(spanCall, t0, t1, id)
}

// finishCallback closes the span around the application callback.
func (tr *tracer) finishCallback(t0 int64, id traceID) {
	if t0 >= 0 {
		tr.record(spanCallback, t0, tr.now(), id)
	}
}

// --- encoding ---

type tracedEncoding struct {
	encoding.Encoding
	tr *tracer
}

func (tr *tracer) encoding(inner encoding.Encoding) encoding.Encoding {
	return tracedEncoding{Encoding: inner, tr: tr}
}

func (e tracedEncoding) Marshal(t *presentation.Type, v any) ([]byte, error) {
	tr := e.tr
	if !tr.on.Load() {
		return e.Encoding.Marshal(t, v)
	}
	t0 := tr.now()
	out, err := e.Encoding.Marshal(t, v)
	t1 := tr.now()
	tr.marshalBusy.Add(t1 - t0)
	id, reply := tr.ident.value(t, v)
	if id.flow != 0 {
		tr.marshalEnd.put(stampKey{id, reply}, t1)
	}
	tr.record(spanMarshal, t0, t1, id)
	return out, err
}

func (e tracedEncoding) Unmarshal(t *presentation.Type, data []byte) (any, error) {
	tr := e.tr
	if !tr.on.Load() {
		return e.Encoding.Unmarshal(t, data)
	}
	t0 := tr.now()
	v, err := e.Encoding.Unmarshal(t, data)
	t1 := tr.now()
	tr.unmarshalBusy.Add(t1 - t0)
	id, reply := tr.ident.value(t, v)
	if at, ok := tr.deliverAt.take(stampKey{id, reply}); ok && id.flow != 0 {
		tr.ingressRes.add(time.Duration(t0 - at))
	}
	tr.record(spanUnmarshal, t0, t1, id)
	return v, err
}

// --- scheduler ---

type tracedScheduler struct {
	inner scheduler.Scheduler
	tr    *tracer
}

func (tr *tracer) scheduler(inner scheduler.Scheduler) scheduler.Scheduler {
	return tracedScheduler{inner: inner, tr: tr}
}

func (s tracedScheduler) Submit(p qos.Priority, job scheduler.Job) error {
	tr := s.tr
	if !tr.on.Load() {
		return s.inner.Submit(p, job)
	}
	t0 := tr.now()
	return s.inner.Submit(p, func() {
		t1 := tr.now()
		job()
		t2 := tr.now()
		tr.schedWait.add(time.Duration(t1 - t0))
		tr.runBusy.Add(t2 - t1)
		tr.record(spanRun, t1, t2, traceID{})
	})
}

func (s tracedScheduler) Stop() { s.inner.Stop() }

// --- transport ---

// tracedTransport forwards everything to the real transport, so the
// traced path is the real path: Packet.Owner passes through untouched and
// the optional interfaces are re-exposed exactly when the inner transport
// has them (see tracer.transport).
type tracedTransport struct {
	transport.Transport
	tr *tracer
}

// tracedBatchTransport is the decorator for transports with the UDP
// deployment's extras: sendmmsg batching, an address book, a dialable
// address.
type tracedBatchTransport struct {
	tracedTransport
	batch transport.BatchSender
	transport.PeerBook
	transport.Addressable
}

func (tr *tracer) transport(inner transport.Transport) transport.Transport {
	base := tracedTransport{Transport: inner, tr: tr}
	batch, isBatch := inner.(transport.BatchSender)
	book, isBook := inner.(transport.PeerBook)
	addr, isAddr := inner.(transport.Addressable)
	if isBatch && isBook && isAddr {
		return tracedBatchTransport{tracedTransport: base, batch: batch, PeerBook: book, Addressable: addr}
	}
	return base
}

// NativeMulticast implements transport.Multicaster for the inner
// transport; both the bus and UDP have it.
func (t tracedTransport) NativeMulticast() bool {
	m, ok := t.Transport.(transport.Multicaster)
	return ok && m.NativeMulticast()
}

// framesIn decodes the frames of one datagram, unpacking a coalesced
// batch, and hands each to fn. The frame is reused between calls.
func framesIn(payload []byte, fn func(f *protocol.Frame)) {
	var f protocol.Frame
	if protocol.DecodeFrameInto(&f, payload) != nil {
		return
	}
	if f.Type != protocol.MTBatch {
		fn(&f)
		return
	}
	inner, err := protocol.DecodeBatch(f.Payload)
	if err != nil {
		return
	}
	for _, raw := range inner {
		if protocol.DecodeFrameInto(&f, raw) == nil {
			fn(&f)
		}
	}
}

// eachFrame hands every identified frame of one datagram to fn and
// returns the first one's id.
func (tr *tracer) eachFrame(payload []byte, fn func(id traceID, reply bool)) (first traceID) {
	framesIn(payload, func(f *protocol.Frame) {
		if id, reply := tr.ident.frame(f); id.flow != 0 {
			if first.flow == 0 {
				first = id
			}
			fn(id, reply)
		}
	})
	return first
}

// traced runs one transmit call under a span and closes the egress
// residence of every frame in its datagrams: value-marshal end → here.
func (t tracedTransport) traced(send func() error, payloads ...[]byte) error {
	tr := t.tr
	if !tr.on.Load() {
		return send()
	}
	t0 := tr.now()
	var first traceID
	for _, p := range payloads {
		id := tr.eachFrame(p, func(id traceID, reply bool) {
			if at, ok := tr.marshalEnd.take(stampKey{id, reply}); ok {
				tr.egressRes.add(time.Duration(t0 - at))
			}
		})
		if first.flow == 0 {
			first = id
		}
	}
	t1 := tr.now()
	err := send()
	t2 := tr.now()
	tr.sendBusy.Add(t2 - t1)
	tr.record(spanSend, t1, t2, first)
	return err
}

func (t tracedTransport) Send(to transport.NodeID, payload []byte) error {
	return t.traced(func() error { return t.Transport.Send(to, payload) }, payload)
}

func (t tracedTransport) SendGroup(group string, payload []byte) error {
	return t.traced(func() error { return t.Transport.SendGroup(group, payload) }, payload)
}

func (t tracedBatchTransport) SendBatch(msgs []transport.BatchMessage) error {
	payloads := make([][]byte, len(msgs))
	for i := range msgs {
		payloads[i] = msgs[i].Payload
	}
	return t.traced(func() error { return t.batch.SendBatch(msgs) }, payloads...)
}

// SetHandler wraps the node's receive handler: entry stamps every frame
// of the datagram for the ingress residence, the span covers the handler
// call (the ingress pipeline's enqueue).
func (t tracedTransport) SetHandler(h transport.Handler) {
	tr := t.tr
	t.Transport.SetHandler(func(pkt transport.Packet) {
		if !tr.on.Load() {
			h(pkt)
			return
		}
		t0 := tr.now()
		first := tr.eachFrame(pkt.Payload, func(id traceID, reply bool) {
			tr.deliverAt.put(stampKey{id, reply}, t0)
		})
		t1 := tr.now()
		h(pkt)
		tr.record(spanDeliver, t1, tr.now(), first)
	})
}

// --- output ---

type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Trace   string `json:"trace,omitempty"`
}

type layerTime struct {
	Spans   int     `json:"spans"`
	TotalUS float64 `json:"total_us"`
	// SelfUS is the spans' time minus the part their child spans cover.
	SelfUS float64 `json:"self_us"`
}

type traceFile struct {
	Dropped int64                `json:"spans_dropped"`
	Layers  map[string]layerTime `json:"layers"`
	Spans   []spanJSON           `json:"spans"`
}

func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// isContainer reports whether spans of this name can have children: the
// primitive call encloses its value marshal, a scheduler job encloses the
// decode, handler and reply encode it runs.
func isContainer(name string) bool { return name == spanCall || name == spanRun }

// parentWindow bounds how far back the parent search looks among
// containers ordered by start.
const parentWindow = 64

// export links the recorded spans into a tree and computes per-layer self
// time. A span's parent is the tightest container that encloses it in
// time and may belong to the same request: it carries the same trace id,
// or none (a scheduler job's closure exposes nothing). The benchmark
// cannot see goroutine identity, so two overlapping scheduler jobs on
// different workers can adopt each other's children; every child still
// lies inside its parent.
func (tr *tracer) export() traceFile {
	n := int(tr.next.Load())
	if n > len(tr.spans) {
		n = len(tr.spans)
	}
	recs := append([]spanRec(nil), tr.spans[:n]...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].start < recs[j].start })

	out := traceFile{
		Dropped: tr.dropped.Load(),
		Layers:  make(map[string]layerTime),
		Spans:   make([]spanJSON, n),
	}
	var containers []int // indices into recs, ordered by start
	childTime := make([]int64, n)
	for i, r := range recs {
		parent := -1
		for k, seen := len(containers)-1, 0; k >= 0 && seen < parentWindow; k, seen = k-1, seen+1 {
			c := recs[containers[k]]
			switch {
			case c.end < r.end: // does not enclose r
			case c.id.flow != 0 && c.id != r.id: // another request's call
			case c.name == r.name: // calls do not nest in calls, nor jobs in jobs
			case parent < 0 || c.end-c.start < recs[parent].end-recs[parent].start:
				parent = containers[k]
			}
		}
		if parent >= 0 {
			childTime[parent] += r.end - r.start
		}
		out.Spans[i] = spanJSON{
			ID: i + 1, Parent: parent + 1, Name: r.name, Layer: layerOf(r.name),
			StartNS: r.start, EndNS: r.end, Trace: r.id.String(),
		}
		if isContainer(r.name) {
			containers = append(containers, i)
		}
	}
	for i, r := range recs {
		lt := out.Layers[r.name]
		lt.Spans++
		lt.TotalUS += float64(r.end-r.start) / 1e3
		lt.SelfUS += float64(r.end-r.start-childTime[i]) / 1e3
		out.Layers[r.name] = lt
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
