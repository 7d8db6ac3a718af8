package gateway

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// --- harness -------------------------------------------------------------

func waitUntil(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pair builds uav (publisher) and gs (gateway host) nodes on a simulated
// link and the gateway on gs.
func pair(t *testing.T, opts Options) (*core.Node, *Gateway) {
	t.Helper()
	sim := transport.NewSimBus(transport.SimConfig{Seed: 42, Latency: time.Millisecond})
	t.Cleanup(sim.Close)
	mk := func(id string) *core.Node {
		ep, err := sim.Endpoint(transport.NodeID(id))
		if err != nil {
			t.Fatal(err)
		}
		n, err := core.NewNode(core.WithDatagram(ep), core.WithAnnouncePeriod(20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	uav := mk("uav")
	gs := mk("gs")
	g := New(gs, opts)
	t.Cleanup(g.Close)
	return uav, g
}

// dataFrame is the decoded gateway→client envelope.
type dataFrame struct {
	Stream string          `json:"stream"`
	Op     string          `json:"op"`
	Name   string          `json:"name"`
	Seq    uint64          `json:"seq"`
	TS     int64           `json:"ts_unix_ns"`
	From   string          `json:"from"`
	Error  string          `json:"error"`
	Value  json.RawMessage `json:"value"`
}

// wireClient is a real TCP consumer speaking the external protocol.
type wireClient struct {
	t    *testing.T
	conn net.Conn
}

func dialClient(t *testing.T, addr string) *wireClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &wireClient{t: t, conn: conn}
}

func (c *wireClient) send(req Request) {
	c.t.Helper()
	buf, err := AppendRequest(nil, req)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.conn.Write(buf); err != nil {
		c.t.Fatal(err)
	}
}

func (c *wireClient) read(timeout time.Duration) dataFrame {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(timeout))
	raw, err := ReadFrame(c.conn, nil)
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	var f dataFrame
	if err := json.Unmarshal(raw, &f); err != nil {
		c.t.Fatalf("frame %q: %v", raw, err)
	}
	return f
}

// --- tests ---------------------------------------------------------------

// TestSharedSubscriptionFanOut is the tentpole contract: three TCP
// clients follow one variable through one gateway, every client sees
// every sample with identical sequence numbers, and the fabric carries
// exactly one subscription no matter the audience.
func TestSharedSubscriptionFanOut(t *testing.T) {
	uav, g := pair(t, Options{Shards: 2, QueueLen: 16})

	pub, err := uav.Variables().Offer("pos", "nav", presentation.Uint32(), qos.VariableQoS{Validity: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	uav.AnnounceNow()
	waitUntil(t, 3*time.Second, "provider visible", func() bool {
		return g.Node().Directory().ProviderCount(naming.KindVariable, "pos") == 1
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() { _ = g.Serve(l) }()

	clients := make([]*wireClient, 3)
	for i := range clients {
		clients[i] = dialClient(t, l.Addr().String())
		clients[i].send(Request{Op: "subscribe", Stream: "variable", Name: "pos"})
		if f := clients[i].read(3 * time.Second); f.Op != "subscribed" {
			t.Fatalf("client %d: expected subscribe ack, got %+v", i, f)
		}
	}
	if got := g.m.fabricSubs.Value(); got != 1 {
		t.Fatalf("fabric subscriptions = %d for 3 clients, want 1", got)
	}

	// Publish until delivery is observed (the group join races the first
	// publishes), then check every client sees a consistent tail.
	const target = 5
	for i := 0; i < 200; i++ {
		if err := pub.Publish(uint32(i)); err != nil {
			t.Fatal(err)
		}
		if g.m.samplesIn[StreamVariable].Value() >= target {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if g.m.samplesIn[StreamVariable].Value() < target {
		t.Fatal("gateway never heard enough samples")
	}

	type rec struct {
		seq uint64
		val uint32
	}
	got := make([][]rec, len(clients))
	for i, c := range clients {
		for len(got[i]) < target {
			f := c.read(3 * time.Second)
			if f.Stream != "variable" || f.Name != "pos" {
				t.Fatalf("client %d: unexpected frame %+v", i, f)
			}
			var v uint32
			if err := json.Unmarshal(f.Value, &v); err != nil {
				t.Fatalf("client %d: value %q: %v", i, f.Value, err)
			}
			got[i] = append(got[i], rec{seq: f.Seq, val: v})
		}
	}
	// Same gateway sequence numbers must carry the same values everywhere
	// (encode-once: there is only one serialization per occurrence).
	byseq := make(map[uint64]uint32)
	for i := range got {
		for _, r := range got[i] {
			if v, ok := byseq[r.seq]; ok && v != r.val {
				t.Fatalf("seq %d: value %d vs %d across clients", r.seq, v, r.val)
			}
			byseq[r.seq] = r.val
		}
	}

	// Refcounted teardown: dropping all clients closes the one fabric
	// subscription.
	for _, c := range clients {
		c.send(Request{Op: "unsubscribe", Stream: "variable", Name: "pos"})
	}
	waitUntil(t, 3*time.Second, "fabric unsubscribe", func() bool {
		return g.m.fabricSubs.Value() == 0
	})
}

// TestLastValueCache: a client subscribing after the last publish still
// gets the current value, served from gateway memory.
func TestLastValueCache(t *testing.T) {
	uav, g := pair(t, Options{Shards: 1, QueueLen: 8})

	pub, err := uav.Variables().Offer("alt", "nav", presentation.Uint32(), qos.VariableQoS{Validity: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	uav.AnnounceNow()
	waitUntil(t, 3*time.Second, "provider visible", func() bool {
		return g.Node().Directory().ProviderCount(naming.KindVariable, "alt") == 1
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() { _ = g.Serve(l) }()

	first := dialClient(t, l.Addr().String())
	first.send(Request{Op: "subscribe", Stream: "variable", Name: "alt"})
	if f := first.read(3 * time.Second); f.Op != "subscribed" {
		t.Fatalf("expected ack, got %+v", f)
	}
	for i := 0; g.m.samplesIn[StreamVariable].Value() == 0; i++ {
		if i > 500 {
			t.Fatal("no sample reached the gateway")
		}
		if err := pub.Publish(uint32(4242)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// No further publishes: the late client must be served from cache.
	late := dialClient(t, l.Addr().String())
	late.send(Request{Op: "subscribe", Stream: "variable", Name: "alt"})
	if f := late.read(3 * time.Second); f.Op != "subscribed" {
		t.Fatalf("expected ack, got %+v", f)
	}
	f := late.read(3 * time.Second)
	if f.Stream != "variable" || f.Name != "alt" {
		t.Fatalf("expected cached sample, got %+v", f)
	}
	var v uint32
	if err := json.Unmarshal(f.Value, &v); err != nil || v != 4242 {
		t.Fatalf("cached value = %s (err %v), want 4242", f.Value, err)
	}
	if g.m.cacheHits.Value() == 0 {
		t.Fatal("cache_hits not counted")
	}
}

// TestMetricsEndpoint closes the PR 7 ROADMAP note: the gateway exposes
// Node.MetricsSnapshot() over HTTP rather than a private counter store,
// and the gateway.* families appear in that export.
func TestMetricsEndpoint(t *testing.T) {
	_, g := pair(t, Options{Shards: 1})

	// Touch a couple of gateway series so they exist in the snapshot.
	c, err := g.Attach(&sinkConn{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv := httptest.NewServer(g.HTTPHandler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return sb.String()
	}

	text := get("/metrics")
	for _, want := range []string{"gateway.clients", "gateway.clients_accepted", "gateway.frames_out"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The same scrape carries the rest of the node: one registry for all
	// layers, per the PR 7 design.
	if !strings.Contains(text, "discovery.") {
		t.Fatal("/metrics should carry non-gateway families too")
	}
	// The node's sharded receive pipeline registers its families eagerly,
	// so the ingress plane is scrapeable before the first packet arrives.
	for _, want := range []string{
		"ingress.shards", "ingress.queue_depth", "ingress.frames",
		"ingress.drops", "ingress.batch_frames",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing ingress family %q:\n%s", want, text)
		}
	}

	var snap map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("metrics.json not valid JSON: %v", err)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(get("/healthz")), &health); err != nil {
		t.Fatalf("healthz not valid JSON: %v", err)
	}
	if health["status"] != "ok" || health["clients"] != float64(1) {
		t.Fatalf("healthz = %v", health)
	}
}

// --- slow-consumer machinery ---------------------------------------------

// sinkConn counts everything written to it and never blocks.
type sinkConn struct {
	frames atomic.Int64
	bytes  atomic.Int64
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.bytes.Add(int64(len(p)))
	s.frames.Add(1)
	return len(p), nil
}
func (s *sinkConn) Close() error                     { return nil }
func (s *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// stallConn models a consumer whose TCP window is jammed: every write
// parks on clk until the deadline and fails with a timeout. Close wakes a
// parked write, as it does on a real connection. It records the instant of
// its first write and of its close.
type stallConn struct {
	clk  clock.Clock
	wake clock.Trigger // closed by Close

	mu                sync.Mutex
	deadline          time.Time
	firstWrite, close time.Time
}

func newStallConn(clk clock.Clock) *stallConn {
	return &stallConn{clk: clk, wake: clock.NewTrigger(clk)}
}

func (s *stallConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	if s.firstWrite.IsZero() {
		s.firstWrite = s.clk.Now()
	}
	d := s.deadline.Sub(s.clk.Now())
	s.mu.Unlock()
	if d > 0 && !s.wake.Wait(d) {
		return 0, net.ErrClosed
	}
	return 0, os.ErrDeadlineExceeded
}

func (s *stallConn) Close() error {
	s.mu.Lock()
	if s.close.IsZero() {
		s.close = s.clk.Now()
	}
	s.mu.Unlock()
	s.wake.Close()
	return nil
}

func (s *stallConn) SetWriteDeadline(t time.Time) error {
	s.mu.Lock()
	s.deadline = t
	s.mu.Unlock()
	return nil
}

// TestSlowConsumerEviction: a stalled client is detected on the shared
// writer, quarantined to its own drain, and evicted after StallLimit
// misses — while a healthy shard-mate receives every sample. On the
// virtual clock the eviction lands exactly one fastWriteDeadline plus
// StallLimit WriteStalls after the first stalled write.
func TestSlowConsumerEviction(t *testing.T) {
	opts := Options{Shards: 1, QueueLen: 8, WriteStall: 20 * time.Millisecond, StallLimit: 2}
	v := clock.NewVirtual()
	v.Run(func() {
		sim := transport.NewSimBus(transport.SimConfig{Seed: 42, Latency: time.Millisecond, Clock: v})
		defer sim.Close()
		mk := func(id transport.NodeID) *core.Node {
			ep, err := sim.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			n, err := core.NewNode(core.WithClock(v), core.WithDatagram(ep), core.WithAnnouncePeriod(20*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		uav := mk("uav")
		defer func() { _ = uav.Close() }()
		gs := mk("gs")
		defer func() { _ = gs.Close() }()
		g := New(gs, opts)
		defer g.Close()

		pub, err := uav.Variables().Offer("spd", "nav", presentation.Uint32(), qos.VariableQoS{Validity: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		uav.AnnounceNow()
		for i := 0; gs.Directory().ProviderCount(naming.KindVariable, "spd") == 0; i++ {
			if i == 500 {
				t.Fatal("provider never visible")
			}
			v.Sleep(2 * time.Millisecond)
		}

		healthy, stalled := &sinkConn{}, newStallConn(v)
		for _, conn := range []Conn{healthy, stalled} {
			c, err := g.Attach(conn)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Subscribe(StreamVariable, "spd"); err != nil {
				t.Fatal(err)
			}
		}
		// Samples flow once the fabric subscription is bound; the first
		// one heard is also the stalled client's first write.
		var sent uint32
		for healthy.frames.Load() == 0 {
			if sent == 500 {
				t.Fatal("healthy client never heard a sample")
			}
			sent++
			if err := pub.Publish(sent); err != nil {
				t.Fatal(err)
			}
			v.Sleep(2 * time.Millisecond)
		}

		// Publish past the eviction; the healthy shard-mate must hear
		// every sample.
		before := healthy.frames.Load()
		const samples = 60
		for i := 0; i < samples; i++ {
			sent++
			if err := pub.Publish(sent); err != nil {
				t.Fatal(err)
			}
			v.Sleep(2 * time.Millisecond)
		}
		v.Sleep(10 * time.Millisecond)

		if got := g.m.evictions[reasonStall].Value(); got != 1 {
			t.Fatalf("stall evictions = %d, want 1", got)
		}
		if g.m.clients.Value() != 1 {
			t.Fatalf("clients gauge = %d after eviction, want 1", g.m.clients.Value())
		}
		if got := healthy.frames.Load() - before; got != samples {
			t.Errorf("healthy shard-mate heard %d of %d samples published around the eviction", got, samples)
		}
		stalled.mu.Lock()
		took := stalled.close.Sub(stalled.firstWrite)
		stalled.mu.Unlock()
		if want := fastWriteDeadline + time.Duration(opts.StallLimit)*opts.WriteStall; took != want {
			t.Errorf("stalled client evicted %v after its first write, want exactly %v (fastWriteDeadline + StallLimit × WriteStall)", took, want)
		}
	})
}

// TestReliableBacklogEviction: event frames are never silently
// superseded; a client that cannot keep up with a reliable stream is
// disconnected once its drop count passes the limit.
func TestReliableBacklogEviction(t *testing.T) {
	uav, g := pair(t, Options{
		Shards: 1, QueueLen: 4,
		WriteStall: time.Hour, StallLimit: 1000, // never evict via stalls
	})

	pub, err := uav.Events().Offer("alarm", "nav", presentation.Uint32(), qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	uav.AnnounceNow()
	waitUntil(t, 3*time.Second, "provider visible", func() bool {
		return g.Node().Directory().ProviderCount(naming.KindEvent, "alarm") == 1
	})

	sc, err := g.Attach(newStallConn(g.clk))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Subscribe(StreamEvent, "alarm"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "subscriber registration", func() bool {
		return len(pub.Subscribers()) == 1
	})

	evictions := g.m.evictions[reasonReliable]
	deadline := time.Now().Add(5 * time.Second)
	ctx := context.Background()
	for i := 0; evictions.Value() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no reliable-backlog eviction (samples_in=%d)",
				g.m.samplesIn[StreamEvent].Value())
		}
		_ = pub.Publish(ctx, uint32(i))
		time.Sleep(time.Millisecond)
	}
	if g.m.clients.Value() != 0 {
		t.Fatalf("clients gauge = %d after eviction, want 0", g.m.clients.Value())
	}
}

// TestRequestErrors: bad requests answer with control errors but do not
// kill the connection; a subscribe for an unknown name reports the
// failure to the client.
func TestRequestErrors(t *testing.T) {
	_, g := pair(t, Options{Shards: 1})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() { _ = g.Serve(l) }()

	c := dialClient(t, l.Addr().String())
	c.send(Request{Op: "subscribe", Stream: "variable", Name: "no.such.var"})
	if f := c.read(3 * time.Second); f.Op != "error" || !strings.Contains(f.Error, "no provider") {
		t.Fatalf("expected no-provider error, got %+v", f)
	}
	c.send(Request{Op: "??", Stream: "variable", Name: "x"})
	if f := c.read(3 * time.Second); f.Op != "error" {
		t.Fatalf("expected unknown-op error, got %+v", f)
	}
	// Connection still alive and usable.
	c.send(Request{Op: "unsubscribe", Stream: "event", Name: "y"})
	if f := c.read(3 * time.Second); f.Op != "unsubscribed" {
		t.Fatalf("expected unsubscribed ack, got %+v", f)
	}
}
