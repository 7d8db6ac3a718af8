package transport

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"uavmw/internal/bufpool"
)

// collector gathers delivered packets for assertions.
type collector struct {
	mu   sync.Mutex
	pkts []Packet
}

func newCollector() *collector { return &collector{} }

func (c *collector) handler() Handler {
	return func(pkt Packet) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.pkts = append(c.pkts, pkt)
	}
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) []Packet {
	t.Helper()
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		if len(c.pkts) >= n {
			out := make([]Packet, len(c.pkts))
			copy(out, c.pkts)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-deadline:
			c.mu.Lock()
			got := len(c.pkts)
			c.mu.Unlock()
			t.Fatalf("timeout waiting for %d packets, got %d", n, got)
		case <-time.After(time.Millisecond):
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

// busModes is the contract table: every Bus contract test runs once on a
// bus that delivers inline and once on one that schedules through its
// medium.
var busModes = []struct {
	name   string
	medium bool
	bus    func(t *testing.T) *Bus
}{
	{"inline", false, func(t *testing.T) *Bus { return NewBus() }},
	{"sim", true, func(t *testing.T) *Bus {
		bus := NewSimBus(SimConfig{Seed: 1, Latency: time.Millisecond})
		t.Cleanup(bus.Close)
		return bus
	}},
}

// forEachBus runs test on a fresh bus of every mode.
func forEachBus(t *testing.T, test func(t *testing.T, bus *Bus, medium bool)) {
	for _, mode := range busModes {
		t.Run(mode.name, func(t *testing.T) { test(t, mode.bus(t), mode.medium) })
	}
}

// endpoint registers id on bus and closes it when the test ends.
func endpoint(t *testing.T, bus *Bus, id NodeID) *BusEndpoint {
	t.Helper()
	ep, err := bus.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	return ep
}

// listen installs a collector on ep.
func listen(ep *BusEndpoint) *collector {
	col := newCollector()
	ep.SetHandler(col.handler())
	return col
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBusUnicast(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, _ bool) {
		a := endpoint(t, bus, "a")
		col := listen(endpoint(t, bus, "b"))
		if err := a.Send("b", []byte("hello")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		pkts := col.wait(t, 1, time.Second)
		if pkts[0].From != "a" || pkts[0].To != "b" || string(pkts[0].Payload) != "hello" {
			t.Errorf("packet = %+v", pkts[0])
		}
	})
}

func TestBusUnknownDestination(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, _ bool) {
		a := endpoint(t, bus, "a")
		if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("want ErrUnknownNode, got %v", err)
		}
	})
}

func TestBusDuplicateNode(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, _ bool) {
		endpoint(t, bus, "a")
		if _, err := bus.Endpoint("a"); !errors.Is(err, ErrDuplicateNode) {
			t.Errorf("want ErrDuplicateNode, got %v", err)
		}
		if _, err := bus.Endpoint(""); err == nil {
			t.Error("empty id must fail")
		}
	})
}

// TestBusMulticast: a group send reaches every member and is one wire
// packet however many receive it (E3's core property).
func TestBusMulticast(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, medium bool) {
		pub := endpoint(t, bus, "pub")
		const groupName = "telemetry"
		cols := make([]*collector, 3)
		for i := range cols {
			ep := endpoint(t, bus, NodeID(fmt.Sprintf("sub%d", i)))
			cols[i] = listen(ep)
			if err := ep.Join(groupName); err != nil {
				t.Fatal(err)
			}
		}
		if err := pub.SendGroup(groupName, []byte("pos")); err != nil {
			t.Fatal(err)
		}
		for i, col := range cols {
			pkts := col.wait(t, 1, time.Second)
			if pkts[0].Group != groupName || string(pkts[0].Payload) != "pos" {
				t.Errorf("sub%d packet = %+v", i, pkts[0])
			}
		}
		if st := pub.Stats(); st.PacketsWire != 1 {
			t.Errorf("PacketsWire = %d, want 1", st.PacketsWire)
		}
		want := [3]uint64{}
		if medium {
			want = [3]uint64{1, uint64(len("pos")), 0}
		}
		if p, b, l := bus.WireStats(); [3]uint64{p, b, l} != want {
			t.Errorf("WireStats = %d/%d/%d, want %v", p, b, l, want)
		}
	})
}

func TestBusGroupNoSelfLoopback(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, _ bool) {
		a := endpoint(t, bus, "a")
		b := endpoint(t, bus, "b")
		self, other := listen(a), listen(b)
		for _, ep := range []*BusEndpoint{a, b} {
			if err := ep.Join("g"); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.SendGroup("g", []byte("x")); err != nil {
			t.Fatal(err)
		}
		other.wait(t, 1, time.Second)
		if self.count() != 0 {
			t.Error("sender must not receive its own group packet")
		}
	})
}

func TestBusLeaveGroup(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, _ bool) {
		pub := endpoint(t, bus, "pub")
		sub, stay := endpoint(t, bus, "sub"), endpoint(t, bus, "stay")
		col, colStay := listen(sub), listen(stay)
		for _, ep := range []*BusEndpoint{sub, stay} {
			if err := ep.Join("g"); err != nil {
				t.Fatal(err)
			}
		}
		if err := pub.SendGroup("g", []byte("1")); err != nil {
			t.Fatal(err)
		}
		col.wait(t, 1, time.Second)
		if err := sub.Leave("g"); err != nil {
			t.Fatal(err)
		}
		if err := pub.SendGroup("g", []byte("2")); err != nil {
			t.Fatal(err)
		}
		colStay.wait(t, 2, time.Second)
		if col.count() != 1 {
			t.Errorf("got %d packets after leave, want 1", col.count())
		}
	})
}

func TestBusNoHandlerDrops(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, medium bool) {
		a := endpoint(t, bus, "a")
		b := endpoint(t, bus, "b")
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the drop", func() bool { return b.Stats().PacketsDropped == 1 })
		if b.Stats().PacketsRecv != 0 {
			t.Error("no packet should be delivered without a handler")
		}
		if ls := bus.LinkStats("a", "b"); medium && ls.Lost != 1 {
			t.Errorf("a→b = %+v, want the drop charged to the link", ls)
		}
	})
}

func TestBusCloseSemantics(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, _ bool) {
		a, _ := bus.Endpoint("a")
		b := endpoint(t, bus, "b")
		listen(b)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Error("Close must be idempotent")
		}
		if err := a.Send("b", []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("send after close: %v", err)
		}
		if err := a.SendGroup("g", nil); !errors.Is(err, ErrClosed) {
			t.Errorf("group send after close: %v", err)
		}
		if err := a.Join("g"); !errors.Is(err, ErrClosed) {
			t.Errorf("join after close: %v", err)
		}
		// b can no longer reach a.
		if err := b.Send("a", []byte("x")); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("send to closed: %v", err)
		}
		// Node id is reusable after close.
		endpoint(t, bus, "a")
	})
}

// TestBusCloseStopsDelivery: after Bus.Close nothing pending and nothing
// sent later arrives, and no endpoint can join.
func TestBusCloseStopsDelivery(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, medium bool) {
		a := endpoint(t, bus, "a")
		col := listen(endpoint(t, bus, "b"))
		if err := a.Send("b", []byte("before")); err != nil {
			t.Fatal(err)
		}
		bus.Close()
		bus.Close() // idempotent
		if err := a.Send("b", []byte("after")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // well past the medium's latency
		want := 1                         // inline, "before" arrived within Send
		if medium {
			want = 0
		}
		if col.count() != want {
			t.Errorf("%d packets delivered, want %d", col.count(), want)
		}
		if _, err := bus.Endpoint("late"); !errors.Is(err, ErrClosed) {
			t.Errorf("Endpoint after close: %v", err)
		}
	})
}

func TestBusStatsAccounting(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, medium bool) {
		a, b := endpoint(t, bus, "a"), endpoint(t, bus, "b")
		col := listen(b)
		payload := []byte("12345")
		for i := 0; i < 10; i++ {
			if err := a.Send("b", payload); err != nil {
				t.Fatal(err)
			}
		}
		col.wait(t, 10, time.Second)
		sa, sb := a.Stats(), b.Stats()
		if sa.PacketsSent != 10 || sa.BytesSent != 50 {
			t.Errorf("sender stats = %+v", sa)
		}
		if sb.PacketsRecv != 10 || sb.BytesRecv != 50 {
			t.Errorf("receiver stats = %+v", sb)
		}
		if p, by, _ := bus.WireStats(); medium && (p != 10 || by != 50) {
			t.Errorf("WireStats = %d pkts / %d B, want 10 / 50", p, by)
		}
		bus.ResetWireStats()
		if p, by, l := bus.WireStats(); p != 0 || by != 0 || l != 0 {
			t.Error("ResetWireStats did not zero counters")
		}
	})
}

func TestBusConcurrentTraffic(t *testing.T) {
	forEachBus(t, func(t *testing.T, bus *Bus, _ bool) {
		const n = 8
		eps := make([]*BusEndpoint, n)
		cols := make([]*collector, n)
		for i := range eps {
			eps[i] = endpoint(t, bus, NodeID(fmt.Sprintf("n%d", i)))
			cols[i] = listen(eps[i])
		}
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					dst := NodeID(fmt.Sprintf("n%d", (i+1)%n))
					_ = eps[i].Send(dst, []byte{byte(j)})
				}
			}(i)
		}
		wg.Wait()
		for i := range cols {
			cols[i].wait(t, 50, 2*time.Second)
		}
	})
}

func TestStatsAdd(t *testing.T) {
	a := Stats{PacketsSent: 1, BytesSent: 2, PacketsWire: 3, BytesWire: 4, PacketsRecv: 5, BytesRecv: 6, PacketsDropped: 7}
	b := a
	b.Add(a)
	want := Stats{PacketsSent: 2, BytesSent: 4, PacketsWire: 6, BytesWire: 8, PacketsRecv: 10, BytesRecv: 12, PacketsDropped: 14}
	if b != want {
		t.Errorf("Add = %+v, want %+v", b, want)
	}
}

// TestBusSendSharedHandsOverTheBuffer: SendShared runs every receiver's
// handler before it returns and gives each the sender's own buffer — the
// same handle over the same bytes, no copy. The bus keeps no reference, so
// after the sender's release only the receivers' retains keep it alive.
func TestBusSendSharedHandsOverTheBuffer(t *testing.T) {
	bus := NewBus()
	eps := make(map[NodeID]*BusEndpoint)
	got := make(map[NodeID][]Packet)
	for _, id := range []NodeID{"a", "b", "c"} {
		ep, err := bus.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep.Close() }()
		id := id
		eps[id] = ep
		// Delivery is inline on this goroutine: no lock needed.
		ep.SetHandler(func(pkt Packet) { got[id] = append(got[id], Packet{Payload: pkt.Payload, Owner: pkt.Owner.Retain()}) })
	}
	for _, id := range []NodeID{"b", "c"} {
		if err := eps[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	share := func(s string) *bufpool.Shared { return bufpool.Share(append(bufpool.Get(len(s)), s...)) }
	same := func(pkt Packet, buf *bufpool.Shared) bool {
		return pkt.Owner == buf && &pkt.Payload[0] == &buf.Bytes()[0] && len(pkt.Payload) == buf.Len()
	}

	uni := share("unicast")
	if err := eps["a"].SendShared("b", "", uni); err != nil {
		t.Fatal(err)
	}
	if len(got["b"]) != 1 || !same(got["b"][0], uni) {
		t.Fatalf("b got %+v by the time SendShared returned, want the sender's buffer itself", got["b"])
	}
	uni.Release()
	if uni.Refs() != 1 || string(got["b"][0].Payload) != "unicast" {
		t.Fatalf("after the sender's release: refs %d, payload %q; want the receiver's 1 and the bytes intact", uni.Refs(), got["b"][0].Payload)
	}

	grp := share("group")
	if err := eps["a"].SendShared("", "g", grp); err != nil {
		t.Fatal(err)
	}
	if len(got["b"]) != 2 || len(got["c"]) != 1 || !same(got["b"][1], grp) || !same(got["c"][0], grp) {
		t.Fatalf("group members got b=%d c=%d packets, want the one shared buffer each", len(got["b"]), len(got["c"]))
	}
	if grp.Refs() != 3 {
		t.Fatalf("group buffer refs = %d, want the sender's and two receivers'", grp.Refs())
	}
	grp.Release()

	ghost := share("ghost")
	if err := eps["a"].SendShared("ghost", "", ghost); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SendShared to an unknown node: %v, want ErrUnknownNode", err)
	}
	if ghost.Refs() != 1 {
		t.Fatalf("a failed SendShared left refs = %d, want the sender's 1", ghost.Refs())
	}
	ghost.Release()
	for _, pkts := range got {
		for _, pkt := range pkts {
			pkt.Owner.Release()
		}
	}
}

// TestSimBusSendSharedCopies: through the medium, SendShared delivers the
// medium's own copy with no Owner and holds no reference, so the sender's
// release frees the buffer at once.
func TestSimBusSendSharedCopies(t *testing.T) {
	bus := NewSimBus(SimConfig{Latency: time.Millisecond})
	t.Cleanup(bus.Close)
	a := endpoint(t, bus, "a")
	col := listen(endpoint(t, bus, "b"))
	buf := bufpool.Share(append(bufpool.Get(6), "shared"...))
	if err := a.SendShared("b", "", buf); err != nil {
		t.Fatal(err)
	}
	if buf.Refs() != 1 {
		t.Fatalf("refs = %d after SendShared, want the sender's 1", buf.Refs())
	}
	buf.Release()
	pkt := col.wait(t, 1, time.Second)[0]
	if pkt.Owner != nil || string(pkt.Payload) != "shared" {
		t.Errorf("packet = %+v, want the bytes with no Owner", pkt)
	}
}

// TestBusInlineSendAllocs gates the inline bus path, which the benchmark's
// bus workloads run on, at zero allocations per send.
func TestBusInlineSendAllocs(t *testing.T) {
	bus := NewBus()
	a := endpoint(t, bus, "a")
	var got int
	for _, id := range []NodeID{"b", "c"} {
		ep := endpoint(t, bus, id)
		ep.SetHandler(func(Packet) { got++ })
		if err := ep.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 64)
	buf := bufpool.Share(bufpool.Get(64))
	defer buf.Release()
	sends := []struct {
		name string
		send func() error
	}{
		{"Send", func() error { return a.Send("b", payload) }},
		{"SendGroup", func() error { return a.SendGroup("g", payload) }},
		{"SendShared", func() error { return a.SendShared("", "g", buf) }},
	}
	for _, tc := range sends {
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	if got == 0 {
		t.Fatal("no packet delivered")
	}
}

// TestSimBusPathChoice: a bus delivers inline, with no medium and so no
// delivery goroutine, until a latency, a loss or a link override is set; from then on it
// schedules through its medium.
func TestSimBusPathChoice(t *testing.T) {
	bus := NewSimBus(SimConfig{Seed: 5})
	t.Cleanup(bus.Close)
	a := endpoint(t, bus, "a")
	col := listen(endpoint(t, bus, "b"))
	endpoint(t, bus, "c")
	if err := a.Send("b", []byte("inline")); err != nil {
		t.Fatal(err)
	}
	if col.count() != 1 || bus.sim.Load() != nil {
		t.Fatalf("before any override: %d delivered within Send, medium started %v; want 1 and false",
			col.count(), bus.sim.Load() != nil)
	}
	bus.SetLink("a", "c", LinkConfig{BandwidthBPS: 1_000_000})
	if bus.sim.Load() == nil {
		t.Fatal("a link override left the bus inline")
	}
	if err := a.Send("b", []byte("scheduled")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 2, time.Second)
	if p, _, _ := bus.WireStats(); p != 1 {
		t.Errorf("medium carried %d packets, want the one sent after the override", p)
	}
	for _, cfg := range []SimConfig{{Latency: time.Millisecond}, {Loss: 0.1}} {
		bus := NewSimBus(cfg)
		if bus.sim.Load() == nil {
			t.Errorf("%+v: bus delivers inline, want the medium", cfg)
		}
		bus.Close()
	}
}

// TestSimBusLatency: the medium delays every delivery by its latency.
func TestSimBusLatency(t *testing.T) {
	bus := NewSimBus(SimConfig{Latency: 30 * time.Millisecond})
	t.Cleanup(bus.Close)
	a := endpoint(t, bus, "a")
	col := listen(endpoint(t, bus, "b"))
	start := time.Now()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivered in %v, want >= ~30ms", elapsed)
	}
}

// lossRun sends n packets over a Loss 0.5 medium seeded with seed, to the
// group every receiver joined when group is set and to r0 otherwise, and
// returns what each receiver got, in order.
func lossRun(t *testing.T, seed int64, receivers, n int, group bool) [][]byte {
	t.Helper()
	bus := NewSimBus(SimConfig{Loss: 0.5, Seed: seed})
	defer bus.Close()
	src := endpoint(t, bus, "src")
	cols := make([]*collector, receivers)
	for i := range cols {
		ep := endpoint(t, bus, NodeID(fmt.Sprintf("r%d", i)))
		cols[i] = listen(ep)
		if err := ep.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		var err error
		if group {
			err = src.SendGroup("g", []byte{byte(i)})
		} else {
			err = src.Send("r0", []byte{byte(i)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	sent := n
	if group {
		sent = n * receivers
	}
	_, _, lost := bus.WireStats()
	waitFor(t, "every surviving delivery", func() bool {
		total := 0
		for _, col := range cols {
			total += col.count()
		}
		return total == sent-int(lost)
	})
	out := make([][]byte, receivers)
	for i, col := range cols {
		for _, pkt := range col.wait(t, 0, time.Second) {
			out[i] = append(out[i], pkt.Payload[0])
		}
	}
	return out
}

// TestSimBusLossIsSeeded: with a fixed seed, which packets a lossy medium
// drops is exact run to run.
func TestSimBusLossIsSeeded(t *testing.T) {
	first, second := lossRun(t, 42, 1, 200, false), lossRun(t, 42, 1, 200, false)
	if !slices.Equal(first[0], second[0]) {
		t.Errorf("same seed delivered %v then %v", first[0], second[0])
	}
	if n := len(first[0]); n < 60 || n > 140 {
		t.Errorf("loss rate implausible: delivered %d of 200 at 50%% loss", n)
	}
}

// TestSimBusGroupLossIsSeeded: a group send draws each receiver's loss in
// join order, so two same-seed runs deliver identical per-receiver
// sequences.
func TestSimBusGroupLossIsSeeded(t *testing.T) {
	first, second := lossRun(t, 7, 8, 40, true), lossRun(t, 7, 8, 40, true)
	for i := range first {
		if !slices.Equal(first[i], second[i]) {
			t.Errorf("r%d: same seed delivered %v then %v", i, first[i], second[i])
		}
	}
}

func TestSimBusPartitionAndHeal(t *testing.T) {
	bus := NewSimBus(SimConfig{Latency: time.Millisecond})
	t.Cleanup(bus.Close)
	a := endpoint(t, bus, "a")
	col := listen(endpoint(t, bus, "b"))
	bus.Partition("a", "b")
	if err := a.Send("b", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if _, _, lost := bus.WireStats(); lost != 1 {
		t.Errorf("partition loss counted %d, want 1", lost)
	}
	bus.Heal("a", "b")
	if err := a.Send("b", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	pkts := col.wait(t, 1, time.Second)
	if len(pkts) != 1 || string(pkts[0].Payload) != "ok" {
		t.Errorf("delivered %+v, want only the post-heal packet", pkts)
	}
}

// TestSimBusLinkBandwidthConformance pins the link model experiment E13
// depends on: N bytes through a link capped at R bytes/second arrive in
// ≈ N/R, with packets serialized FIFO at the link.
func TestSimBusLinkBandwidthConformance(t *testing.T) {
	bus := NewSimBus(SimConfig{})
	t.Cleanup(bus.Close)
	a := endpoint(t, bus, "a")
	col := listen(endpoint(t, bus, "b"))
	bus.SetLink("a", "b", LinkConfig{BandwidthBPS: 1_000_000}) // 1 MB/s

	const pkts, size = 50, 2000 // 100 KB total → 100 ms at 1 MB/s
	start := time.Now()
	for i := 0; i < pkts; i++ {
		if err := a.Send("b", make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, pkts, 5*time.Second)
	elapsed := time.Since(start)
	want := time.Duration(float64(pkts*size) / 1_000_000 * float64(time.Second))
	if elapsed < want-want/10 {
		t.Errorf("%d bytes at 1MB/s delivered in %v, conformance wants >= ~%v", pkts*size, elapsed, want)
	}
	if elapsed > 6*want {
		t.Errorf("%d bytes at 1MB/s took %v, want ≈%v", pkts*size, elapsed, want)
	}
}

// TestSimBusLinkBandwidthIsolated pins the E13 topology: one constrained
// directed link does not slow traffic from the same sender to other nodes.
func TestSimBusLinkBandwidthIsolated(t *testing.T) {
	bus := NewSimBus(SimConfig{})
	t.Cleanup(bus.Close)
	a := endpoint(t, bus, "a")
	colSlow := listen(endpoint(t, bus, "slow"))
	colFast := listen(endpoint(t, bus, "fast"))
	bus.SetLink("a", "slow", LinkConfig{BandwidthBPS: 100_000}) // 100 KB/s

	// 50 KB down the slow link (≈500 ms), then one packet to the fast peer.
	for i := 0; i < 25; i++ {
		if err := a.Send("slow", make([]byte, 2000)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := a.Send("fast", make([]byte, 2000)); err != nil {
		t.Fatal(err)
	}
	colFast.wait(t, 1, 2*time.Second)
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("fast-link packet took %v behind a congested sibling link", elapsed)
	}
	colSlow.wait(t, 25, 5*time.Second)
	if elapsed := time.Since(start); elapsed < 350*time.Millisecond {
		t.Errorf("slow link finished 50KB at 100KB/s in %v, want ≈500ms", elapsed)
	}
}

// TestSimBusLinkStats pins the per-directed-link wire counters: unicast
// and multicast traffic is attributed to each from→to link independently,
// a blocked link's losses are charged to that link only, and
// ResetWireStats clears everything.
func TestSimBusLinkStats(t *testing.T) {
	bus := NewSimBus(SimConfig{Latency: time.Millisecond})
	t.Cleanup(bus.Close)
	a, b, c := endpoint(t, bus, "a"), endpoint(t, bus, "b"), endpoint(t, bus, "c")
	cb, cc := listen(b), listen(c)
	for _, ep := range []*BusEndpoint{a, b, c} {
		if err := ep.Join("g"); err != nil {
			t.Fatal(err)
		}
	}

	// 2 unicasts a→b of 10 bytes, 1 multicast of 7 bytes (a→b and a→c).
	for i := 0; i < 2; i++ {
		if err := a.Send("b", make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SendGroup("g", make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 3, time.Second)
	cc.wait(t, 1, time.Second)

	if ab := bus.LinkStats("a", "b"); ab != (LinkStats{Packets: 3, Bytes: 27}) {
		t.Errorf("a→b = %+v, want {3 27 0}", ab)
	}
	if ac := bus.LinkStats("a", "c"); ac != (LinkStats{Packets: 1, Bytes: 7}) {
		t.Errorf("a→c = %+v, want {1 7 0}", ac)
	}
	if ba := bus.LinkStats("b", "a"); ba.Packets != 0 {
		t.Errorf("b→a should be untouched, got %+v", ba)
	}

	bus.SetLink("a", "b", LinkConfig{Blocked: true})
	if err := a.SendGroup("g", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	cc.wait(t, 2, time.Second)
	if ab := bus.LinkStats("a", "b"); ab.Packets != 4 || ab.Lost != 1 {
		t.Errorf("a→b after blackout = %+v, want Packets 4, Lost 1", ab)
	}
	if ac := bus.LinkStats("a", "c"); ac.Lost != 0 {
		t.Errorf("a→c should have no losses, got %+v", ac)
	}

	bus.ResetWireStats()
	if got := bus.LinkStats("a", "b"); got != (LinkStats{}) {
		t.Errorf("reset left a→b = %+v", got)
	}
}

// TestSimBusLinkStatsCountRandomLoss pins loss attribution to the link
// that lost the packet, and to the receiver's drop counter.
func TestSimBusLinkStatsCountRandomLoss(t *testing.T) {
	bus := NewSimBus(SimConfig{Loss: 1, Seed: 3})
	t.Cleanup(bus.Close)
	a := endpoint(t, bus, "a")
	b := endpoint(t, bus, "b")
	if err := a.Send("b", make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if ab := bus.LinkStats("a", "b"); ab != (LinkStats{Packets: 1, Bytes: 4, Lost: 1}) {
		t.Errorf("a→b = %+v, want {1 4 1}", ab)
	}
	if d := b.Stats().PacketsDropped; d != 1 {
		t.Errorf("receiver dropped = %d, want 1", d)
	}
}
