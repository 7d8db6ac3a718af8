package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"uavmw/internal/bufpool"
)

// collector gathers delivered packets for assertions.
type collector struct {
	mu   sync.Mutex
	pkts []Packet
	ch   chan Packet
}

func newCollector() *collector {
	return &collector{ch: make(chan Packet, 256)}
}

func (c *collector) handler() Handler {
	return func(pkt Packet) {
		c.mu.Lock()
		c.pkts = append(c.pkts, pkt)
		c.mu.Unlock()
		select {
		case c.ch <- pkt:
		default:
		}
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

func TestBusUnicast(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := bus.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	col := newCollector()
	b.SetHandler(col.handler())

	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	pkts := col.wait(t, 1, time.Second)
	if pkts[0].From != "a" || pkts[0].To != "b" || string(pkts[0].Payload) != "hello" {
		t.Errorf("packet = %+v", pkts[0])
	}
}

func TestBusUnknownDestination(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestBusDuplicateNode(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if _, err := bus.Endpoint("a"); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("want ErrDuplicateNode, got %v", err)
	}
	if _, err := bus.Endpoint(""); err == nil {
		t.Error("empty id must fail")
	}
}

func TestBusMulticast(t *testing.T) {
	bus := NewBus()
	pub, err := bus.Endpoint("pub")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()

	const groupName = "telemetry"
	cols := make([]*collector, 3)
	for i := range cols {
		ep, err := bus.Endpoint(NodeID(fmt.Sprintf("sub%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep.Close() }()
		cols[i] = newCollector()
		ep.SetHandler(cols[i].handler())
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

	// One wire packet despite three receivers (E3's core property).
	st := pub.Stats()
	if st.PacketsWire != 1 {
		t.Errorf("PacketsWire = %d, want 1", st.PacketsWire)
	}
}

func TestBusGroupNoSelfLoopback(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	col := newCollector()
	a.SetHandler(col.handler())
	if err := a.Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := a.SendGroup("g", []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if col.count() != 0 {
		t.Error("sender must not receive its own group packet")
	}
}

func TestBusLeaveGroup(t *testing.T) {
	bus := NewBus()
	pub, _ := bus.Endpoint("pub")
	defer func() { _ = pub.Close() }()
	sub, _ := bus.Endpoint("sub")
	defer func() { _ = sub.Close() }()
	col := newCollector()
	sub.SetHandler(col.handler())

	if err := sub.Join("g"); err != nil {
		t.Fatal(err)
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
	time.Sleep(20 * time.Millisecond)
	if col.count() != 1 {
		t.Errorf("got %d packets after leave, want 1", col.count())
	}
}

func TestBusNoHandlerDrops(t *testing.T) {
	bus := NewBus()
	a, _ := bus.Endpoint("a")
	defer func() { _ = a.Close() }()
	b, _ := bus.Endpoint("b")
	defer func() { _ = b.Close() }()

	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(time.Second)
	for b.Stats().PacketsDropped == 0 {
		select {
		case <-deadline:
			t.Fatal("drop not counted")
		case <-time.After(time.Millisecond):
		}
	}
	if b.Stats().PacketsRecv != 0 {
		t.Error("no packet should be delivered without a handler")
	}
}

func TestBusCloseSemantics(t *testing.T) {
	bus := NewBus()
	a, _ := bus.Endpoint("a")
	b, _ := bus.Endpoint("b")
	col := newCollector()
	b.SetHandler(col.handler())

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
	a2, err := bus.Endpoint("a")
	if err != nil {
		t.Fatalf("reuse id after close: %v", err)
	}
	_ = a2.Close()
	_ = b.Close()
}

func TestBusStatsAccounting(t *testing.T) {
	bus := NewBus()
	a, _ := bus.Endpoint("a")
	defer func() { _ = a.Close() }()
	b, _ := bus.Endpoint("b")
	defer func() { _ = b.Close() }()
	col := newCollector()
	b.SetHandler(col.handler())

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
}

func TestBusNodes(t *testing.T) {
	bus := NewBus()
	a, _ := bus.Endpoint("a")
	defer func() { _ = a.Close() }()
	b, _ := bus.Endpoint("b")
	defer func() { _ = b.Close() }()
	nodes := bus.Nodes()
	if len(nodes) != 2 {
		t.Errorf("Nodes() = %v", nodes)
	}
}

func TestBusConcurrentTraffic(t *testing.T) {
	bus := NewBus()
	const n = 8
	eps := make([]*BusEndpoint, n)
	cols := make([]*collector, n)
	for i := range eps {
		ep, err := bus.Endpoint(NodeID(fmt.Sprintf("n%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep.Close() }()
		eps[i] = ep
		cols[i] = newCollector()
		ep.SetHandler(cols[i].handler())
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
