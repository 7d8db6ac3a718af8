package transport

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/bufpool"
)

// netDial opens a plain UDP connection to addr for injecting raw datagrams.
func netDial(addr string) (net.Conn, error) {
	return net.Dial("udp4", addr)
}

// unreadSocket binds a loopback UDP socket nobody reads from: datagrams
// sent to it are queued or dropped by the kernel, so a sender's allocation
// count is the sender's alone.
func unreadSocket(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestUDPWirePathAllocs gates the UDP datagram path at zero allocations per
// datagram: a unicast send, a group send to a native multicast address and
// as unicast fan-out, and one pass of the read loop (pooled buffer, read,
// envelope decode, handler, release).
func TestUDPWirePathAllocs(t *testing.T) {
	sinks := map[NodeID]string{
		"s1": unreadSocket(t).LocalAddr().String(),
		"s2": unreadSocket(t).LocalAddr().String(),
	}
	native, err := NewUDP("n", "127.0.0.1:0", sinks, WithGroupPortBase(27000))
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	t.Cleanup(func() { _ = native.Close() })
	fanout, err := NewUDP("f", "127.0.0.1:0", sinks, WithUnicastFanout())
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	t.Cleanup(func() { _ = fanout.Close() })

	payload := make([]byte, 64)
	sends := []struct {
		name string
		send func() error
	}{
		{"Send", func() error { return native.Send("s1", payload) }},
		{"SendGroup/native", func() error { return native.SendGroup("g", payload) }},
		{"SendGroup/fanout", func() error { return fanout.SendGroup("g", payload) }},
	}
	for _, tc := range sends {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.send(); err != nil {
				t.Skipf("send unavailable on this host: %v", err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := tc.send(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}

	t.Run("read", func(t *testing.T) {
		conn := unreadSocket(t)
		src, err := net.DialUDP("udp4", nil, conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = src.Close() }()
		var got int
		native.SetHandler(func(pkt Packet) {
			if string(pkt.Payload) == "datagram" && pkt.Owner != nil {
				got++
			}
		})
		env := native.seal(nil, udpUnicast, "", []byte("datagram"))
		const runs = 50
		for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
			if _, err := src.Write(env); err != nil {
				t.Fatal(err)
			}
		}
		// A datagram the kernel dropped must fail the test, not hang it.
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, maxDatagram)
		allocs := testing.AllocsPerRun(runs, func() {
			if !native.receive(conn, buf) {
				t.Fatal("read failed")
			}
		})
		if got != runs+1 {
			t.Fatalf("handler saw %d datagrams, want %d", got, runs+1)
		}
		if allocs != 0 {
			t.Errorf("read loop: %v allocs/datagram, want 0", allocs)
		}
	})
}

// TestUDPHeldDatagramsPinTheirOwnSize holds 64 received small datagrams
// unreleased, as an ingress ring does until dispatch: each must pin a
// buffer of its own size class, not the read loop's 64 KiB one, and the
// reads must allocate no 64 KiB buffer once the loop's own exists.
func TestUDPHeldDatagramsPinTheirOwnSize(t *testing.T) {
	u, err := NewUDP("held", "127.0.0.1:0", nil)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	t.Cleanup(func() { _ = u.Close() })
	conn := unreadSocket(t)
	src, err := net.DialUDP("udp4", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	const held = 64
	var owners []*bufpool.Shared
	u.SetHandler(func(pkt Packet) { owners = append(owners, pkt.Owner.Retain()) })
	defer func() {
		for _, o := range owners {
			o.Release()
		}
	}()
	env := u.seal(nil, udpUnicast, "", make([]byte, 100))
	for i := 0; i < held; i++ {
		if _, err := src.Write(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, maxDatagram)
	owners = make([]*bufpool.Shared, 0, held)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < held; i++ {
		if !u.receive(conn, buf) {
			t.Fatalf("read %d failed", i)
		}
	}
	runtime.ReadMemStats(&after)
	if len(owners) != held {
		t.Fatalf("handler saw %d datagrams, want %d", len(owners), held)
	}
	for i, o := range owners {
		if c := cap(o.Bytes()); c >= maxDatagram {
			t.Fatalf("datagram %d of %d B pins a %d B buffer", i, o.Len(), c)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxDatagram {
		t.Errorf("%d held datagrams allocated %d B, at least one 64 KiB buffer", held, grew)
	}
}

// TestUDPFanoutDuringPeerChurn sends fan-out group packets from several
// goroutines while the address book changes under them: a send ranges over
// the peer slice it read under the lock, which AddPeer and RemovePeer
// replace and never write (run with -race).
func TestUDPFanoutDuringPeerChurn(t *testing.T) {
	a, err := NewUDP("a", "127.0.0.1:0", nil, WithUnicastFanout())
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := NewUDP("b", "127.0.0.1:0", nil, WithUnicastFanout())
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	t.Cleanup(func() { _ = b.Close() })
	if err := b.Join("g"); err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	b.SetHandler(func(Packet) { received.Add(1) })
	if err := a.AddPeer("b", b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	churn := unreadSocket(t).LocalAddr().String()

	const senders, sends = 4, 50
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.AddPeer("c", churn); err != nil {
				t.Error(err)
				return
			}
			a.RemovePeer("c")
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				if err := a.SendGroup("g", make([]byte, 32)); err != nil {
					t.Errorf("SendGroup: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-churned

	const total = senders * sends
	st := a.Stats()
	if st.PacketsSent != total || st.PacketsDropped != 0 {
		t.Errorf("sent, dropped = %d, %d, want %d, 0", st.PacketsSent, st.PacketsDropped, total)
	}
	// Every send reached b; some also reached c while it was listed.
	if st.PacketsWire < total || st.PacketsWire > 2*total {
		t.Errorf("wire packets = %d, want %d..%d", st.PacketsWire, total, 2*total)
	}
	// Loopback may shed under a slow reader, so arrival is only sanity.
	deadline := time.Now().Add(2 * time.Second)
	for received.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if received.Load() == 0 {
		t.Error("nothing arrived")
	}
}

// newUDPPair builds two UDP transports wired to each other on loopback.
func newUDPPair(t *testing.T) (*UDP, *UDP) {
	t.Helper()
	a, err := NewUDP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	b, err := NewUDP("b", "127.0.0.1:0", nil)
	if err != nil {
		_ = a.Close()
		t.Skipf("udp unavailable: %v", err)
	}
	if err := a.AddPeer("b", b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func TestUDPUnicast(t *testing.T) {
	a, b := newUDPPair(t)
	col := newCollector()
	b.SetHandler(col.handler())

	if err := a.Send("b", []byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	pkts := col.wait(t, 1, 2*time.Second)
	if pkts[0].From != "a" || string(pkts[0].Payload) != "ping" {
		t.Errorf("packet = %+v", pkts[0])
	}
	// Reply direction.
	colA := newCollector()
	a.SetHandler(colA.handler())
	if err := b.Send("a", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	back := colA.wait(t, 1, 2*time.Second)
	if string(back[0].Payload) != "pong" {
		t.Errorf("reply = %+v", back[0])
	}
}

func TestUDPUnknownPeer(t *testing.T) {
	a, _ := newUDPPair(t)
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestUDPClose(t *testing.T) {
	a, err := NewUDP("solo", "127.0.0.1:0", nil)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Error("Close must be idempotent")
	}
	if err := a.Send("x", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

func TestUDPLeaveSemantics(t *testing.T) {
	a, err := NewUDP("solo", "127.0.0.1:0", nil, WithUnicastFanout())
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	// Leaving a never-joined group is a harmless no-op.
	if err := a.Leave("ghost-group"); err != nil {
		t.Errorf("leave unknown group: %v", err)
	}
	if err := a.Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := a.Leave("g"); err != nil {
		t.Errorf("leave joined group: %v", err)
	}
	if err := a.Leave("g"); err != nil {
		t.Errorf("double leave must be idempotent: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the transport is gone; Leave must say so rather than
	// silently mutating a dead handle.
	if err := a.Leave("g"); !errors.Is(err, ErrClosed) {
		t.Errorf("leave after close: %v, want ErrClosed", err)
	}
}

func TestUDPMulticast(t *testing.T) {
	a, b := newUDPPair(t)
	const group = "mc-test"
	if err := b.Join(group); err != nil {
		t.Skipf("multicast unavailable in this environment: %v", err)
	}
	col := newCollector()
	b.SetHandler(col.handler())

	// Multicast may be flaky on constrained hosts; try a few times, skip
	// if nothing ever arrives.
	for i := 0; i < 10; i++ {
		if err := a.SendGroup(group, []byte("mc")); err != nil {
			t.Skipf("multicast send failed: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
		if col.count() > 0 {
			pkts := col.wait(t, 1, time.Second)
			if pkts[0].Group != group || string(pkts[0].Payload) != "mc" {
				t.Errorf("packet = %+v", pkts[0])
			}
			if err := b.Leave(group); err != nil {
				t.Errorf("Leave: %v", err)
			}
			return
		}
	}
	t.Skip("multicast not routable in this environment")
}

func TestUDPGroupAddrDeterministic(t *testing.T) {
	a, b := newUDPPair(t)
	if a.GroupAddr("g1").String() != b.GroupAddr("g1").String() {
		t.Error("group address must be derived identically on all nodes")
	}
	if a.GroupAddr("g1").String() == a.GroupAddr("g2").String() {
		t.Error("different groups should get different addresses")
	}
}

func TestUDPBadDatagramIgnored(t *testing.T) {
	a, b := newUDPPair(t)
	col := newCollector()
	b.SetHandler(col.handler())
	// Raw garbage straight to the socket: must be counted dropped, not crash.
	conn, err := netDial(b.LocalAddr())
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte{0xFF, 0x00, 0x01}); err != nil {
		t.Skipf("write: %v", err)
	}
	deadline := time.After(2 * time.Second)
	for b.Stats().PacketsDropped == 0 {
		select {
		case <-deadline:
			t.Fatal("garbage datagram not counted as dropped")
		case <-time.After(time.Millisecond):
		}
	}
	_ = a
}

// TestNoTransportBatches: the egress drainers hand a transport one datagram
// per call, and no transport here offers more. BatchSender stays declared
// only for the benchmark harness's trace decorator.
func TestNoTransportBatches(t *testing.T) {
	for _, tr := range []Transport{(*UDP)(nil), (*BusEndpoint)(nil)} {
		if _, ok := tr.(BatchSender); ok {
			t.Errorf("%T implements BatchSender", tr)
		}
	}
}

// Compile-time checks: the address-book transports implement PeerBook and
// Addressable, so the container's bearer plane can manage their peers from
// discovery records.
var (
	_ PeerBook    = (*UDP)(nil)
	_ Addressable = (*UDP)(nil)
)

func TestUDPAddPeerIdempotentUpdate(t *testing.T) {
	a, b := newUDPPair(t)
	// Stand up a third endpoint and re-point "b" at it: the next Send must
	// go to the new address, not the original b.
	c, err := NewUDP("c", "127.0.0.1:0", nil)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	colB, colC := newCollector(), newCollector()
	b.SetHandler(colB.handler())
	c.SetHandler(colC.handler())

	if err := a.AddPeer("b", c.LocalAddr()); err != nil {
		t.Fatalf("re-AddPeer: %v", err)
	}
	if err := a.Send("b", []byte("moved")); err != nil {
		t.Fatalf("Send after update: %v", err)
	}
	pkts := colC.wait(t, 1, 2*time.Second)
	if string(pkts[0].Payload) != "moved" {
		t.Errorf("payload = %q", pkts[0].Payload)
	}
	if colB.count() != 0 {
		t.Errorf("old address still received %d packets", colB.count())
	}
	if err := a.AddPeer("", c.LocalAddr()); err == nil {
		t.Error("empty peer id accepted")
	}
}

func TestUDPRemovePeer(t *testing.T) {
	a, b := newUDPPair(t)
	a.RemovePeer("b")
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Send after RemovePeer = %v, want ErrUnknownNode", err)
	}
	a.RemovePeer("b") // removing again is a no-op
	// Re-adding restores delivery.
	col := newCollector()
	b.SetHandler(col.handler())
	if err := a.AddPeer("b", b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("back")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 2*time.Second)
}

// TestUDPAddPeerEmptyHost: a peer address with no host (":port") means
// this host, as it does to the net package's own writes.
func TestUDPAddPeerEmptyHost(t *testing.T) {
	a, b := newUDPPair(t)
	_, port, err := net.SplitHostPort(b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer("b", ":"+port); err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	b.SetHandler(col.handler())
	if err := a.Send("b", []byte("here")); err != nil {
		t.Fatalf("Send to an empty-host address: %v", err)
	}
	col.wait(t, 1, 2*time.Second)
}
