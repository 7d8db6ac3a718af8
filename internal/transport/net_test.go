package transport

import (
	"errors"
	"net"
	"testing"
	"time"
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

// readAllocs queues datagrams on conn and reports rd's allocations per
// read of one of them.
func readAllocs(t *testing.T, conn *net.UDPConn, rd datagramReader) float64 {
	t.Helper()
	src, err := net.DialUDP("udp4", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	const runs = 50
	for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
		if _, err := src.Write([]byte("datagram")); err != nil {
			t.Fatal(err)
		}
	}
	// A datagram the kernel dropped must fail the test, not hang it.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{make([]byte, 2048)}
	sizes := make([]int, 1)
	return testing.AllocsPerRun(runs, func() {
		if n, err := rd.read(bufs, sizes); err != nil || n != 1 || sizes[0] != len("datagram") {
			t.Fatalf("read = %d datagrams of %d bytes, %v", n, sizes[0], err)
		}
	})
}

// TestSingleReaderAllocs gates the portable one-datagram read: reading a
// queued datagram allocates nothing (no sender address is asked for).
func TestSingleReaderAllocs(t *testing.T) {
	conn := unreadSocket(t)
	if allocs := readAllocs(t, conn, singleReader{conn}); allocs != 0 {
		t.Errorf("singleReader.read: %v allocs/op, want 0", allocs)
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
