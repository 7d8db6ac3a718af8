package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"uavmw/internal/transport"
)

func TestGBNInOrderNoLoss(t *testing.T) {
	var received []string
	var mu sync.Mutex
	var a, b *goBackN
	a = newGoBackN("b", func(_ transport.NodeID, payload []byte) error {
		cp := append([]byte(nil), payload...)
		go b.HandlePacket(cp)
		return nil
	}, nil, 10*time.Millisecond, 8)
	b = newGoBackN("a", func(_ transport.NodeID, payload []byte) error {
		cp := append([]byte(nil), payload...)
		go a.HandlePacket(cp)
		return nil
	}, func(msg []byte) {
		mu.Lock()
		received = append(received, string(msg))
		mu.Unlock()
	}, 10*time.Millisecond, 8)
	defer a.Close()
	defer b.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		got := len(received)
		mu.Unlock()
		if got == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("delivered %d of %d", got, n)
		case <-time.After(time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, msg := range received {
		if msg != fmt.Sprintf("m%03d", i) {
			t.Fatalf("out of order at %d: %q", i, msg)
		}
	}
	if a.Unacked() != 0 {
		t.Errorf("unacked = %d", a.Unacked())
	}
}

func TestGBNRecoversFromLoss(t *testing.T) {
	var received []string
	var mu sync.Mutex
	// Seeded random loss: deterministic run-to-run, but free of the
	// modulo-period pathology where the same retransmitted packet is
	// dropped every round.
	rng := rand.New(rand.NewSource(17))
	var a, b *goBackN
	a = newGoBackN("b", func(_ transport.NodeID, payload []byte) error {
		mu.Lock()
		drop := payload[0] == gbnData && rng.Float64() < 0.25
		mu.Unlock()
		if drop {
			return nil
		}
		cp := append([]byte(nil), payload...)
		go b.HandlePacket(cp)
		return nil
	}, nil, 5*time.Millisecond, 8)
	b = newGoBackN("a", func(_ transport.NodeID, payload []byte) error {
		cp := append([]byte(nil), payload...)
		go a.HandlePacket(cp)
		return nil
	}, func(msg []byte) {
		mu.Lock()
		received = append(received, string(msg))
		mu.Unlock()
	}, 5*time.Millisecond, 8)
	defer a.Close()
	defer b.Close()

	const n = 30
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		got := len(received)
		mu.Unlock()
		if got == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("delivered %d of %d under loss", got, n)
		case <-time.After(time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, msg := range received {
		if msg != fmt.Sprintf("m%03d", i) {
			t.Fatalf("order violated at %d: %q", i, msg)
		}
	}
	if a.Retransmits() == 0 {
		t.Error("expected retransmissions under loss")
	}
}

func TestGBNWindowBackpressure(t *testing.T) {
	// With acks never arriving, sends beyond the window queue as pending.
	transmitted := 0
	a := newGoBackN("b", func(transport.NodeID, []byte) error { transmitted++; return nil },
		nil, time.Hour, 4)
	defer a.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Unacked(); got != 10 {
		t.Errorf("unacked+pending = %d, want 10", got)
	}
	if transmitted != 4 {
		t.Errorf("transmitted %d, want window of 4", transmitted)
	}
}

func TestGBNCloseRejectsSends(t *testing.T) {
	a := newGoBackN("b", func(transport.NodeID, []byte) error { return nil }, nil, time.Millisecond, 4)
	a.Close()
	a.Close() // idempotent
	if err := a.Send([]byte("x")); err == nil {
		t.Error("send after close must fail")
	}
}

func TestGBNStaleAndGarbagePackets(t *testing.T) {
	var a *goBackN
	a = newGoBackN("b", func(transport.NodeID, []byte) error { return nil },
		func([]byte) {}, time.Hour, 4)
	defer a.Close()
	a.HandlePacket(nil)                                     // too short
	a.HandlePacket([]byte{9, 0, 0})                         // bad kind, truncated
	a.HandlePacket([]byte{gbnAck, 0, 0, 0, 0, 0, 0, 0, 99}) // ack for nothing sent is stale? seq 99 > base
	_ = a
}
