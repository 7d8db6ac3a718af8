package transport

import (
	"testing"
	"time"
)

// TestStatsUniformShape pins the one-shape contract of Transport.Stats
// across every implementation: after a delivered unicast send, the sender
// reports it under PacketsSent/BytesSent *and* PacketsWire/BytesWire, and
// the receiver reports it under PacketsRecv/BytesRecv. The container's
// transport gauges read these counters without knowing which substrate
// backs a bearer, so the shape must not vary.
func TestStatsUniformShape(t *testing.T) {
	const payload = "stats-probe"

	type endpoints struct {
		sender, receiver Transport
	}
	bus := func(t *testing.T, cfg SimConfig) endpoints {
		bus := NewSimBus(cfg)
		t.Cleanup(bus.Close)
		return endpoints{endpoint(t, bus, "a"), endpoint(t, bus, "b")}
	}
	cases := []struct {
		name  string
		build func(t *testing.T) endpoints
	}{
		{"inproc", func(t *testing.T) endpoints { return bus(t, SimConfig{}) }},
		{"sim", func(t *testing.T) endpoints { return bus(t, SimConfig{Latency: time.Millisecond}) }},
		{"udp", func(t *testing.T) endpoints {
			a, b := newUDPPair(t)
			return endpoints{a, b}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eps := tc.build(t)
			col := newCollector()
			eps.receiver.SetHandler(col.handler())
			if err := eps.sender.Send("b", []byte(payload)); err != nil {
				t.Fatalf("Send: %v", err)
			}
			col.wait(t, 1, 2*time.Second)

			s := eps.sender.Stats()
			if s.PacketsSent != 1 || s.BytesSent != uint64(len(payload)) {
				t.Errorf("sender sent counters = %d pkts / %d B, want 1 / %d", s.PacketsSent, s.BytesSent, len(payload))
			}
			if s.PacketsWire != 1 || s.BytesWire != uint64(len(payload)) {
				t.Errorf("sender wire counters = %d pkts / %d B, want 1 / %d", s.PacketsWire, s.BytesWire, len(payload))
			}
			if s.PacketsDropped != 0 {
				t.Errorf("sender dropped = %d, want 0", s.PacketsDropped)
			}

			// Receiver-side counters may trail the handler call by a stats
			// update; poll briefly.
			deadline := time.Now().Add(time.Second)
			var r Stats
			for {
				r = eps.receiver.Stats()
				if r.PacketsRecv >= 1 || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if r.PacketsRecv != 1 || r.BytesRecv != uint64(len(payload)) {
				t.Errorf("receiver recv counters = %d pkts / %d B, want 1 / %d", r.PacketsRecv, r.BytesRecv, len(payload))
			}
		})
	}
}
