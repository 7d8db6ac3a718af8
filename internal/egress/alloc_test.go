package egress

import (
	"testing"

	"uavmw/internal/bufpool"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// notifySender transmits into the void and signals completion. It must not
// allocate: the enqueue→drain alloc gate below measures process-wide
// allocations, drainer goroutine included.
type notifySender struct {
	done chan struct{}
}

func (s *notifySender) Send(transport.NodeID, []byte) error {
	s.done <- struct{}{}
	return nil
}

func (s *notifySender) SendGroup(string, []byte) error {
	s.done <- struct{}{}
	return nil
}

// TestEnqueueDrainAllocs pins the steady-state allocation cost of the
// owned-buffer unicast path: pooled encode, enqueue, lane drain, transmit,
// buffer release. The whole cycle must stay allocation-free — this is the
// per-frame path every best-effort send rides.
func TestEnqueueDrainAllocs(t *testing.T) {
	s := &notifySender{done: make(chan struct{}, 1)}
	p := New(s, Config{CoalesceMax: -1})
	defer p.Close()

	frame, err := protocol.EncodeFrame(&protocol.Frame{
		Type: protocol.MTSample, Priority: qos.PriorityNormal,
		Channel: "t", Seq: 1, Payload: make([]byte, 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		raw := append(bufpool.Get(len(frame)), frame...)
		if err := p.EnqueueTo(Dest{Node: "peer"}, qos.PriorityNormal, raw); err != nil {
			t.Fatal(err)
		}
		<-s.done
	}
	// Warm the pools and the drainer's scratch state.
	for i := 0; i < 8; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Errorf("enqueue→drain: %v allocs/op, want 0", allocs)
	}
}
