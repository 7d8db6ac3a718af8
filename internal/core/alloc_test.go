package core

import (
	"testing"
	"time"

	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// wireSink is a transport that discards what it is sent and says so: the
// allocation gate below counts process-wide, so the sink must not allocate
// and the test must know when the egress drainer is done.
type wireSink struct {
	id   transport.NodeID
	sent chan struct{}
}

func (s *wireSink) Node() transport.NodeID       { return s.id }
func (s *wireSink) Join(string) error            { return nil }
func (s *wireSink) Leave(string) error           { return nil }
func (s *wireSink) SetHandler(transport.Handler) {}
func (s *wireSink) Stats() transport.Stats       { return transport.Stats{} }
func (s *wireSink) Close() error                 { return nil }

func (s *wireSink) Send(to transport.NodeID, _ []byte) error {
	if to == "peer" {
		s.sent <- struct{}{}
	}
	return nil
}

func (s *wireSink) SendGroup(string, []byte) error { return nil }

// TestReliableTransmitAllocs gates the send side of a reliable unicast that
// fits one datagram — transmit, ARQ registration, the egress lane and its
// drain, and the acknowledgment that ends it — at zero: the frame is
// encoded into a pooled buffer, ARQ's retained copy and the plane's own are
// pooled too, and the pending record and its timer come off ARQ's free
// list.
func TestReliableTransmitAllocs(t *testing.T) {
	sink := &wireSink{id: "alloc-gate", sent: make(chan struct{}, 1)}
	// Discovery stays quiet for the length of the measurement.
	n, err := NewNode(WithDatagram(sink), WithAnnouncePeriod(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()

	f := &protocol.Frame{
		Type:     protocol.MTEvent,
		Priority: qos.PriorityCritical,
		Channel:  "alloc.gate/alarm",
		Payload:  make([]byte, 48),
	}
	done := func(error) {}
	send := func() {
		f.Seq, f.Flags = 0, 0
		n.SendReliable("peer", f, qos.ReliableARQ, done)
		<-sink.sent
		n.arq.Ack("peer", f.Seq)
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("reliable unicast transmit: %v allocs/op, want 0", allocs)
	}
}
