package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// TestReliableDoneFiresOnce sends one reliable frame down each path a
// reliable send can end on and counts its completion: exactly one call,
// with the path's outcome. The engines recycle a pooled record from inside
// that completion (rpc attempts, event fan-out slots), so a second call
// would hand a record to two owners.
func TestReliableDoneFiresOnce(t *testing.T) {
	// Exhaustion cases give up after one retransmission.
	fast := WithARQ(protocol.WithMaxRetries(1))
	frame := func(size int) *protocol.Frame {
		// MTFileCancel is dropped at the routing switch, so the loopback
		// case runs no engine.
		return &protocol.Frame{Type: protocol.MTFileCancel, Priority: qos.PriorityNormal,
			Channel: "once", Payload: make([]byte, size)}
	}
	// ackAll acknowledges every reliable datagram pending to peer.
	ackAll := func(n *Node, from uint64) {
		for seq := from; n.arq.Pending() > 0 && seq < from+64; seq++ {
			n.arq.Ack("peer", seq)
		}
	}
	for _, tc := range []struct {
		name    string
		opts    []NodeOption
		send    func(n *Node, done func(error))
		wantErr bool
	}{
		{name: "ack", send: func(n *Node, done func(error)) {
			f := frame(48)
			n.SendReliable("peer", f, qos.ReliableARQ, done)
			n.arq.Ack("peer", f.Seq)
		}},
		{name: "retry exhaustion", opts: []NodeOption{fast}, wantErr: true, send: func(n *Node, done func(error)) {
			n.SendReliable("peer", frame(48), qos.ReliableARQ, done)
		}},
		{name: "first transmission failure", wantErr: true, send: func(n *Node, done func(error)) {
			n.egress.Close()
			n.SendReliable("peer", frame(48), qos.ReliableARQ, done)
		}},
		{name: "closed ARQ", wantErr: true, send: func(n *Node, done func(error)) {
			n.arq.Close()
			n.SendReliable("peer", frame(48), qos.ReliableARQ, done)
		}},
		{name: "duplicate seq", wantErr: true, send: func(n *Node, done func(error)) {
			first := frame(48)
			n.SendReliable("peer", first, qos.ReliableARQ, func(error) {})
			dup := frame(48)
			dup.Seq = first.Seq
			n.SendReliable("peer", dup, qos.ReliableARQ, done)
			n.arq.Ack("peer", first.Seq)
		}},
		{name: "loopback", send: func(n *Node, done func(error)) {
			n.SendReliable(n.ID(), frame(48), qos.ReliableARQ, done)
		}},
		{name: "fragmented, acked", send: func(n *Node, done func(error)) {
			f := frame(3 * protocol.DefaultMTU)
			n.SendReliable("peer", f, qos.ReliableARQ, done)
			ackAll(n, f.Seq+1)
		}},
		{name: "fragmented, every fragment exhausted", opts: []NodeOption{fast}, wantErr: true, send: func(n *Node, done func(error)) {
			n.SendReliable("peer", frame(3*protocol.DefaultMTU), qos.ReliableARQ, done)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]NodeOption{WithDatagram(&wireSink{id: "once-gate"}), WithAnnouncePeriod(time.Hour)}, tc.opts...)
			n, err := NewNode(opts...)
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int32
			first := make(chan error, 1)
			tc.send(n, func(err error) {
				if calls.Add(1) == 1 {
					first <- err
				}
			})
			select {
			case err := <-first:
				if (err != nil) != tc.wantErr {
					t.Errorf("done(%v), want an error: %v", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("done never fired")
			}
			// Let every other outcome of the send land, then close the node,
			// which fails whatever is still pending.
			deadline := time.Now().Add(5 * time.Second)
			for n.arq.Pending() > 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if c := calls.Load(); c != 1 {
				t.Fatalf("done fired %d times, want once", c)
			}
		})
	}
}

// TestOversizeReliableSendFails sends a reliable message larger than a
// peer can reassemble: it fails at once with ErrBadFrame, nothing pending,
// where it would otherwise go out, be acknowledged fragment by fragment and
// be dropped by the receiver.
func TestOversizeReliableSendFails(t *testing.T) {
	n, err := NewNode(WithDatagram(&wireSink{id: "oversize"}), WithAnnouncePeriod(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	result := make(chan error, 1)
	f := &protocol.Frame{Type: protocol.MTEvent, Priority: qos.PriorityNormal, Channel: "oversize", Payload: make([]byte, 2<<20)}
	n.SendReliable("peer", f, qos.ReliableARQ, func(err error) { result <- err })
	select {
	case err := <-result:
		if !errors.Is(err, protocol.ErrBadFrame) {
			t.Errorf("done(%v), want ErrBadFrame", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("done never fired")
	}
	if p := n.arq.Pending(); p != 0 {
		t.Errorf("%d fragments pending, want none", p)
	}
}

// TestOneTimerPerPeer sends 200 reliable messages that nobody acknowledges
// from one node to three peers, on the virtual clock: ARQ arms one timer
// per peer, not one per message, so the wake-ups armed beyond the node's
// idle ones are at most three. Once the peers acknowledge everything and
// every message completes, none are left.
func TestOneTimerPerPeer(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		bus := transport.NewBus()
		peers := []transport.NodeID{"p1", "p2", "p3"}
		var mu sync.Mutex
		received := map[transport.NodeID][]uint64{}
		eps := map[transport.NodeID]transport.Transport{}
		for _, id := range peers {
			ep, err := bus.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			ep.SetHandler(func(pkt transport.Packet) {
				for _, f := range unbatch(pkt.Payload) {
					if f.Flags&protocol.FlagAckRequired != 0 {
						mu.Lock()
						received[id] = append(received[id], f.Seq)
						mu.Unlock()
					}
				}
			})
			eps[id] = ep
		}
		ep, err := bus.Endpoint("node")
		if err != nil {
			t.Fatal(err)
		}
		n := virtualNode(t, v, ep)
		defer func() { _ = n.Close() }()
		v.Sleep(50 * time.Millisecond)
		idle := v.Pending()

		const messages = 200
		var done atomic.Int32
		for i := 0; i < messages; i++ {
			f := &protocol.Frame{Type: protocol.MTEvent, Priority: qos.PriorityNormal, Channel: "timers", Payload: make([]byte, 16)}
			n.SendReliable(peers[i%len(peers)], f, qos.ReliableARQ, func(error) { done.Add(1) })
		}
		if armed := v.Pending() - idle; armed > len(peers) {
			t.Errorf("%d wake-ups armed beyond the node's %d idle ones for %d messages to %d peers, want at most %d",
				armed, idle, messages, len(peers), len(peers))
		}
		// The peers stay silent past a few retransmissions, then acknowledge.
		v.Sleep(100 * time.Millisecond)
		if armed := v.Pending() - idle; armed > len(peers) {
			t.Errorf("%d wake-ups armed beyond the idle ones while retransmitting, want at most %d", armed, len(peers))
		}
		mu.Lock()
		for _, id := range peers {
			seqs := slices.Clone(received[id])
			slices.Sort(seqs)
			slices.Reverse(seqs)
			seqs = slices.Compact(seqs)
			for len(seqs) > 0 {
				var ack protocol.Frame
				seqs = protocol.AppendAck(&ack, nil, seqs, protocol.DefaultMTU)
				raw, err := protocol.AppendFrame(nil, &ack)
				if err != nil {
					t.Fatal(err)
				}
				if err := eps[id].Send("node", raw); err != nil {
					t.Fatal(err)
				}
			}
		}
		mu.Unlock()
		if !virtualWait(v, time.Second, func() bool { return done.Load() == messages }) {
			t.Fatalf("%d of %d messages completed", done.Load(), messages)
		}
		if p := n.arq.Pending(); p != 0 {
			t.Errorf("%d messages pending after every one completed", p)
		}
		if armed := v.Pending() - idle; armed > 0 {
			t.Errorf("%d wake-ups armed beyond the idle ones after every message completed, want none", armed)
		}
	})
}
