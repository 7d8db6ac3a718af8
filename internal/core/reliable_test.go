package core

import (
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/protocol"
	"uavmw/internal/qos"
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
