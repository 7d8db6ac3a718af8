package gateway

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/core"
	"uavmw/internal/transport"
)

// countConn acknowledges whole frames and counts them; Write never
// blocks and never allocates.
type countConn struct {
	n *atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.n.Add(1)
	return len(p), nil
}
func (c *countConn) Close() error                     { return nil }
func (c *countConn) SetWriteDeadline(time.Time) error { return nil }

// TestFanOutAllocationFree pins the tentpole's per-client cost contract:
// delivering one already-encoded sample to every subscribed client —
// enqueue, ready-list, writer wake-up, socket write, refcount release —
// allocates nothing. The per-occurrence encode (JSON marshal) is outside
// the measured op because it is paid once per sample, not per client.
func TestFanOutAllocationFree(t *testing.T) {
	sim := transport.NewSimBus(transport.SimConfig{Seed: 7, Latency: time.Millisecond})
	t.Cleanup(sim.Close)
	ep, err := sim.Endpoint(transport.NodeID("gs"))
	if err != nil {
		t.Fatal(err)
	}
	// A quiet node: announcements parked for an hour so no background
	// discovery traffic allocates during the measurement window.
	node, err := core.NewNode(core.WithDatagram(ep), core.WithAnnouncePeriod(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	g := New(node, Options{Shards: 4, QueueLen: 8})
	t.Cleanup(g.Close)

	// Link clients straight into the shard subscription index: the gate
	// measures the fan-out machinery, not the fabric subscription (which
	// is exercised end-to-end by the other tests and E16).
	key := topicKey{stream: StreamVariable, name: "alloc.var"}
	var delivered atomic.Int64
	const clients = 64
	for i := 0; i < clients; i++ {
		c, err := g.Attach(&countConn{n: &delivered})
		if err != nil {
			t.Fatal(err)
		}
		sh := c.sh
		sh.mu.Lock()
		c.mu.Lock()
		c.subs[key] = struct{}{}
		c.mu.Unlock()
		sh.attachLocked(key, c)
		sh.mu.Unlock()
	}

	// One pre-encoded wire frame, copied into a fresh pooled buffer per
	// op exactly as the per-occurrence encode would produce it.
	wire := []byte(`{"stream":"variable","name":"alloc.var","seq":1,"ts_unix_ns":0,"value":42}` + "\n")

	op := func() {
		want := delivered.Load() + clients
		buf := bufpool.Get(len(wire))
		buf = append(buf, wire...)
		g.fanOut(key, bufpool.Share(buf), false)
		for delivered.Load() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 16; i++ {
		op() // warm pools, ready lists, freelists
	}
	runtime.GC()
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("fan-out to %d clients allocates %.2f/sample (%.4f per client), want 0",
			clients, allocs, allocs/clients)
	}
}
