package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"uavmw/internal/transport"
)

// TestIdleNodeFootprint pins what a node costs just by existing: 20 idle
// containers on one in-process bus, brought up with default options, add
// at most 80 KB of live heap each once every one lists its 19 peers.
// Per-shard ingress rings, per-sender dedup windows and the record log's
// history are sized by what a node carries, so an idle one holds little
// of any.
func TestIdleNodeFootprint(t *testing.T) {
	const nodes = 20
	bus := transport.NewBus()
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	ns := make([]*Node, nodes)
	for i := range ns {
		ep, err := bus.Endpoint(transport.NodeID(fmt.Sprintf("idle%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(WithDatagram(ep))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		ns[i] = n
	}
	// Introductions ride the first announce tick, so wait for them rather
	// than for a fixed time: a node that knows no peer holds far less.
	waitUntil(t, 3*time.Second, "every node lists its peers", func() bool {
		for _, n := range ns {
			if len(n.Peers()) != nodes-1 {
				return false
			}
		}
		return true
	})
	perNode := float64(heap()-before) / nodes
	t.Logf("%.1f KB per idle node (%d ingress shards each)", perNode/1024, runtime.GOMAXPROCS(0))
	if perNode > 80*1024 {
		t.Errorf("an idle node holds %.1f KB, want <= 80 KB", perNode/1024)
	}
}
