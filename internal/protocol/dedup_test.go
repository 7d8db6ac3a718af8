package protocol

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"uavmw/internal/transport"
)

// refDedup is the reference model of the window's contract: one sender's
// last window seqs in a ring, with a map of the ring's contents.
type refDedup struct {
	ring []uint64
	set  map[uint64]struct{}
	next int
	full bool
}

func newRefDedup(window int) *refDedup {
	return &refDedup{ring: make([]uint64, window), set: make(map[uint64]struct{}, window)}
}

func (r *refDedup) seen(seq uint64) bool {
	if _, dup := r.set[seq]; dup {
		return true
	}
	if r.full {
		delete(r.set, r.ring[r.next])
	}
	r.ring[r.next] = seq
	r.set[seq] = struct{}{}
	if r.next++; r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	return false
}

// TestDedupMatchesReference drives the window and the reference model with
// the same streams — mostly ascending seqs with reorders, repeats of recent
// and of long-gone seqs, and random jumps — over several wraps of each
// window, and requires the same answer to every Seen.
func TestDedupMatchesReference(t *testing.T) {
	for _, window := range []int{4, 16, 100, 4096} {
		t.Run(fmt.Sprint(window), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(window)))
			d := NewDedup(window)
			refs := map[transport.NodeID]*refDedup{}
			senders := []transport.NodeID{"a", "b", "c"}
			next := map[transport.NodeID]uint64{}
			ops := 20 * window
			if ops < 200_000 {
				ops = 200_000
			}
			for op := 0; op < ops; op++ {
				from := senders[rng.Intn(len(senders))]
				var seq uint64
				switch r := rng.Intn(100); {
				case r < 60: // the next seq
					next[from]++
					seq = next[from]
				case r < 75: // a reorder or repeat inside the window
					seq = next[from] - uint64(rng.Intn(window))
				case r < 85: // a repeat from just past the window's edge
					seq = next[from] - uint64(window) + uint64(rng.Intn(3)) - 1
				case r < 95: // a jump ahead
					next[from] += uint64(rng.Intn(3 * window))
					seq = next[from]
				default: // any seq at all
					seq = rng.Uint64() % (4 * uint64(window))
				}
				ref := refs[from]
				if ref == nil {
					ref = newRefDedup(window)
					refs[from] = ref
				}
				if got, want := d.Seen(from, seq), ref.seen(seq); got != want {
					t.Fatalf("op %d: Seen(%s, %d) = %v, reference says %v", op, from, seq, got, want)
				}
				if op%50_000 == 49_999 {
					// A restarted sender starts over on both sides.
					delete(d.senders, from)
					delete(refs, from)
				}
			}
		})
	}
}

// TestDedupClampsHugeWindow pins the clamp: a window beyond what an index
// slot addresses behaves as the largest one that fits.
func TestDedupClampsHugeWindow(t *testing.T) {
	d := NewDedup(1 << 20)
	for i := uint64(0); i <= maxDedupWindow; i++ {
		if d.Seen("s", i) {
			t.Fatalf("seq %d falsely duplicate", i)
		}
	}
	if !d.Seen("s", 1) {
		t.Error("seq 1 forgotten inside the clamped window")
	}
	if d.Seen("s", 0) {
		t.Error("seq 0 remembered past the clamped window")
	}
}

// TestDedupFootprint pins what a sender's window holds: a quiet sender
// costs what its few seqs need, and a full default window stays under
// 64 KB.
func TestDedupFootprint(t *testing.T) {
	perSender := func(senders, seqs int) float64 {
		d := NewDedup(0)
		ids := make([]transport.NodeID, senders)
		for i := range ids {
			ids[i] = transport.NodeID(fmt.Sprintf("sender-%04d", i))
		}
		before := heapInUse()
		for _, id := range ids {
			for s := 0; s < seqs; s++ {
				d.Seen(id, uint64(s))
			}
		}
		after := heapInUse()
		runtime.KeepAlive(d)
		return float64(after-before) / float64(senders)
	}
	quiet, full := perSender(1024, 16), perSender(64, DefaultDedupWindow+100)
	t.Logf("per sender: %.0f B with 16 seqs, %.0f B with a full window", quiet, full)
	if got := quiet; got > 1024 {
		t.Errorf("a sender with 16 recorded seqs holds %.0f B, want <= 1 KB", got)
	}
	if got := full; got > 64*1024 {
		t.Errorf("a full %d-seq window holds %.0f B, want <= 64 KB", DefaultDedupWindow, got)
	}
}

// heapInUse reads the live heap after a collection.
func heapInUse() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
