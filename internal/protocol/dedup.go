package protocol

import (
	"math/bits"
	"sync"

	"uavmw/internal/transport"
)

// The dedup window suppresses duplicate messages on the receiving side of
// the ARQ scheme: when an ACK is lost the sender retransmits, and the
// receiver must acknowledge again but deliver only once. Each Peer keeps
// one window of the seqs received from its node.
//
// A seq is a duplicate exactly when it is among the last window seqs
// recorded from that sender. The window must exceed the maximum number of
// messages a sender can have in flight, which the ARQ retry budget bounds.
// A sender's window holds what it has recorded, not what it may: its ring
// of seqs and the index over them start at minDedupRing entries and double
// up to the window, so a quiet peer costs a few hundred bytes and a full
// DefaultDedupWindow 48 KB.
//
// Dedup is a bare map of windows by sender, which the container does not
// use: bench times one window lookup through it (protocol.dedup_seen_ns).
type Dedup struct {
	window int

	mu      sync.Mutex
	senders map[transport.NodeID]*dedupWindow
}

// dedupWindow is one sender's window: a ring of the recorded seqs in
// arrival order, and an open-addressed index over it (linear probing,
// backward-shift deletion) whose slots hold a ring position plus one, zero
// meaning empty. The index has a power-of-two size of at least twice the
// ring, so a probe stays short and always meets an empty slot.
type dedupWindow struct {
	ring  []uint64
	n     int // recorded seqs, up to the window
	next  int // once full, the ring position of the oldest seq
	index []uint16
	shift uint // 64 - log2(len(index))
}

const (
	// DefaultDedupWindow is ample for the default ARQ in-flight bound.
	DefaultDedupWindow = 4096
	// maxDedupWindow is the largest window a uint16 index slot addresses.
	maxDedupWindow = 1<<16 - 1
	// minDedupRing is a new sender's ring size.
	minDedupRing = 16
)

// NewDedup builds a suppressor with the given per-sender window (0 means
// DefaultDedupWindow; a window above 65,535 becomes 65,535).
func NewDedup(window int) *Dedup {
	if window <= 0 {
		window = DefaultDedupWindow
	}
	if window > maxDedupWindow {
		window = maxDedupWindow
	}
	return &Dedup{
		window:  window,
		senders: make(map[transport.NodeID]*dedupWindow),
	}
}

// Seen records (from, seq) and reports whether it was already present.
func (d *Dedup) Seen(from transport.NodeID, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.senders[from]
	if w == nil {
		w = &dedupWindow{}
		d.senders[from] = w
	}
	return w.seen(seq, d.window)
}

// home is seq's preferred index slot (Fibonacci hashing: sequential seqs
// spread over the whole index).
func (w *dedupWindow) home(seq uint64) int {
	return int((seq * 0x9E3779B97F4A7C15) >> w.shift)
}

// seen reports whether seq is in the window and, if not, records it,
// evicting the oldest seq once window seqs are held.
func (w *dedupWindow) seen(seq uint64, window int) bool {
	if w.index == nil {
		w.resize(min(minDedupRing, window))
	}
	mask := len(w.index) - 1
	i := w.home(seq)
	for ; w.index[i] != 0; i = (i + 1) & mask {
		if w.ring[w.index[i]-1] == seq {
			return true
		}
	}
	switch {
	case w.n == window:
		w.evict(w.next)
		w.ring[w.next] = seq
		w.insert(seq, w.next)
		if w.next++; w.next == window {
			w.next = 0
		}
		return false
	case w.n == len(w.ring):
		w.resize(min(2*len(w.ring), window))
		w.insert(seq, w.n)
	default:
		// i is the empty slot the probe ended on.
		w.index[i] = uint16(w.n + 1)
	}
	w.ring[w.n] = seq
	w.n++
	return false
}

// insert indexes ring position pos, which holds (or is about to hold) seq.
func (w *dedupWindow) insert(seq uint64, pos int) {
	mask := len(w.index) - 1
	i := w.home(seq)
	for w.index[i] != 0 {
		i = (i + 1) & mask
	}
	w.index[i] = uint16(pos + 1)
}

// evict removes ring position pos from the index, shifting later entries
// of its probe run back so that no lookup stops short of them.
func (w *dedupWindow) evict(pos int) {
	mask := len(w.index) - 1
	i := w.home(w.ring[pos])
	for int(w.index[i]) != pos+1 {
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		e := w.index[j]
		if e == 0 {
			break
		}
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if k := w.home(w.ring[e-1]); (j-k)&mask >= (j-i)&mask {
			w.index[i] = e
			i = j
		}
	}
	w.index[i] = 0
}

// resize gives the ring room for size seqs and rebuilds the index at the
// smallest power of two of at least twice that. It runs only while the
// ring is still filling, so the recorded seqs are ring[:n] in order.
func (w *dedupWindow) resize(size int) {
	ring := make([]uint64, size)
	copy(ring, w.ring[:w.n])
	w.ring = ring
	b := bits.Len(uint(2*size - 1))
	w.index = make([]uint16, 1<<b)
	w.shift = uint(64 - b)
	for pos, seq := range w.ring[:w.n] {
		w.insert(seq, pos)
	}
}
