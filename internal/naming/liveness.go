package naming

import (
	"slices"
	"sync"
	"time"

	"uavmw/internal/transport"
)

// Liveness is the container's failure detector: peers are alive while
// heartbeats keep arriving, and declared failed after a silence deadline.
// §3 makes the container responsible for "watching for [services'] correct
// operation and notifying the rest of containers about changes".
type Liveness struct {
	deadline time.Duration

	mu        sync.Mutex
	lastHeard map[transport.NodeID]time.Time
}

// DefaultFailureDeadline declares a peer dead after this much heartbeat
// silence. It must exceed several heartbeat periods.
const DefaultFailureDeadline = 2 * time.Second

// NewLiveness builds a detector (0 means DefaultFailureDeadline).
func NewLiveness(deadline time.Duration) *Liveness {
	if deadline <= 0 {
		deadline = DefaultFailureDeadline
	}
	return &Liveness{
		deadline:  deadline,
		lastHeard: make(map[transport.NodeID]time.Time),
	}
}

// Touch records that node was heard from at instant now.
func (l *Liveness) Touch(node transport.NodeID, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastHeard[node] = now
}

// Forget drops a node (graceful bye), so it is not later reported failed.
func (l *Liveness) Forget(node transport.NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.lastHeard, node)
}

// Sweep returns nodes silent past the deadline and forgets them, so each
// failure is reported exactly once.
func (l *Liveness) Sweep(now time.Time) []transport.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	var failed []transport.NodeID
	for node, heard := range l.lastHeard {
		if now.Sub(heard) > l.deadline {
			failed = append(failed, node)
			delete(l.lastHeard, node)
		}
	}
	slices.Sort(failed)
	return failed
}

// Alive reports whether node has been heard from within the deadline.
func (l *Liveness) Alive(node transport.NodeID, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	heard, known := l.lastHeard[node]
	return known && now.Sub(heard) <= l.deadline
}

// Peers lists currently tracked nodes, sorted.
func (l *Liveness) Peers() []transport.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]transport.NodeID, 0, len(l.lastHeard))
	for node := range l.lastHeard {
		out = append(out, node)
	}
	slices.Sort(out)
	return out
}

// Each calls fn for every tracked node, in no particular order, holding the
// detector's lock: fn must not call back into l. Unlike Peers it builds no
// list, so a periodic walk over the peers allocates nothing.
func (l *Liveness) Each(fn func(transport.NodeID)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for node := range l.lastHeard {
		fn(node)
	}
}
