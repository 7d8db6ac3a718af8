// Package bufpool provides size-classed reusable byte buffers for the wire
// path. Every hot-path encode (frame headers, batch datagrams, transport
// envelopes, receive rings) draws its scratch storage from here instead of
// allocating, so steady-state traffic produces no per-frame garbage.
//
// Ownership contract: a buffer has exactly one owner at every instant. Get
// makes the caller the owner; handing the buffer on (to the egress plane, to
// a queue) hands the ownership on with it; whoever owns it last calls Put,
// after which nobody may touch it — the same storage will back an unrelated
// frame. An owner that needs the bytes in two places makes a second pooled
// buffer and copies: ARQ keeps its own pooled copy of every unacknowledged
// datagram, reads it only under the engine lock, and Puts it when the
// message is acknowledged, times out, fails its first transmission or the
// engine closes, while each transmission gives the egress plane a further
// copy that the plane Puts once it is on the wire. Bytes that must outlive
// every such window with no one left to release them (reassembly state,
// values handed to application handlers) go into a GC-owned Copy instead,
// which is never returned to the pool. Releasing a buffer twice, or
// releasing it while an alias is still live, corrupts frames in flight —
// when ownership is unclear, leak the buffer to the GC (correct, merely
// slower) rather than Put it.
//
// The freelists are bounded channels, not sync.Pools: a channel hand-off
// recycles the slice header in place, so neither Get nor Put allocates (a
// sync.Pool Put of a []byte escapes a fresh header to the heap on every
// release, which would put one allocation back on a path this package
// exists to clear). The cost is that idle buffers are not reclaimed under
// memory pressure; the per-class depths below bound that retention to a few
// megabytes.
package bufpool

// classSizes are the pooled capacity classes, chosen around the wire path's
// natural sizes: small control frames, mid-size frames, the datagrams of
// the default 1400-byte MTU (coalesced batches, file chunks, transport
// envelopes), frames about to be fragmented, and full 64KB datagrams.
var classSizes = [...]int{256, 1 << 10, 2 << 10, 4 << 10, 16 << 10, 64 << 10}

// classDepths bound how many idle buffers each class retains; overflow on
// release is dropped to the GC. Depths shrink as sizes grow, so worst-case
// idle retention is 3.9 MB: 128 KB, 256 KB, 512 KB, 512 KB, 512 KB and
// 2 MB from the smallest class up.
var classDepths = [...]int{512, 256, 256, 128, 32, 32}

var classes [len(classSizes)]chan []byte

func init() {
	for i := range classes {
		classes[i] = make(chan []byte, classDepths[i])
	}
}

// Get returns a zero-length buffer with capacity at least n. The caller
// owns it until Put (or forever, if it is handed to the GC). Requests
// beyond the largest class are served by a plain allocation and will be
// dropped on Put.
func Get(n int) []byte {
	for i, size := range classSizes {
		if n > size {
			continue
		}
		select {
		case b := <-classes[i]:
			return b[:0]
		default:
			return make([]byte, 0, size)
		}
	}
	return make([]byte, 0, n)
}

// Put recycles a buffer obtained from Get (possibly grown by appends). The
// buffer lands in the largest class its capacity covers, so a grown buffer
// still honors Get's capacity guarantee; buffers smaller than every class,
// or arriving when the class is full, fall to the GC. Put accepts any
// buffer — recycling a caller-allocated slice is safe as long as no alias
// outlives the call.
func Put(b []byte) {
	c := cap(b)
	for i := len(classSizes) - 1; i >= 0; i-- {
		if c < classSizes[i] {
			continue
		}
		select {
		case classes[i] <- b[:0]:
		default: // class full: let the GC take it
		}
		return
	}
}

// Idle reports how many buffers wait in the class a Get(n) draws from. It
// is what a test balances a path's Gets against its Puts with: one Put too
// many (two owners of one buffer) or too few shows as a drift.
func Idle(n int) int {
	for i, size := range classSizes {
		if n <= size {
			return len(classes[i])
		}
	}
	return 0
}

// Clone returns a pooled copy of b; the caller owns it until Put.
func Clone(b []byte) []byte { return append(Get(len(b)), b...) }

// Copy returns a GC-owned copy of b. This is the blessed primitive for
// retaining wire bytes beyond a handler or ownership window: the copy is
// never pooled, so it can be held indefinitely and aliased freely.
func Copy(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}
