package bufpool

import "sync/atomic"

// Shared is a reference-counted handle on a pooled buffer, the primitive
// behind encode-once fan-out-many: one writer encodes into a Get buffer,
// wraps it in a Shared, and hands a Retain()ed reference to every consumer;
// the last Release returns the storage to the pool. Neither Share, Retain
// nor Release allocates in steady state — the handle structs ride their own
// bounded freelist, exactly like the buffers they wrap.
//
// Ownership contract: Retain is only legal while the caller already holds a
// live reference (the count can never be observed at zero and revived), and
// the wrapped bytes are immutable from Share until the final Release.
// Releasing more times than retained corrupts an unrelated frame later;
// the count going negative panics to surface that bug at the offender.
type Shared struct {
	b      []byte
	onLast func()
	refs   atomic.Int32
}

// sharedDepth bounds idle Shared headers kept for reuse; overflow falls to
// the GC like any other pool class.
const sharedDepth = 1024

var sharedFree = make(chan *Shared, sharedDepth)

// Share wraps buf (typically obtained from Get) with a reference count of
// one. The final Release passes buf to Put; callers that want the storage
// to outlive the pool must Copy before the last Release.
func Share(buf []byte) *Shared { return ShareHooked(buf, nil) }

// ShareHooked is Share with a release hook: onLast, when non-nil, runs
// exactly once, on the goroutine of the final Release, after buf is back in
// the pool. It is how a producer learns that the last consumer is done with
// a buffer it handed out. The hook runs wherever that Release happens —
// possibly on the producer's own goroutine, in the middle of a send — so it
// must not block and must not take a lock its producer may hold while
// releasing. Pass a function bound once (a method value kept in a field),
// not a fresh closure per buffer, or the hook allocates.
func ShareHooked(buf []byte, onLast func()) *Shared {
	var s *Shared
	select {
	case s = <-sharedFree:
	default:
		s = &Shared{}
	}
	s.b = buf
	s.onLast = onLast
	s.refs.Store(1)
	return s
}

// Bytes returns the wrapped buffer. Valid only while the caller holds a
// reference; the bytes are immutable until the final Release.
func (s *Shared) Bytes() []byte { return s.b }

// Len reports the wrapped buffer's length.
func (s *Shared) Len() int { return len(s.b) }

// Retain adds a reference and returns s for call-site chaining
// (enqueue(s.Retain())). Caller must already hold a live reference.
func (s *Shared) Retain() *Shared {
	s.refs.Add(1)
	return s
}

// Release drops one reference. The last release recycles both the buffer
// (to the byte pool) and the handle (to the header freelist), then runs the
// release hook, if any.
func (s *Shared) Release() {
	n := s.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("bufpool: Shared released more times than retained")
	}
	b, onLast := s.b, s.onLast
	s.b, s.onLast = nil, nil
	Put(b)
	select {
	case sharedFree <- s:
	default: // freelist full: the GC takes the header
	}
	if onLast != nil {
		onLast()
	}
}

// Refs reports the current reference count (diagnostics and tests).
func (s *Shared) Refs() int32 { return s.refs.Load() }
