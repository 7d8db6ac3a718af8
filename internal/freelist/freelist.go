// Package freelist recycles the records engines hand across goroutines
// once per message — a call in progress, a handler queued on the
// scheduler, a reliable send's completion — so steady traffic allocates
// none of them.
//
// A List belongs to one engine, unlike a process-wide sync.Pool. Records
// hold engine-bound state (a trigger on the engine's clock, a method value
// bound to the record), and a record that migrated to another engine would
// carry a trigger bound to that engine's clock, possibly a finished virtual
// one.
package freelist

import "sync"

// List is a bounded stack of recycled records.
type List[T any] struct {
	mu    sync.Mutex
	free  []*T
	limit int
	fresh func() *T
}

// New returns a list that keeps at most limit idle records and makes a new
// one with fresh when it has none.
func New[T any](limit int, fresh func() *T) *List[T] {
	return &List[T]{limit: limit, fresh: fresh}
}

// Get takes an idle record, or makes one.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		r := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return r
	}
	l.mu.Unlock()
	return l.fresh()
}

// Put gives r back; a list already at its limit leaves r to the GC. The
// caller has cleared what r must not keep alive and does not touch r again.
func (l *List[T]) Put(r *T) {
	l.mu.Lock()
	if len(l.free) < l.limit {
		l.free = append(l.free, r)
	}
	l.mu.Unlock()
}

// Len reports how many idle records the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
