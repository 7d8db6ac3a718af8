package clock

import (
	"container/heap"
	"errors"
	"sync"
	"time"
)

// Virtual is the discrete-event clock. Time is a number guarded by a
// mutex; pending wake-ups live in an event heap ordered by (instant,
// insertion seq). The clock counts the goroutines registered with it
// (workers: started by Go, Run or AfterFunc) and how many of those are
// parked on it (blocked); whenever every registered goroutine is parked,
// the goroutine that parked last pops the earliest event, jumps time to
// it, and fires it — waking exactly one sleeper, whose parked count is
// released at fire time so time can never advance past a runnable
// goroutine.
//
// Only registered goroutines may park: a park that would leave more
// goroutines parked than registered panics with ErrUnregisteredPark.
//
// Event fire functions run with the clock lock held; they only mutate
// clock-guarded state, close channels, or spawn goroutines — never call
// back into user code synchronously or take other locks.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64
	events  eventHeap
	workers int // goroutines started by Go, Run or AfterFunc and not yet returned
	blocked int // of those, how many are parked on the clock
}

// DefaultEpoch is where a Virtual clock starts unless NewVirtualAt is
// used: an arbitrary fixed instant, so two runs of the same scenario see
// identical timestamps.
var DefaultEpoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a virtual clock at DefaultEpoch.
func NewVirtual() *Virtual { return NewVirtualAt(DefaultEpoch) }

// NewVirtualAt returns a virtual clock whose time starts at start.
func NewVirtualAt(start time.Time) *Virtual {
	return &Virtual{now: start}
}

var _ Clock = (*Virtual)(nil)

type event struct {
	at   time.Time
	seq  uint64
	fire func() // runs with v.mu held
	idx  int    // heap index; -1 once popped or removed
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// scheduleLocked arms fire at now+d. Caller holds v.mu.
func (v *Virtual) scheduleLocked(d time.Duration, fire func()) *event {
	if d < 0 {
		d = 0
	}
	return v.scheduleAtLocked(v.now.Add(d), fire)
}

// scheduleAtLocked arms fire at an absolute instant. Caller holds v.mu.
func (v *Virtual) scheduleAtLocked(at time.Time, fire func()) *event {
	v.seq++
	ev := &event{at: at, seq: v.seq, fire: fire}
	heap.Push(&v.events, ev)
	return ev
}

// removeLocked cancels a pending event. Caller holds v.mu.
func (v *Virtual) removeLocked(ev *event) {
	if ev.idx >= 0 {
		heap.Remove(&v.events, ev.idx)
	}
}

// maybeAdvanceLocked fires due events while every registered goroutine
// is parked. Each fire releases at most one sleeper (blocked--), which
// breaks the loop condition until that sleeper parks again — the
// serialization that makes same-instant events deterministic. Caller
// holds v.mu.
func (v *Virtual) maybeAdvanceLocked() {
	for v.workers > 0 && v.blocked >= v.workers && len(v.events) > 0 {
		ev := heap.Pop(&v.events).(*event)
		if ev.at.After(v.now) {
			v.now = ev.at
		}
		ev.fire()
	}
}

// ErrUnregisteredPark is the panic value of a park by a goroutine the clock
// does not know: one not started by Go, Run or AfterFunc.
var ErrUnregisteredPark = errors.New("clock: goroutine parked on a Virtual clock without being registered; start it with Go or Run")

// parkLocked accounts the caller parking on the clock and advances time
// if that leaves every registered goroutine parked. Caller holds v.mu.
func (v *Virtual) parkLocked() {
	if v.blocked >= v.workers {
		v.mu.Unlock()
		panic(ErrUnregisteredPark)
	}
	v.blocked++
	v.maybeAdvanceLocked()
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Pending reports how many wake-ups are armed (for tests/debugging).
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.events)
}

// Go spawns fn as a goroutine registered with the clock: virtual time
// will not advance while fn is runnable.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.workers++ // counted before spawn so time cannot advance first
	v.mu.Unlock()
	go func() {
		defer v.unregister()
		fn()
	}()
}

// Run registers the calling goroutine for the duration of fn — the
// harness entry point: v.Run(func(){ ...build nodes, sleep, assert... }).
// A goroutine already registered must not call it.
func (v *Virtual) Run(fn func()) {
	v.mu.Lock()
	v.workers++
	v.mu.Unlock()
	defer v.unregister()
	fn()
}

func (v *Virtual) unregister() {
	v.mu.Lock()
	v.workers--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
}

// Sleep implements Clock.
func (v *Virtual) Sleep(d time.Duration) {
	ch := make(chan struct{})
	v.mu.Lock()
	v.scheduleLocked(d, func() {
		v.blocked--
		close(ch)
	})
	v.parkLocked()
	v.mu.Unlock()
	<-ch
}

// sleepStop is SleepStop's virtual arm.
func (v *Virtual) sleepStop(d time.Duration, stop <-chan struct{}) bool {
	ch := make(chan struct{})
	fired := false
	v.mu.Lock()
	ev := v.scheduleLocked(d, func() {
		fired = true
		v.blocked--
		close(ch)
	})
	v.parkLocked()
	v.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-stop:
		v.mu.Lock()
		if !fired {
			v.removeLocked(ev)
			v.blocked--
		}
		v.mu.Unlock()
		return false
	}
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	return v.NewTimer(d).C()
}

// NewTimer implements Clock: stdlib semantics (capacity-1 channel,
// non-blocking send at fire).
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &virtualTimer{v: v, ch: make(chan time.Time, 1)}
	v.mu.Lock()
	t.ev = v.scheduleLocked(d, t.fireChan)
	v.mu.Unlock()
	return t
}

// AfterFunc implements Clock: f runs on its own registered goroutine.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	t := &virtualTimer{v: v, f: f}
	v.mu.Lock()
	t.ev = v.scheduleLocked(d, t.fireFunc)
	v.mu.Unlock()
	return t
}

type virtualTimer struct {
	v  *Virtual
	ch chan time.Time // channel timers
	f  func()         // AfterFunc timers
	ev *event         // pending event; nil once fired/stopped (guarded by v.mu)
}

func (t *virtualTimer) C() <-chan time.Time { return t.ch }

// fireChan runs under v.mu.
func (t *virtualTimer) fireChan() {
	t.ev = nil
	select {
	case t.ch <- t.v.now:
	default:
	}
}

// fireFunc runs under v.mu: the callback gets its own registered
// goroutine, which halts further advancing until it finishes or parks.
func (t *virtualTimer) fireFunc() {
	t.ev = nil
	t.v.workers++
	go func() {
		defer t.v.unregister()
		t.f()
	}()
}

func (t *virtualTimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	if t.ev == nil {
		return false
	}
	t.v.removeLocked(t.ev)
	t.ev = nil
	return true
}

func (t *virtualTimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	active := t.ev != nil
	if active {
		t.v.removeLocked(t.ev)
	}
	fire := t.fireChan
	if t.f != nil {
		fire = t.fireFunc
	}
	t.ev = t.v.scheduleLocked(d, fire)
	return active
}

// NewTicker implements Clock. Cadence is drift-free: the k-th tick fires
// at exactly start + k*d regardless of how late each tick is consumed.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &virtualTicker{v: v, period: d, ch: make(chan time.Time, 1)}
	v.mu.Lock()
	t.next = v.now.Add(d)
	t.ev = v.scheduleAtLocked(t.next, t.fire)
	v.mu.Unlock()
	return t
}

type virtualTicker struct {
	v       *Virtual
	period  time.Duration
	ch      chan time.Time
	next    time.Time
	ev      *event
	waiter  chan struct{} // managed Wait parker
	pending bool          // a tick fired with no waiter parked
	stopped bool
}

func (t *virtualTicker) C() <-chan time.Time { return t.ch }

// fire runs under v.mu.
func (t *virtualTicker) fire() {
	t.next = t.next.Add(t.period)
	t.ev = t.v.scheduleAtLocked(t.next, t.fire)
	if w := t.waiter; w != nil {
		t.waiter = nil
		t.v.blocked--
		close(w)
		return
	}
	t.pending = true
	select {
	case t.ch <- t.v.now:
	default:
	}
}

func (t *virtualTicker) Stop() {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	t.stopped = true
	if t.ev != nil {
		t.v.removeLocked(t.ev)
		t.ev = nil
	}
}

func (t *virtualTicker) Wait(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	v := t.v
	v.mu.Lock()
	if t.stopped {
		v.mu.Unlock()
		return false
	}
	if t.pending {
		t.pending = false
		select {
		case <-t.ch:
		default:
		}
		v.mu.Unlock()
		return true
	}
	w := make(chan struct{})
	t.waiter = w
	v.parkLocked()
	v.mu.Unlock()
	select {
	case <-w:
		return true
	case <-stop:
		v.mu.Lock()
		if t.waiter == w {
			t.waiter = nil
			v.blocked--
		}
		v.mu.Unlock()
		return false
	}
}
