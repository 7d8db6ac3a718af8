package clock

import (
	"sync"
	"time"
)

// Trigger is a coalescing wake-up for single-consumer work loops of the
// shape `for { drain work; wait for more or a deadline }` — the simulated
// bus's delivery loop, egress lane drains, the discovery offer flush. Signal
// from any goroutine wakes the parked waiter (or is remembered if none
// is parked); Wait parks until a signal, an optional deadline, or stop.
//
// Under a Virtual clock the wake-up is accounted inside the clock lock,
// so virtual time cannot advance past a loop that has just been
// signalled — the property that keeps event delivery time-accurate.
type Trigger interface {
	// Signal wakes the parked waiter, or marks a pending wake-up.
	Signal()
	// Wait parks until Signal, the deadline d (d < 0 means no deadline),
	// or stop. It returns false only when stop closed; deadline expiry
	// and signals both return true (the loop re-checks its work either
	// way).
	Wait(d time.Duration, stop <-chan struct{}) bool
}

// NewTrigger builds a trigger bound to c.
func NewTrigger(c Clock) Trigger {
	if v, ok := c.(*Virtual); ok {
		return &virtualTrigger{v: v}
	}
	return &realTrigger{ch: make(chan struct{}, 1)}
}

// realTrigger is a capacity-1 channel: a buffered token is exactly the
// "pending wake-up" state, and reusing one channel for the life of the
// trigger keeps the park/unpark cycle allocation-free (the egress drainers
// park once per drained burst — with a per-Wait channel that alloc shows
// up in the wire path's per-frame cost). The deadline timer is reused the
// same way: made by the first Wait that needs one, re-armed by later ones.
// Wait is single-consumer, so tm needs no lock.
type realTrigger struct {
	ch chan struct{}
	tm *time.Timer
}

func (t *realTrigger) Signal() {
	select {
	case t.ch <- struct{}{}:
	default: // a wake-up is already pending; coalesce
	}
}

func (t *realTrigger) Wait(d time.Duration, stop <-chan struct{}) bool {
	var tc <-chan time.Time
	if d >= 0 {
		if t.tm == nil {
			t.tm = time.NewTimer(d)
		} else {
			t.tm.Reset(d)
		}
		tc = t.tm.C
	}
	woken, ticked := true, false
	select {
	case <-t.ch:
	case <-tc:
		ticked = true
	case <-stop:
		woken = false
	}
	// Leave the timer stopped and its channel empty, or the next Wait would
	// return at once on this one's tick. Stop reports false for a timer that
	// fired; its tick was not received above, so it is buffered or about to
	// be, and the receive cannot hang.
	if tc != nil && !ticked && !t.tm.Stop() {
		<-tc
	}
	return woken
}

type virtualTrigger struct {
	v       *Virtual
	pending bool     // guarded by v.mu
	waiter  *vparker // guarded by v.mu
}

type vparker struct {
	ch    chan struct{}
	ev    *event
	woken bool
}

func (t *virtualTrigger) Signal() {
	v := t.v
	v.mu.Lock()
	if w := t.waiter; w != nil {
		t.waiter = nil
		w.woken = true
		if w.ev != nil {
			v.removeLocked(w.ev)
			w.ev = nil
		}
		v.blocked--
		close(w.ch)
	} else {
		t.pending = true
	}
	v.mu.Unlock()
}

func (t *virtualTrigger) Wait(d time.Duration, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	v := t.v
	v.mu.Lock()
	if t.pending {
		t.pending = false
		v.mu.Unlock()
		return true
	}
	w := &vparker{ch: make(chan struct{})}
	t.waiter = w
	if d >= 0 {
		w.ev = v.scheduleLocked(d, func() {
			if t.waiter == w {
				t.waiter = nil
			}
			w.ev = nil
			w.woken = true
			v.blocked--
			close(w.ch)
		})
	}
	v.parkLocked()
	v.mu.Unlock()
	select {
	case <-w.ch:
		return true
	case <-stop:
		v.mu.Lock()
		if !w.woken {
			if t.waiter == w {
				t.waiter = nil
			}
			if w.ev != nil {
				v.removeLocked(w.ev)
				w.ev = nil
			}
			v.blocked--
		}
		v.mu.Unlock()
		return false
	}
}

// Cond is sync.Cond behind the Clock: workers idling in a scheduler pool
// park on it, and under a Virtual clock a Signal releases the woken
// waiter's parked count inside the clock lock — virtual time cannot
// advance past a just-dispatched job. FIFO wake order.
//
// A waiter parks on a capacity-1 channel and is woken by a token, so the
// channel survives the park: it goes back on a free list and the pool's
// park/unpark cycle allocates nothing.
type Cond struct {
	// L is held by callers of Wait, as with sync.Cond.
	L sync.Locker

	v       *Virtual   // nil on a real clock
	mu      sync.Mutex // guards waiters on a real clock (v.mu otherwise), idle on both
	waiters []chan struct{}
	idle    []chan struct{} // channels of waiters that have been woken
}

// NewCond builds a condition variable bound to c with locker l.
func NewCond(c Clock, l sync.Locker) *Cond {
	v, _ := c.(*Virtual)
	return &Cond{L: l, v: v}
}

// Wait atomically releases L and parks until Signal/Broadcast, then
// re-acquires L. As with sync.Cond, callers re-check their predicate in
// a loop.
func (c *Cond) Wait() {
	var ch chan struct{}
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		ch, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		ch = make(chan struct{}, 1)
	}
	if c.v != nil {
		c.mu.Unlock()
		c.v.mu.Lock()
		c.waiters = append(c.waiters, ch)
		c.v.parkLocked()
		c.v.mu.Unlock()
	} else {
		c.waiters = append(c.waiters, ch)
		c.mu.Unlock()
	}
	c.L.Unlock()
	<-ch
	c.mu.Lock()
	c.idle = append(c.idle, ch)
	c.mu.Unlock()
	c.L.Lock()
}

// Signal wakes the longest-parked waiter, if any.
func (c *Cond) Signal() { c.wake(1) }

// Broadcast wakes every parked waiter.
func (c *Cond) Broadcast() { c.wake(-1) }

// wake hands up to max waiters (all of them when max < 0) their token,
// longest-parked first, keeping the queue's backing array.
func (c *Cond) wake(max int) {
	mu := &c.mu
	if c.v != nil {
		mu = &c.v.mu
	}
	mu.Lock()
	defer mu.Unlock()
	n := len(c.waiters)
	if max >= 0 && n > max {
		n = max
	}
	for _, ch := range c.waiters[:n] {
		if c.v != nil {
			c.v.blocked--
		}
		ch <- struct{}{}
	}
	rest := copy(c.waiters, c.waiters[n:])
	clear(c.waiters[rest:])
	c.waiters = c.waiters[:rest]
}

// WaitGroup is sync.WaitGroup behind the Clock, built on Cond: under a
// Virtual clock Wait parks on the clock, and the Done that brings the
// counter to zero releases the waiters' parked count inside the clock lock,
// so a waiter wakes at the instant of that Done.
type WaitGroup struct {
	mu   sync.Mutex
	n    int
	zero *Cond
}

// NewWaitGroup builds a wait group bound to c.
func NewWaitGroup(c Clock) *WaitGroup {
	wg := &WaitGroup{}
	wg.zero = NewCond(c, &wg.mu)
	return wg
}

// Add adds delta to the counter, waking every waiter when it reaches zero.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	wg.n += delta
	switch {
	case wg.n < 0:
		panic("clock: negative WaitGroup counter")
	case wg.n == 0:
		wg.zero.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks until the counter is zero.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	for wg.n > 0 {
		wg.zero.Wait()
	}
	wg.mu.Unlock()
}
