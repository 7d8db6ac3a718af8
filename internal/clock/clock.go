// Package clock is the time plane: every layer that paces, times out,
// sweeps or measures does so through an injected Clock rather than the
// time package, so a whole node graph can run against either wall time
// (Real) or a discrete-event simulated time source (Virtual).
//
// Virtual is the payoff: it advances time only when every goroutine
// registered with it is parked on the clock, so a multi-second mission
// executes in milliseconds of wall time with identical timing semantics —
// the design of time-accurate protocol virtualization applied to the
// middleware's own stack. Determinism follows from the same property:
// same seed, same event order, same wire stats.
//
// Rules for code running under a Virtual clock:
//
//   - Register: start every goroutine that touches the clock with Go (or
//     Virtual.Go), or run it inside Virtual.Run; AfterFunc callbacks are
//     registered for you. Time never advances while a registered goroutine
//     is runnable, and a park by an unregistered goroutine panics.
//   - Park only on clock primitives — Sleep, SleepStop, Trigger.Wait,
//     Cond.Wait, WaitGroup.Wait, Ticker.Wait — whose wake-ups release the
//     parked count at fire time, before the sleeper is runnable. A
//     registered goroutine blocked on anything else (a plain channel, a
//     sync.WaitGroup) still counts as runnable, so time stands still until
//     it returns.
//
// Timer/Ticker channels (C) keep stdlib semantics (capacity-1,
// non-blocking send) for unregistered consumers; registered goroutines
// should prefer the managed waits above.
package clock

import "time"

// Clock is the injected time source.
type Clock interface {
	// Now is the current instant on this clock.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep pauses the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock time after d.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that delivers on C after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a ticker with period d (drift-free cadence).
	NewTicker(d time.Duration) Ticker
	// AfterFunc runs f on its own goroutine after d.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer mirrors time.Timer behind the Clock.
type Timer interface {
	// C delivers the fire instant (nil for AfterFunc timers).
	C() <-chan time.Time
	// Stop cancels the timer; false if it already fired or was stopped.
	Stop() bool
	// Reset re-arms the timer for d; reports whether it was active.
	Reset(d time.Duration) bool
}

// Ticker mirrors time.Ticker behind the Clock, plus a managed Wait for
// goroutines registered with a Virtual clock.
type Ticker interface {
	// C delivers ticks (capacity 1; ticks coalesce under a slow reader).
	C() <-chan time.Time
	// Stop cancels the ticker.
	Stop()
	// Wait parks until the next tick (true) or stop closes (false). This
	// is the loop-safe receive: under Virtual the wake-up is accounted at
	// fire time, so time cannot advance past the woken loop.
	Wait(stop <-chan struct{}) bool
}

// Go spawns fn registered with c when c is Virtual, as a plain goroutine
// otherwise. Every goroutine in a clock-injected component must be spawned
// this way: virtual time advances while an unregistered goroutine runs, and
// its parks throw off the clock's count (Virtual panics where it can tell).
func Go(c Clock, fn func()) {
	if v, ok := c.(*Virtual); ok {
		v.Go(fn)
		return
	}
	go fn()
}

// SleepStop sleeps d or until stop closes; false means stopped. It is
// the clock-safe form of the ubiquitous timer/stop select loop.
func SleepStop(c Clock, d time.Duration, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	if v, ok := c.(*Virtual); ok {
		return v.sleepStop(d, stop)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// Or returns c, or Real when c is nil — the idiom for optional clock
// configuration fields.
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}
