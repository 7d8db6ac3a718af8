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
//   - Park only on clock primitives — Sleep, Trigger.Wait, Cond.Wait,
//     WaitGroup.Wait, Ticker.Wait — whose wake-ups release the parked count
//     at fire time, before the sleeper is runnable. A registered goroutine
//     blocked on anything else (a plain channel, a sync.WaitGroup) still
//     counts as runnable, so time stands still until it returns.
//   - Stop a loop through the trigger or ticker it parks on (Trigger.Close,
//     Ticker.Stop), never through a channel: the stop is a clock event, so
//     the loop is runnable, and time stands still, from the instant of the
//     stop. A loop woken by a closed channel still counts as parked until
//     it runs, and a closer that then parks on a WaitGroup lets time run
//     through every armed event meanwhile.
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
	// NewTicker returns a ticker with period d (drift-free cadence).
	NewTicker(d time.Duration) Ticker
	// AfterFunc runs f on its own goroutine after d.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is the handle of an AfterFunc callback.
type Timer interface {
	// Stop cancels the timer; false if it already fired or was stopped.
	Stop() bool
	// Reset re-arms the timer for d; reports whether it was active.
	Reset(d time.Duration) bool
}

// Ticker is a drift-free cadence for a single-consumer loop:
// `for t.Wait() { ... }`, ended by Stop.
type Ticker interface {
	// Stop cancels the ticker and releases a parked Wait; every Wait from
	// then on returns false at once.
	Stop()
	// Wait parks until the next tick (true) or Stop (false). Ticks
	// coalesce under a slow consumer. Under Virtual both wake-ups are
	// accounted inside the clock lock, so time cannot advance past the
	// woken loop.
	Wait() bool
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

// SleepStop sleeps d or until stop closes; false means stopped. On the
// real clock a close ends the sleep at once. Under Virtual the stop is read
// before and after a full Sleep(d) — a channel close is no clock event
// (see the package rules) — so it suits short polls on a channel owned
// elsewhere, such as a caller's context.
func SleepStop(c Clock, d time.Duration, stop <-chan struct{}) bool {
	if closed(stop) {
		return false
	}
	if v, ok := c.(*Virtual); ok {
		v.Sleep(d)
		return !closed(stop)
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

// closed reports whether ch is closed; a nil ch never is.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
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
