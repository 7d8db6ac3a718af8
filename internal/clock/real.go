package clock

import (
	"sync"
	"time"
)

// Real is the wall clock: a zero-cost pass-through to the time package.
type Real struct{}

var _ Clock = Real{}

func (Real) Now() time.Time                  { return time.Now() }
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }
func (Real) Sleep(d time.Duration)           { time.Sleep(d) }

func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
func (Real) NewTicker(d time.Duration) Ticker {
	return &realTicker{t: time.NewTicker(d), stopped: make(chan struct{})}
}

// realTicker is a time.Ticker whose Stop also closes stopped, releasing a
// parked Wait (time.Ticker.Stop leaves its channel open).
type realTicker struct {
	t       *time.Ticker
	once    sync.Once
	stopped chan struct{}
}

func (rt *realTicker) Stop() {
	rt.once.Do(func() {
		rt.t.Stop()
		close(rt.stopped)
	})
}

func (rt *realTicker) Wait() bool {
	if closed(rt.stopped) {
		return false
	}
	select {
	case <-rt.t.C:
		return true
	case <-rt.stopped:
		return false
	}
}
