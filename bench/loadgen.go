package main

import (
	"sync"
	"time"

	"uavmw/internal/clock"
)

// creditWindow is the closed-loop flow control of telemetry_closed: the
// generator may have at most `size` samples undelivered. A delivery
// returns its credit; a sample undelivered after `timeout` is declared
// lost and returns its credit too, so loss slows the loop but never
// wedges it. A delivery arriving after its sample was declared lost is
// ignored: the op already counted as failed.
type creditWindow struct {
	credits chan struct{}
	timeout time.Duration

	mu       sync.Mutex
	inflight map[uint64]time.Time
}

func newCreditWindow(size int, timeout time.Duration) *creditWindow {
	w := &creditWindow{
		credits:  make(chan struct{}, size),
		timeout:  timeout,
		inflight: make(map[uint64]time.Time, size),
	}
	for i := 0; i < size; i++ {
		w.credits <- struct{}{}
	}
	return w
}

// acquire blocks until a credit is free or stop closes.
func (w *creditWindow) acquire(stop <-chan struct{}) bool {
	select {
	case <-w.credits:
		return true
	case <-stop:
		return false
	}
}

// issue records key as in flight from now. The caller holds a credit.
func (w *creditWindow) issue(key uint64, now time.Time) {
	w.mu.Lock()
	w.inflight[key] = now
	w.mu.Unlock()
}

// cancel returns the credit of an op whose send failed outright.
func (w *creditWindow) cancel(key uint64) {
	w.mu.Lock()
	_, ok := w.inflight[key]
	delete(w.inflight, key)
	w.mu.Unlock()
	if ok {
		w.credits <- struct{}{}
	}
}

// complete marks key delivered at now and returns its latency; ok is
// false for an unknown key (a duplicate, or a sample already expired).
func (w *creditWindow) complete(key uint64, now time.Time) (lat time.Duration, ok bool) {
	w.mu.Lock()
	t0, ok := w.inflight[key]
	delete(w.inflight, key)
	w.mu.Unlock()
	if !ok {
		return 0, false
	}
	w.credits <- struct{}{}
	return now.Sub(t0), true
}

// expire declares every op older than the timeout lost, returns their
// credits and reports how many there were.
func (w *creditWindow) expire(now time.Time) int {
	w.mu.Lock()
	lost := 0
	for key, t0 := range w.inflight {
		if now.Sub(t0) >= w.timeout {
			delete(w.inflight, key)
			lost++
		}
	}
	w.mu.Unlock()
	for i := 0; i < lost; i++ {
		w.credits <- struct{}{}
	}
	return lost
}

// outstanding reports the ops currently in flight.
func (w *creditWindow) outstanding() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.inflight)
}

// pacer is the open-loop schedule of alarm_paced_udp: op i (1-based) is
// due at start + (i-1)*period whatever happened to the ops before it, and
// its latency is timed from when it was due, so a stall in the system
// under test is charged to every op the stall delayed.
//
// The generator is one goroutine that sleeps on a Go timer, and on an
// idle process such a timer fires up to a millisecond late — two periods.
// Timing from the raw due instant would mostly measure that. So the pacer
// keeps the timeline of an ideal generator beside the real one: the ideal
// one sends op i at max(due, the instant the system released it from op
// i-1), where each op occupies it for exactly the service time the real
// op took. An op is then timed from its real send instant moved back by
// the ideal generator's backlog (ideal send − due): queueing the system
// caused is charged, the harness's timer overshoot is not. The real
// generator's lateness, overshoot included, is reported separately.
type pacer struct {
	start  time.Time
	period time.Duration

	idealSend time.Time // of the op in progress
	idealFree time.Time // when the ideal generator is released from it
}

func (p *pacer) due(i uint32) time.Time {
	return p.start.Add(time.Duration(i-1) * p.period)
}

// next blocks until op i is due (or stop closes) and returns the instant
// the op's latency is timed from, and how late the real generator is.
// The caller sends the op and then calls done.
func (p *pacer) next(i uint32, now func() time.Time, sleep func(time.Duration, <-chan struct{}) bool, stop <-chan struct{}) (from time.Time, late time.Duration, ok bool) {
	due := p.due(i)
	if d := due.Sub(now()); d > 0 && !sleep(d, stop) {
		return time.Time{}, 0, false
	}
	sent := now()
	p.idealSend = due
	if p.idealFree.After(due) {
		p.idealSend = p.idealFree
	}
	return sent.Add(-p.idealSend.Sub(due)), sent.Sub(due), true
}

// done records how long the op just sent occupied the generator.
func (p *pacer) done(service time.Duration) {
	p.idealFree = p.idealSend.Add(service)
}

// sleepStop sleeps d on a timer (never spinning, so generator CPU stays
// out of cpu_us_per_op) and reports false if stop closed first.
func sleepStop(d time.Duration, stop <-chan struct{}) bool {
	return clock.SleepStop(clock.Real{}, d, stop)
}
