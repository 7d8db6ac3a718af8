package scheduler

import (
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/qos"
)

// Regression for EDF deadline arithmetic bypassing the injected clock:
// with one worker occupied by a long job, a 5ms-deadline job can only run
// at t0+10ms — a 5ms miss that exists solely under this virtual schedule.
// If Submit/lateness used time.Now directly, the measured tardiness would
// be the (years-wide) gap between the wall clock and the virtual epoch,
// not exactly 5ms.
func TestEDFDeadlineMissUnderVirtualSchedule(t *testing.T) {
	v := clock.NewVirtual()
	e := NewEDF(WithEDFWorkers(1), WithEDFClock(v))
	defer e.Stop()

	doneB := make(chan struct{})
	v.Run(func() {
		// A occupies the only worker for 10ms of virtual time; it submits
		// B (deadline +5ms) from inside itself so the schedule is exact.
		if err := e.SubmitDeadline(func() {
			_ = e.SubmitDeadline(func() { close(doneB) }, v.Now().Add(5*time.Millisecond))
			v.Sleep(10 * time.Millisecond)
		}, v.Now().Add(20*time.Millisecond)); err != nil {
			t.Fatalf("submit A: %v", err)
		}
		clock.Blocking(v, func() { <-doneB })
	})
	// B closes doneB from inside the job; its tardiness is recorded after
	// the job returns. Stop waits for the worker to get there.
	e.Stop()

	lat := e.Lateness()
	if got := lat.Count(); got != 1 {
		t.Fatalf("lateness observations = %d, want exactly 1 (only B misses)", got)
	}
	if got := lat.Max(); got != 5*time.Millisecond {
		t.Fatalf("B's tardiness = %v, want exactly 5ms: EDF deadline arithmetic is not on the injected clock", got)
	}
}

// The Submit path must assign class deadlines on the injected clock too.
func TestEDFSubmitClassDeadlineOnClock(t *testing.T) {
	v := clock.NewVirtual()
	e := NewEDF(WithEDFWorkers(1), WithEDFClock(v), WithClassDeadline(qos.PriorityCritical, 2*time.Millisecond))
	defer e.Stop()

	done := make(chan struct{})
	v.Run(func() {
		if err := e.SubmitDeadline(func() {
			_ = e.Submit(qos.PriorityCritical, func() { close(done) })
			v.Sleep(8 * time.Millisecond)
		}, v.Now().Add(time.Hour)); err != nil {
			t.Fatalf("submit filler: %v", err)
		}
		clock.Blocking(v, func() { <-done })
	})
	e.Stop() // as above: wait for the worker to record the tardiness

	lat := e.Lateness()
	if got := lat.Count(); got != 1 {
		t.Fatalf("lateness observations = %d, want 1", got)
	}
	if got := lat.Max(); got != 6*time.Millisecond {
		t.Fatalf("critical job tardiness = %v, want exactly 6ms (ran at +8ms against a +2ms class deadline)", got)
	}
}
