package scheduler

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/qos"
)

func TestEDFRunsJobs(t *testing.T) {
	e := NewEDF(WithEDFWorkers(2))
	defer e.Stop()
	var done sync.WaitGroup
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		done.Add(1)
		if err := e.SubmitDeadline(func() {
			count.Add(1)
			done.Done()
		}, time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	if count.Load() != 50 {
		t.Errorf("ran %d", count.Load())
	}
	e.Stop() // a job is counted after it returns; wait for the workers
	if e.Executed() != 50 {
		t.Errorf("Executed = %d", e.Executed())
	}
}

func TestEDFDeadlineOrdering(t *testing.T) {
	// One worker blocked; jobs with scrambled deadlines must run
	// earliest-deadline-first regardless of submission order.
	e := NewEDF(WithEDFWorkers(1))
	defer e.Stop()

	release := make(chan struct{})
	started := make(chan struct{})
	_ = e.SubmitDeadline(func() { close(started); <-release }, time.Now())
	<-started

	var mu sync.Mutex
	var order []int
	var done sync.WaitGroup
	base := time.Now().Add(time.Hour)
	// Deadlines: job i has deadline base + (5-i) minutes -> run order 4,3,2,1,0.
	for i := 0; i < 5; i++ {
		i := i
		done.Add(1)
		_ = e.SubmitDeadline(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			done.Done()
		}, base.Add(time.Duration(5-i)*time.Minute))
	}
	close(release)
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEDFFIFOTiebreak(t *testing.T) {
	e := NewEDF(WithEDFWorkers(1))
	defer e.Stop()
	release := make(chan struct{})
	started := make(chan struct{})
	_ = e.SubmitDeadline(func() { close(started); <-release }, time.Now())
	<-started

	deadline := time.Now().Add(time.Hour)
	var mu sync.Mutex
	var order []int
	var done sync.WaitGroup
	for i := 0; i < 10; i++ {
		i := i
		done.Add(1)
		_ = e.SubmitDeadline(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			done.Done()
		}, deadline)
	}
	close(release)
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-deadline FIFO violated: %v", order)
		}
	}
}

func TestEDFSubmitMapsPriorities(t *testing.T) {
	// Through the plain Scheduler interface, a critical job must overtake
	// queued bulk jobs because its class deadline is far tighter.
	e := NewEDF(WithEDFWorkers(1))
	defer e.Stop()
	release := make(chan struct{})
	started := make(chan struct{})
	_ = e.Submit(qos.PriorityNormal, func() { close(started); <-release })
	<-started

	var mu sync.Mutex
	var order []string
	var done sync.WaitGroup
	done.Add(2)
	_ = e.Submit(qos.PriorityBulk, func() {
		mu.Lock()
		order = append(order, "bulk")
		mu.Unlock()
		done.Done()
	})
	_ = e.Submit(qos.PriorityCritical, func() {
		mu.Lock()
		order = append(order, "critical")
		mu.Unlock()
		done.Done()
	})
	close(release)
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "critical" {
		t.Errorf("order = %v", order)
	}
}

func TestEDFDynamicPriorityBeatsFixed(t *testing.T) {
	// The behaviour fixed priorities cannot express: an old bulk job with
	// a near deadline must run before a fresh critical job whose deadline
	// is farther away.
	e := NewEDF(WithEDFWorkers(1))
	defer e.Stop()
	release := make(chan struct{})
	started := make(chan struct{})
	_ = e.SubmitDeadline(func() { close(started); <-release }, time.Now())
	<-started

	var mu sync.Mutex
	var order []string
	var done sync.WaitGroup
	done.Add(2)
	now := time.Now()
	_ = e.SubmitDeadline(func() {
		mu.Lock()
		order = append(order, "old-bulk")
		mu.Unlock()
		done.Done()
	}, now.Add(2*time.Millisecond)) // imminent deadline
	_ = e.SubmitDeadline(func() {
		mu.Lock()
		order = append(order, "fresh-critical")
		mu.Unlock()
		done.Done()
	}, now.Add(10*time.Second)) // far deadline despite "critical" nature
	close(release)
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "old-bulk" {
		t.Errorf("EDF did not prefer the imminent deadline: %v", order)
	}
}

func TestEDFStopAndErrors(t *testing.T) {
	e := NewEDF()
	if err := e.Submit(qos.Priority(0), func() {}); !errors.Is(err, ErrBadPriority) {
		t.Errorf("bad priority: %v", err)
	}
	if err := e.SubmitDeadline(nil, time.Now()); !errors.Is(err, ErrBadPriority) {
		t.Errorf("nil job: %v", err)
	}
	e.Stop()
	e.Stop() // idempotent
	if err := e.Submit(qos.PriorityNormal, func() {}); !errors.Is(err, ErrStopped) {
		t.Errorf("after stop: %v", err)
	}
	if err := e.SubmitDeadline(func() {}, time.Now()); !errors.Is(err, ErrStopped) {
		t.Errorf("deadline after stop: %v", err)
	}
}

func TestEDFLatenessTracked(t *testing.T) {
	e := NewEDF(WithEDFWorkers(1))
	defer e.Stop()
	var done sync.WaitGroup
	done.Add(1)
	// Deadline already past: the job is tardy by construction.
	_ = e.SubmitDeadline(func() {
		time.Sleep(2 * time.Millisecond)
		done.Done()
	}, time.Now().Add(-time.Millisecond))
	done.Wait()
	deadline := time.Now().Add(time.Second)
	for e.Lateness().Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Lateness().Count() == 0 {
		t.Error("tardy job not recorded")
	}
}

func TestEDFPluggableIntoContainerInterface(t *testing.T) {
	// The container only knows the Scheduler interface; EDF satisfies it.
	var s Scheduler = NewEDF(WithEDFWorkers(1))
	var done sync.WaitGroup
	done.Add(1)
	if err := s.Submit(qos.PriorityHigh, func() { done.Done() }); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	s.Stop()
}

func TestEDFBacklog(t *testing.T) {
	e := NewEDF(WithEDFWorkers(1))
	defer e.Stop()
	release := make(chan struct{})
	started := make(chan struct{})
	_ = e.SubmitDeadline(func() { close(started); <-release }, time.Now())
	<-started
	for i := 0; i < 4; i++ {
		_ = e.SubmitDeadline(func() {}, time.Now().Add(time.Hour))
	}
	if got := e.Backlog(); got != 4 {
		t.Errorf("Backlog = %d", got)
	}
	close(release)
}
