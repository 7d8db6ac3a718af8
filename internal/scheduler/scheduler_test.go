package scheduler

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/qos"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(WithWorkers(2))
	defer p.Stop()
	var done sync.WaitGroup
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		done.Add(1)
		if err := p.Submit(qos.PriorityNormal, func() {
			count.Add(1)
			done.Done()
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	done.Wait()
	if count.Load() != 100 {
		t.Errorf("ran %d jobs", count.Load())
	}
	p.Stop() // a job is counted after it returns; wait for the workers
	if p.Executed(qos.PriorityNormal) != 100 {
		t.Errorf("Executed = %d", p.Executed(qos.PriorityNormal))
	}
}

func TestPoolPriorityOrdering(t *testing.T) {
	// One worker; first job blocks until all submissions are queued, then
	// execution order must be critical > high > normal > low > bulk.
	p := NewPool(WithWorkers(1))
	defer p.Stop()

	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(qos.PriorityNormal, func() {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []qos.Priority
	var done sync.WaitGroup
	submit := func(pr qos.Priority) {
		done.Add(1)
		if err := p.Submit(pr, func() {
			mu.Lock()
			order = append(order, pr)
			mu.Unlock()
			done.Done()
		}); err != nil {
			t.Errorf("Submit(%v): %v", pr, err)
		}
	}
	// Submit in scrambled order.
	submit(qos.PriorityBulk)
	submit(qos.PriorityHigh)
	submit(qos.PriorityLow)
	submit(qos.PriorityCritical)
	submit(qos.PriorityNormal)

	close(release)
	done.Wait()

	want := []qos.Priority{
		qos.PriorityCritical, qos.PriorityHigh, qos.PriorityNormal,
		qos.PriorityLow, qos.PriorityBulk,
	}
	mu.Lock()
	defer mu.Unlock()
	for i, pr := range want {
		if order[i] != pr {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestPoolFIFOWithinPriority(t *testing.T) {
	p := NewPool(WithWorkers(1))
	defer p.Stop()

	release := make(chan struct{})
	started := make(chan struct{})
	_ = p.Submit(qos.PriorityNormal, func() { close(started); <-release })
	<-started

	var mu sync.Mutex
	var order []int
	var done sync.WaitGroup
	for i := 0; i < 20; i++ {
		i := i
		done.Add(1)
		_ = p.Submit(qos.PriorityNormal, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			done.Done()
		})
	}
	close(release)
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(WithWorkers(1), WithQueueCap(2))
	defer p.Stop()

	release := make(chan struct{})
	started := make(chan struct{})
	_ = p.Submit(qos.PriorityNormal, func() { close(started); <-release })
	<-started

	if err := p.Submit(qos.PriorityNormal, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(qos.PriorityNormal, func() {}); err != nil {
		t.Fatal(err)
	}
	err := p.Submit(qos.PriorityNormal, func() {})
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("want ErrQueueFull, got %v", err)
	}
	if p.Rejected(qos.PriorityNormal) != 1 {
		t.Errorf("Rejected = %d", p.Rejected(qos.PriorityNormal))
	}
	// Other priorities have their own capacity.
	if err := p.Submit(qos.PriorityHigh, func() {}); err != nil {
		t.Errorf("other priority rejected: %v", err)
	}
	close(release)
}

func TestPoolStop(t *testing.T) {
	// One worker: with a second, idle one the job "queued behind the
	// blocker" raced Stop for that worker and ran about one time in fifty.
	p := NewPool(WithWorkers(1))
	var ran atomic.Bool
	release := make(chan struct{})
	started := make(chan struct{})
	_ = p.Submit(qos.PriorityNormal, func() { close(started); <-release })
	<-started
	// Queued behind the blocker; will be discarded by Stop.
	_ = p.Submit(qos.PriorityNormal, func() { ran.Store(true) })

	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	p.Stop()
	p.Stop() // idempotent
	if ran.Load() {
		t.Error("queued job ran after Stop")
	}
	if err := p.Submit(qos.PriorityNormal, func() {}); !errors.Is(err, ErrStopped) {
		t.Errorf("Submit after Stop: %v", err)
	}
}

func TestPoolBadSubmissions(t *testing.T) {
	p := NewPool(WithWorkers(1))
	defer p.Stop()
	if err := p.Submit(qos.Priority(0), func() {}); !errors.Is(err, ErrBadPriority) {
		t.Errorf("zero priority: %v", err)
	}
	if err := p.Submit(qos.Priority(99), func() {}); !errors.Is(err, ErrBadPriority) {
		t.Errorf("big priority: %v", err)
	}
	if err := p.Submit(qos.PriorityNormal, nil); !errors.Is(err, ErrBadPriority) {
		t.Errorf("nil job: %v", err)
	}
}

func TestPoolQueueDelayMetric(t *testing.T) {
	p := NewPool(WithWorkers(1))
	defer p.Stop()
	var done sync.WaitGroup
	for i := 0; i < 10; i++ {
		done.Add(1)
		_ = p.Submit(qos.PriorityHigh, func() { done.Done() })
	}
	done.Wait()
	h := p.QueueDelay(qos.PriorityHigh)
	if h == nil || h.Count() != 10 {
		t.Errorf("queue delay observations = %v", h)
	}
	if p.QueueDelay(qos.Priority(0)) != nil {
		t.Error("invalid priority must return nil histogram")
	}
}

func TestPoolBacklog(t *testing.T) {
	p := NewPool(WithWorkers(1))
	defer p.Stop()
	release := make(chan struct{})
	started := make(chan struct{})
	_ = p.Submit(qos.PriorityNormal, func() { close(started); <-release })
	<-started
	for i := 0; i < 5; i++ {
		_ = p.Submit(qos.PriorityNormal, func() {})
	}
	if got := p.Backlog(); got != 5 {
		t.Errorf("Backlog = %d, want 5", got)
	}
	close(release)
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(WithWorkers(4))
	defer p.Stop()
	var count atomic.Int64
	var wg sync.WaitGroup
	prios := qos.Levels()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pr := prios[(g+i)%len(prios)]
				for {
					err := p.Submit(pr, func() { count.Add(1) })
					if err == nil {
						break
					}
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.After(5 * time.Second)
	for count.Load() < 1600 {
		select {
		case <-deadline:
			t.Fatalf("only %d of 1600 jobs ran", count.Load())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestInlineScheduler(t *testing.T) {
	s := NewInline()
	ran := false
	if err := s.Submit(qos.PriorityNormal, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("inline job did not run synchronously")
	}
	if err := s.Submit(qos.Priority(0), func() {}); !errors.Is(err, ErrBadPriority) {
		t.Errorf("bad priority: %v", err)
	}
	if err := s.Submit(qos.PriorityNormal, nil); !errors.Is(err, ErrBadPriority) {
		t.Errorf("nil job: %v", err)
	}
	s.Stop()
	if err := s.Submit(qos.PriorityNormal, func() {}); !errors.Is(err, ErrStopped) {
		t.Errorf("after stop: %v", err)
	}
}

func TestSchedulerPluggability(t *testing.T) {
	// F4: both implementations satisfy the interface and run work.
	for _, s := range []Scheduler{NewPool(WithWorkers(1)), NewInline()} {
		var done sync.WaitGroup
		done.Add(1)
		if err := s.Submit(qos.PriorityCritical, func() { done.Done() }); err != nil {
			t.Fatal(err)
		}
		done.Wait()
		s.Stop()
	}
}
