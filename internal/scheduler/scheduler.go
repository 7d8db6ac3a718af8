// Package scheduler implements the pluggable execution scheduler of the
// paper's §6: "our implementation also [has a] pluggable scheduler that
// queues and arranges event/variable handlers and service calls execution
// ... basically a simple thread pool with fixed priorities for each named
// primitive". Handlers submitted at higher priority always run before
// queued lower-priority work; within one priority, order is FIFO. This is
// soft real time: no preemption, no deadline guarantees — exactly the
// paper's stated scope.
package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/qos"
)

// Job is one unit of handler work.
type Job func()

// Scheduler orders and executes handler work. Implementations must be safe
// for concurrent use.
type Scheduler interface {
	// Submit enqueues job at priority p. It returns ErrQueueFull when the
	// per-priority queue is saturated and ErrStopped after Stop.
	Submit(p qos.Priority, job Job) error
	// Stop drains nothing: queued jobs are discarded, running jobs finish,
	// and all workers exit before Stop returns. Idempotent.
	Stop()
}

// Errors.
var (
	// ErrQueueFull reports a saturated priority queue (backpressure).
	ErrQueueFull = errors.New("scheduler queue full")
	// ErrStopped reports Submit after Stop.
	ErrStopped = errors.New("scheduler stopped")
	// ErrBadPriority reports an out-of-range priority.
	ErrBadPriority = errors.New("invalid priority")
)

// Pool is the fixed-priority worker pool. Workers always take from the
// highest-priority non-empty queue.
type Pool struct {
	clk      clock.Clock
	mu       sync.Mutex
	cond     *clock.Cond
	queues   []jobQueue // index = qos.Priority.Index(), ascending urgency
	queueCap int
	stopped  bool
	pending  int

	workers int
	wg      *clock.WaitGroup

	queueDelay []*metrics.Histogram // per priority
	executed   []*metrics.Counter
	rejected   []*metrics.Counter
}

type queuedJob struct {
	job      Job
	enqueued time.Time
}

// jobQueue is an amortized O(1) FIFO.
type jobQueue struct {
	items []queuedJob
	head  int
}

func (q *jobQueue) push(j queuedJob) { q.items = append(q.items, j) }

func (q *jobQueue) pop() (queuedJob, bool) {
	if q.head >= len(q.items) {
		return queuedJob{}, false
	}
	j := q.items[q.head]
	q.items[q.head] = queuedJob{} // release references
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return j, true
}

func (q *jobQueue) len() int { return len(q.items) - q.head }

// Defaults.
const (
	// DefaultWorkers matches the paper's low-resource nodes: a small
	// fixed pool, not one goroutine per message.
	DefaultWorkers = 4
	// DefaultQueueCap bounds each priority queue.
	DefaultQueueCap = 4096
)

// PoolOption customizes a Pool.
type PoolOption func(*poolConfig)

type poolConfig struct {
	workers  int
	queueCap int
	clk      clock.Clock
}

// WithWorkers sets the worker count (>=1).
func WithWorkers(n int) PoolOption {
	return func(c *poolConfig) {
		if n >= 1 {
			c.workers = n
		}
	}
}

// WithPoolClock sets the pool's time source (default: the wall clock).
// Under a virtual clock the workers are registered with it, so simulated
// time halts while handlers run — handler latency histograms then
// measure queueing, not wall-clock scheduling noise.
func WithPoolClock(c clock.Clock) PoolOption {
	return func(cfg *poolConfig) {
		if c != nil {
			cfg.clk = c
		}
	}
}

// WithQueueCap bounds each per-priority queue (>=1).
func WithQueueCap(n int) PoolOption {
	return func(c *poolConfig) {
		if n >= 1 {
			c.queueCap = n
		}
	}
}

var _ Scheduler = (*Pool)(nil)

// NewPool starts a fixed-priority pool.
func NewPool(opts ...PoolOption) *Pool {
	cfg := poolConfig{workers: DefaultWorkers, queueCap: DefaultQueueCap}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := qos.NumLevels()
	p := &Pool{
		clk:        clock.Or(cfg.clk),
		queues:     make([]jobQueue, n),
		workers:    cfg.workers,
		queueDelay: make([]*metrics.Histogram, n),
		executed:   make([]*metrics.Counter, n),
		rejected:   make([]*metrics.Counter, n),
	}
	p.cond = clock.NewCond(p.clk, &p.mu)
	p.wg = clock.NewWaitGroup(p.clk)
	p.queueCap = cfg.queueCap
	for i := 0; i < n; i++ {
		p.queueDelay[i] = &metrics.Histogram{}
		p.executed[i] = &metrics.Counter{}
		p.rejected[i] = &metrics.Counter{}
	}
	p.wg.Add(cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		clock.Go(p.clk, p.worker)
	}
	return p
}

// Submit implements Scheduler.
func (p *Pool) Submit(pr qos.Priority, job Job) error {
	idx := pr.Index()
	if idx < 0 {
		return fmt.Errorf("scheduler: priority %d: %w", pr, ErrBadPriority)
	}
	if job == nil {
		return fmt.Errorf("scheduler: nil job: %w", ErrBadPriority)
	}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return fmt.Errorf("scheduler: %w", ErrStopped)
	}
	if p.queues[idx].len() >= p.queueCap {
		p.mu.Unlock()
		p.rejected[idx].Inc()
		return fmt.Errorf("scheduler: priority %v: %w", pr, ErrQueueFull)
	}
	p.queues[idx].push(queuedJob{job: job, enqueued: p.clk.Now()})
	p.pending++
	p.mu.Unlock()
	p.cond.Signal()
	return nil
}

// worker runs jobs highest-priority-first until Stop.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.pending == 0 && !p.stopped {
			p.cond.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		var (
			qj  queuedJob
			idx int
		)
		for i := len(p.queues) - 1; i >= 0; i-- {
			if j, ok := p.queues[i].pop(); ok {
				qj, idx = j, i
				p.pending--
				break
			}
		}
		p.mu.Unlock()
		if qj.job == nil {
			continue
		}
		p.queueDelay[idx].Observe(p.clk.Since(qj.enqueued))
		qj.job()
		p.executed[idx].Inc()
	}
}

// Stop implements Scheduler.
func (p *Pool) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	for i := range p.queues {
		p.queues[i] = jobQueue{}
	}
	p.pending = 0
	p.mu.Unlock()
	p.cond.Broadcast()
	// Workers mid-job may be parked on a Virtual clock (a handler sleeping
	// in simulated time): the drain parks on the clock so time advances
	// under them.
	p.wg.Wait()
}

// QueueDelay exposes the queue-latency histogram for a priority, for the
// E8 soft-real-time experiment.
func (p *Pool) QueueDelay(pr qos.Priority) *metrics.Histogram {
	idx := pr.Index()
	if idx < 0 {
		return nil
	}
	return p.queueDelay[idx]
}

// Executed reports how many jobs of a priority have completed.
func (p *Pool) Executed(pr qos.Priority) uint64 {
	idx := pr.Index()
	if idx < 0 {
		return 0
	}
	return p.executed[idx].Value()
}

// Rejected reports how many submissions of a priority were refused.
func (p *Pool) Rejected(pr qos.Priority) uint64 {
	idx := pr.Index()
	if idx < 0 {
		return 0
	}
	return p.rejected[idx].Value()
}

// Backlog reports currently queued jobs across priorities.
func (p *Pool) Backlog() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Inline is a pass-through scheduler that runs jobs synchronously on the
// caller's goroutine. It exists to demonstrate scheduler pluggability (F4)
// and as the baseline in the E8 ablation.
type Inline struct {
	mu      sync.Mutex
	stopped bool
}

var _ Scheduler = (*Inline)(nil)

// NewInline returns an inline scheduler.
func NewInline() *Inline { return &Inline{} }

// Submit implements Scheduler.
func (s *Inline) Submit(pr qos.Priority, job Job) error {
	if !pr.Valid() {
		return fmt.Errorf("scheduler: priority %d: %w", pr, ErrBadPriority)
	}
	if job == nil {
		return fmt.Errorf("scheduler: nil job: %w", ErrBadPriority)
	}
	s.mu.Lock()
	stopped := s.stopped
	s.mu.Unlock()
	if stopped {
		return fmt.Errorf("scheduler: %w", ErrStopped)
	}
	job()
	return nil
}

// Stop implements Scheduler.
func (s *Inline) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
}
