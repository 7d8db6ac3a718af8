package experiments

import (
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/qos"
	"uavmw/internal/scheduler"
)

// RunE8 loads a fixed-priority pool with a background flood of bulk jobs
// while foreground jobs of every priority arrive; it reports the queue
// latency distribution per class. The soft-real-time claim (§6) holds if
// critical-class latency stays low and bounded while bulk latency grows
// with load.
func RunE8(workers, backgroundJobs, foregroundJobs int, jobWork time.Duration) (*E8Result, error) {
	pool := scheduler.NewPool(scheduler.WithWorkers(workers), scheduler.WithQueueCap(1<<17))
	defer pool.Stop()

	res := &E8Result{
		Workers:    workers,
		Load:       backgroundJobs,
		Priorities: make(map[qos.Priority]*metrics.Histogram, qos.NumLevels()),
	}
	for _, pr := range qos.Levels() {
		res.Priorities[pr] = &metrics.Histogram{}
	}

	busy := func() {
		deadline := time.Now().Add(jobWork)
		for time.Now().Before(deadline) {
		}
	}

	wg := clock.NewWaitGroup(clock.Real{})
	// Background flood at bulk priority.
	for i := 0; i < backgroundJobs; i++ {
		wg.Add(1)
		if err := pool.Submit(qos.PriorityBulk, func() {
			busy()
			wg.Done()
		}); err != nil {
			wg.Done()
			return nil, err
		}
	}
	// Foreground jobs across all classes, submitted while the flood
	// drains; their enqueue->run delay is the measurement.
	for i := 0; i < foregroundJobs; i++ {
		for _, pr := range qos.Levels() {
			pr := pr
			wg.Add(1)
			enqueued := time.Now()
			if err := pool.Submit(pr, func() {
				res.Priorities[pr].Observe(time.Since(enqueued))
				busy()
				wg.Done()
			}); err != nil {
				wg.Done()
				return nil, err
			}
		}
		time.Sleep(jobWork) // arrival pacing
	}
	wg.Wait()
	return res, nil
}
