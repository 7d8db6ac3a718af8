package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/metrics"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/rpc"
	"uavmw/internal/transport"
)

// E11Result measures the concurrent RPC engine (§4.3) under a stalled
// pinned provider: throughput and latency at N concurrent callers, with
// and without hedged failover, under simulated loss. The pinned provider
// sleeps past the call deadline, so every call that meets its deadline did
// so by reaching the redundant fast provider — by hedging, or by an MTBusy
// shed, or not at all.
type E11Result struct {
	Callers    int
	Hedged     bool
	Loss       float64
	Deadline   time.Duration
	SlowDelay  time.Duration
	OK         int                // calls completed within the deadline
	Failed     int                // calls that missed the deadline
	Hedges     uint64             // speculative dispatches issued
	BusyRej    uint64             // requests shed by the slow provider
	Wall       time.Duration      // wall clock for the whole run
	Throughput float64            // successful calls per second
	Latency    *metrics.Histogram // successful-call latency
}

// RunE11 runs callers goroutines, each issuing callsPerCaller invocations
// of a function offered by two providers: "a-slow" (which static binding
// pins first, and which sleeps slowDelay per call) and "b-fast". With
// slowDelay beyond the deadline, un-hedged calls burn their whole budget
// on the stalled pin; hedged calls dispatch speculatively to the fast
// replica after 20% of the deadline and win.
func RunE11(clk clock.Clock, callers, callsPerCaller int, hedged bool, loss float64, slowDelay time.Duration, seed int64) (*E11Result, error) {
	clk = clock.Or(clk)
	const deadline = 250 * time.Millisecond
	res := &E11Result{
		Callers:   callers,
		Hedged:    hedged,
		Loss:      loss,
		Deadline:  deadline,
		SlowDelay: slowDelay,
		Latency:   &metrics.Histogram{},
	}

	net := transport.NewSimBus(transport.SimConfig{Loss: loss, Seed: seed, Latency: 300 * time.Microsecond, Clock: clk})
	defer net.Close()
	mk := func(id transport.NodeID) (*core.Node, error) {
		return simNode(clk, net, id,
			core.WithAnnouncePeriod(2*time.Second), // deltas announce registrations; heartbeats stay out of the way
			core.WithARQ(protocol.WithMaxRetries(15)))
	}
	slow, err := mk("a-slow")
	if err != nil {
		return nil, err
	}
	defer func() { _ = slow.Close() }()
	fast, err := mk("b-fast")
	if err != nil {
		return nil, err
	}
	defer func() { _ = fast.Close() }()
	client, err := mk("client")
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }()

	retT := presentation.String_()
	if err := slow.RPC().Register("e11.fn", "bench", nil, retT, qos.CallQoS{},
		func(any) (any, error) {
			if slowDelay > 0 {
				clk.Sleep(slowDelay)
			}
			return "a-slow", nil
		}); err != nil {
		return nil, err
	}
	if err := fast.RPC().Register("e11.fn", "bench", nil, retT, qos.CallQoS{},
		func(any) (any, error) { return "b-fast", nil }); err != nil {
		return nil, err
	}
	if err := waitProviders(clk, client, kindFunction, "e11.fn", 2, 5*time.Second); err != nil {
		return nil, err
	}

	q := qos.CallQoS{
		Binding:  qos.BindStatic, // pins the lexicographically-lowest node: a-slow
		Deadline: deadline,
	}
	if hedged {
		q.HedgeAfter = 0.2
	}

	type tally struct {
		ok, failed int
	}
	var (
		mu      sync.Mutex
		lats    []time.Duration
		totals  tally
		wg      = clock.NewWaitGroup(clk)
		ctx     = context.Background()
		callErr error
	)
	start := clk.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		clock.Go(clk, func() {
			defer wg.Done()
			local := tally{}
			localLats := make([]time.Duration, 0, callsPerCaller)
			for i := 0; i < callsPerCaller; i++ {
				t0 := clk.Now()
				_, err := client.RPC().Call(ctx, "e11.fn", nil, nil, retT, q)
				if err != nil {
					if !errors.Is(err, rpc.ErrDeadline) && !errors.Is(err, rpc.ErrAllProvidersFailed) {
						mu.Lock()
						if callErr == nil {
							callErr = fmt.Errorf("e11 unexpected call error: %w", err)
						}
						mu.Unlock()
						return
					}
					local.failed++
					continue
				}
				local.ok++
				localLats = append(localLats, clk.Since(t0))
			}
			mu.Lock()
			totals.ok += local.ok
			totals.failed += local.failed
			lats = append(lats, localLats...)
			mu.Unlock()
		})
	}
	// Caller goroutines are registered with the clock so their measured
	// windows (t0 -> reply) cannot have virtual time advance underneath the
	// dispatch work; the coordinator parks on the clock and wakes at the
	// instant the last caller finishes.
	wg.Wait()
	res.Wall = clk.Since(start)
	if callErr != nil {
		return nil, callErr
	}
	res.OK = totals.ok
	res.Failed = totals.failed
	for _, d := range lats {
		res.Latency.Observe(d)
	}
	res.Hedges = client.Metrics().SumCounters("rpc", "hedges")
	res.BusyRej = slow.Metrics().SumCounters("rpc", "errors", metrics.L("code", "busy_shed"))
	if res.Wall > 0 {
		res.Throughput = float64(res.OK) / res.Wall.Seconds()
	}
	return res, nil
}
