package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Equal-deadline events must fire in registration order.
func TestVirtualEqualDeadlineFireOrder(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		v.AfterFunc(50*time.Millisecond, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	v.Run(func() {
		v.Sleep(100 * time.Millisecond)
	})
	// The callbacks all fired before the 100ms sleep could complete (the
	// sleep's own wake-up is behind them in the heap), but give their
	// goroutines a moment in case the runtime is slow to schedule them.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 8 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 8 {
		t.Fatalf("fired %d of 8 callbacks", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("fire order %v: want registration order", order)
		}
	}
}

// Sleep wakes in deadline order and time lands exactly on each deadline.
func TestVirtualSleepAdvancesExactly(t *testing.T) {
	v := NewVirtual()
	start := v.Now()
	v.Run(func() {
		v.Sleep(250 * time.Millisecond)
		if got := v.Since(start); got != 250*time.Millisecond {
			t.Errorf("after sleep: elapsed %v, want 250ms", got)
		}
		v.Sleep(time.Hour)
		if got := v.Since(start); got != time.Hour+250*time.Millisecond {
			t.Errorf("after second sleep: elapsed %v", got)
		}
	})
}

// Timer Stop/Reset hammered from concurrent goroutines must be race-free
// (run under -race) and never fire a stopped timer late.
func TestVirtualTimerStopResetRace(t *testing.T) {
	v := NewVirtual()
	var fired atomic.Int64
	const timers = 32
	tms := make([]Timer, timers)
	for i := range tms {
		tms[i] = v.AfterFunc(10*time.Millisecond, func() { fired.Add(1) })
	}
	var wg sync.WaitGroup
	for i := range tms {
		tm := tms[i]
		wg.Add(2)
		go func() { defer wg.Done(); tm.Reset(5 * time.Millisecond) }()
		go func() { defer wg.Done(); tm.Stop() }()
	}
	wg.Wait()
	v.Run(func() { v.Sleep(time.Second) })
	// No assertion on the exact count (Stop/Reset raced by design); the
	// run must simply be race-free and every surviving timer must have
	// fired by now, with none left pending.
	if n := v.Pending(); n != 0 {
		t.Fatalf("%d events still pending after 1s", n)
	}
}

func TestVirtualTimerChannelDelivers(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		tm := v.NewTimer(20 * time.Millisecond)
		start := v.Now()
		v.Sleep(30 * time.Millisecond) // drives time past the fire instant
		select {
		case at := <-tm.C():
			if got := at.Sub(start); got != 20*time.Millisecond {
				t.Errorf("timer delivered %v after start, want 20ms", got)
			}
		default:
			t.Error("timer channel empty after its deadline passed")
		}
		if tm.Stop() {
			t.Error("Stop on fired timer reported active")
		}
	})
}

// Ticker cadence is drift-free: the k-th tick lands at exactly start+k*p
// no matter how late the consumer is.
func TestVirtualTickerDriftFree(t *testing.T) {
	v := NewVirtual()
	const period = 7 * time.Millisecond
	v.Run(func() {
		start := v.Now()
		tk := v.NewTicker(period)
		defer tk.Stop()
		for k := 1; k <= 50; k++ {
			if !tk.Wait(nil) {
				t.Fatal("Wait returned false without stop")
			}
			if got, want := v.Now().Sub(start), time.Duration(k)*period; got != want {
				t.Fatalf("tick %d at +%v, want +%v (drift)", k, got, want)
			}
			if k%10 == 0 {
				// A slow consumer must not shift subsequent ticks.
				v.Sleep(3 * time.Millisecond)
			}
		}
	})
}

// Starvation guard: virtual time must never advance past a runnable
// registered goroutine. A worker woken by Trigger.Signal does observable
// work before parking again; a long sleeper is waiting the whole time —
// the clock must not jump to the sleeper's deadline while the worker is
// runnable.
func TestVirtualNoAdvancePastRunnable(t *testing.T) {
	v := NewVirtual()
	trig := NewTrigger(v)
	start := v.Now()
	var sawAt atomic.Int64
	stop := make(chan struct{})
	v.Go(func() {
		for trig.Wait(-1, stop) {
			// Runnable now: time must still read the instant Signal ran.
			sawAt.Store(int64(v.Since(start)))
			v.Sleep(5 * time.Millisecond)
		}
	})
	v.Run(func() {
		v.Sleep(10 * time.Millisecond)
		trig.Signal()
		v.Sleep(time.Hour) // tempts the clock to jump far ahead
	})
	close(stop)
	if got := time.Duration(sawAt.Load()); got != 10*time.Millisecond {
		t.Fatalf("woken worker observed elapsed %v, want 10ms: time advanced past a runnable goroutine", got)
	}
}

func TestSleepStopVirtual(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		stop := make(chan struct{})
		start := v.Now()
		if !SleepStop(v, 15*time.Millisecond, stop) {
			t.Fatal("SleepStop returned false without stop")
		}
		if got := v.Now().Sub(start); got != 15*time.Millisecond {
			t.Fatalf("slept %v, want 15ms", got)
		}
		close(stop)
		if SleepStop(v, time.Hour, stop) {
			t.Fatal("SleepStop ignored closed stop")
		}
		if got := v.Now().Sub(start); got != 15*time.Millisecond {
			t.Fatalf("stopped sleep advanced time to +%v", got)
		}
	})
}

func TestVirtualCondFIFOAndAccounting(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := NewCond(v, &mu)
	var order []int
	ready := make(chan struct{}, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			mu.Lock()
			ready <- struct{}{}
			cond.Wait()
			order = append(order, i)
			mu.Unlock()
		})
	}
	for i := 0; i < 3; i++ {
		<-ready
	}
	v.Run(func() {
		// All three workers are parked on the cond; time can advance.
		v.Sleep(time.Millisecond)
		cond.Broadcast()
	})
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 {
		t.Fatalf("woke %d of 3 waiters", len(order))
	}
}

func TestTriggerCoalesces(t *testing.T) {
	for _, c := range []Clock{Real{}, Clock(NewVirtual())} {
		trig := NewTrigger(c)
		trig.Signal()
		trig.Signal()
		run := func() {
			if !trig.Wait(-1, nil) {
				t.Fatal("pending signal not consumed")
			}
			if !trig.Wait(time.Millisecond, nil) {
				t.Fatal("deadline expiry must return true")
			}
			stop := make(chan struct{})
			close(stop)
			if trig.Wait(-1, stop) {
				t.Fatal("closed stop must return false")
			}
		}
		if v, ok := c.(*Virtual); ok {
			v.Run(run)
		} else {
			run()
		}
	}
}

func TestRealClockSmoke(t *testing.T) {
	c := Or(nil)
	start := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(start) <= 0 {
		t.Fatal("real clock did not advance")
	}
	tm := c.NewTimer(time.Millisecond)
	<-tm.C()
	tk := c.NewTicker(time.Millisecond)
	if !tk.Wait(nil) {
		t.Fatal("real ticker Wait failed")
	}
	tk.Stop()
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	<-done
}

// A WaitGroup waiter wakes at the instant of the last Done, even while
// another registered goroutine keeps events due every millisecond: the
// Done releases the waiter's parked count inside the clock lock, so no
// event can fire between the Done and the waiter running again.
func TestVirtualWaitGroupWakesAtLastDone(t *testing.T) {
	const doneAt = 20*time.Millisecond + 500*time.Microsecond // between two ticks
	v := NewVirtual()
	for round := 0; round < 20; round++ {
		stop := make(chan struct{})
		v.Go(func() {
			for SleepStop(v, time.Millisecond, stop) {
			}
		})
		v.Run(func() {
			defer close(stop)
			wg := NewWaitGroup(v)
			wg.Add(1)
			start := v.Now()
			v.Go(func() {
				v.Sleep(doneAt)
				wg.Done()
			})
			wg.Wait()
			if got := v.Since(start); got != doneAt {
				t.Fatalf("round %d: Wait returned at +%v, want +%v (the last Done's instant)", round, got, doneAt)
			}
		})
	}
}

// A park by a goroutine the clock does not know is a bug to report, not a
// wait to guess around.
func TestVirtualUnregisteredParkPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if r := recover(); r != ErrUnregisteredPark {
			t.Fatalf("unregistered Sleep: recovered %v, want %v", r, ErrUnregisteredPark)
		}
	}()
	v.Sleep(time.Millisecond)
}

// TestTriggerWaitIgnoresStaleTick pins the reused deadline timer: a Wait
// that a Signal ended while its timer was firing must leave no tick behind,
// or the next Wait with a deadline returns at once.
func TestTriggerWaitIgnoresStaleTick(t *testing.T) {
	trig := NewTrigger(Real{}).(*realTrigger)
	const first, deadline = 200 * time.Microsecond, 2 * time.Millisecond
	for i := 0; i < 200; i++ {
		// The signal lands a few microseconds before the deadline, so the
		// timer fires while the woken waiter is still on its way back to
		// the CPU: the token ends this Wait with the tick already sent.
		lead := time.Duration(i%40) * time.Microsecond
		signalled := make(chan struct{})
		start := time.Now()
		go func() {
			for time.Since(start) < first-lead {
			}
			trig.Signal()
			close(signalled)
		}()
		trig.Wait(first-time.Since(start), nil)
		<-signalled
		// A token left over is a wake-up the next Wait would be right to
		// take; only a tick left over is the defect.
		select {
		case <-trig.ch:
		default:
		}

		start = time.Now()
		trig.Wait(deadline, nil)
		if elapsed := time.Since(start); elapsed < deadline {
			t.Fatalf("iteration %d: Wait(%v) returned after %v on a stale tick", i, deadline, elapsed)
		}
	}
}

// TestCondRecyclesChannelsFIFO pins Cond's recycled park channels on both
// clocks: waiters wake in the order they parked, a woken waiter's channel is
// reused by the next park, and a steady park/unpark cycle allocates nothing.
func TestCondRecyclesChannelsFIFO(t *testing.T) {
	for _, c := range []Clock{Real{}, Clock(NewVirtual())} {
		var mu sync.Mutex
		cond := NewCond(c, &mu)
		parked := func() int {
			lock := &cond.mu
			if cond.v != nil {
				lock = &cond.v.mu
			}
			lock.Lock()
			defer lock.Unlock()
			return len(cond.waiters)
		}
		for round := 0; round < 3; round++ {
			var order []int
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				Go(c, func() {
					defer wg.Done()
					mu.Lock()
					cond.Wait()
					order = append(order, i)
					mu.Unlock()
				})
				// Park them one at a time so the queue order is known.
				for parked() != i+1 {
					time.Sleep(50 * time.Microsecond)
				}
			}
			for i := 0; i < 3; i++ {
				cond.Signal()
				for {
					mu.Lock()
					woken := len(order)
					mu.Unlock()
					if woken == i+1 {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			wg.Wait()
			for i, got := range order {
				if got != i {
					t.Fatalf("%T round %d: wake order %v, want FIFO", c, round, order)
				}
			}
			cond.mu.Lock()
			idle := len(cond.idle)
			cond.mu.Unlock()
			if idle != 3 {
				t.Fatalf("%T round %d: %d idle channels, want the 3 woken waiters' (recycled, not remade)", c, round, idle)
			}
		}
	}
}

// TestCondWaitAllocs gates the scheduler pool's park/unpark cycle.
func TestCondWaitAllocs(t *testing.T) {
	var mu sync.Mutex
	cond := NewCond(Real{}, &mu)
	woke, exited := make(chan struct{}), make(chan struct{})
	stop := false // guarded by mu
	go func() {
		defer close(exited)
		mu.Lock()
		defer mu.Unlock()
		for {
			cond.Wait()
			if stop {
				return
			}
			woke <- struct{}{}
		}
	}()
	parked := func() {
		for {
			cond.mu.Lock()
			n := len(cond.waiters)
			cond.mu.Unlock()
			if n == 1 {
				return
			}
			runtime.Gosched()
		}
	}
	cycle := func() {
		parked()
		cond.Signal()
		<-woke
	}
	defer func() {
		parked()
		mu.Lock()
		stop = true
		mu.Unlock()
		cond.Signal()
		<-exited
	}()
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("Cond park/unpark: %v allocs/op, want 0", allocs)
	}
}

// TestWaitGroupAllocs is TestCondWaitAllocs' companion: after the first
// park, an Add/Done/Wait round on the real clock allocates nothing.
func TestWaitGroupAllocs(t *testing.T) {
	wg := NewWaitGroup(Real{})
	kick := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for range kick {
			wg.Done()
		}
	}()
	defer func() {
		close(kick)
		<-exited
	}()
	cycle := func() {
		wg.Add(1)
		kick <- struct{}{}
		wg.Wait()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("WaitGroup Add/Done/Wait: %v allocs/op, want 0", allocs)
	}
}
