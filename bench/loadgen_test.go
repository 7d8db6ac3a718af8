package main

import (
	"testing"
	"time"
)

// fakeClock is an injected time source: sleeping advances it, optionally
// overshooting as a Go timer on an idle process does.
type fakeClock struct {
	t         time.Time
	overshoot time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(d time.Duration, _ <-chan struct{}) bool {
	c.t = c.t.Add(d + c.overshoot)
	return true
}

// drive plays ops 1..n through the pacer: each op is sent when the pacer
// releases it, occupies the generator for service(i) and is delivered
// transit after its send. It returns each op's measured latency.
func drive(p *pacer, c *fakeClock, n int, service func(i int) time.Duration, transit time.Duration) []time.Duration {
	lat := make([]time.Duration, n+1)
	for i := 1; i <= n; i++ {
		from, _, ok := p.next(uint32(i), c.now, c.sleep, nil)
		if !ok {
			panic("pacer stopped")
		}
		delivered := c.now().Add(transit)
		lat[i] = delivered.Sub(from)
		s := service(i)
		c.t = c.t.Add(s)
		p.done(s)
	}
	return lat
}

func TestPacerChargesAStallToTheOpsItDelayed(t *testing.T) {
	const (
		period  = 500 * time.Microsecond
		transit = 80 * time.Microsecond
		service = 120 * time.Microsecond
	)
	start := time.Unix(1000, 0)
	c := &fakeClock{t: start}
	p := &pacer{start: start, period: period}
	// Op 4 stalls the system for three and a half periods.
	stall := 3*period + period/2
	lat := drive(p, c, 10, func(i int) time.Duration {
		if i == 4 {
			return stall
		}
		return service
	}, transit)

	for i := 1; i <= 4; i++ {
		if lat[i] != transit {
			t.Errorf("op %d before the stall: latency %v, want %v", i, lat[i], transit)
		}
	}
	// Op 5 was due one period after op 4 but could only be sent when the
	// stall ended: it waited stall-period on top of its transit. The ops
	// behind it queue up, each 'service' after the previous one.
	freed := stall // after op 4's due instant
	for i := 5; i <= 10; i++ {
		due := time.Duration(i-4) * period // after op 4's due instant
		want := transit
		if freed > due {
			want += freed - due
			freed += service
		} else {
			freed = due + service
		}
		if lat[i] != want {
			t.Errorf("op %d: latency %v, want %v", i, lat[i], want)
		}
	}
	if lat[5] <= lat[1] || lat[6] <= lat[1] || lat[7] <= lat[1] {
		t.Errorf("the stall was not charged to the delayed ops: %v", lat[1:])
	}
	if lat[10] != transit {
		t.Errorf("the backlog never drained: op 10 latency %v", lat[10])
	}
}

func TestPacerIgnoresTimerOvershoot(t *testing.T) {
	const (
		period  = 500 * time.Microsecond
		transit = 80 * time.Microsecond
		service = 120 * time.Microsecond
	)
	start := time.Unix(1000, 0)
	// Every sleep overshoots by more than a period, so the real generator
	// is always late and sends ops back to back; the system is never slow.
	c := &fakeClock{t: start, overshoot: 700 * time.Microsecond}
	p := &pacer{start: start.Add(period), period: period}
	var maxLate time.Duration
	for i := 1; i <= 50; i++ {
		from, late, _ := p.next(uint32(i), c.now, c.sleep, nil)
		if got := c.now().Add(transit).Sub(from); got != transit {
			t.Fatalf("op %d: latency %v, want %v (harness lateness %v leaked in)", i, got, transit, late)
		}
		if late > maxLate {
			maxLate = late
		}
		c.t = c.t.Add(service)
		p.done(service)
	}
	if maxLate < 700*time.Microsecond {
		t.Errorf("generator lateness %v does not show the overshoot", maxLate)
	}
}

func TestPacerStops(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	p := &pacer{start: time.Now().Add(time.Hour), period: time.Second}
	if _, _, ok := p.next(1, time.Now, sleepStop, stop); ok {
		t.Error("next returned ok after stop closed")
	}
}

func TestCreditWindowAccountsALostSample(t *testing.T) {
	const size = 4
	w := newCreditWindow(size, time.Second)
	t0 := time.Unix(2000, 0)
	for k := uint64(1); k <= size; k++ {
		if !w.acquire(nil) {
			t.Fatal("acquire refused with credits free")
		}
		w.issue(k, t0)
	}
	if got := w.outstanding(); got != size {
		t.Fatalf("outstanding = %d", got)
	}
	// The window is full: a further acquire must block until a credit
	// returns.
	stop := make(chan struct{})
	close(stop)
	if w.acquire(stop) {
		t.Fatal("acquire succeeded on a full window")
	}

	// Samples 1 and 2 arrive; 3 and 4 are lost.
	if lat, ok := w.complete(1, t0.Add(300*time.Microsecond)); !ok || lat != 300*time.Microsecond {
		t.Fatalf("complete(1) = %v %v", lat, ok)
	}
	if _, ok := w.complete(1, t0.Add(time.Millisecond)); ok {
		t.Fatal("a duplicate delivery completed twice")
	}
	if _, ok := w.complete(2, t0.Add(time.Millisecond)); !ok {
		t.Fatal("complete(2) refused")
	}
	if got := w.expire(t0.Add(999 * time.Millisecond)); got != 0 {
		t.Fatalf("expired %d samples before the timeout", got)
	}
	if got := w.expire(t0.Add(time.Second)); got != 2 {
		t.Fatalf("expired %d samples, want the 2 lost ones", got)
	}
	// A straggler after expiry is ignored: the op already counted as lost
	// and its credit is already back.
	if _, ok := w.complete(3, t0.Add(2*time.Second)); ok {
		t.Fatal("an expired sample completed")
	}
	if got := w.outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after expiry", got)
	}
	// All four credits are back, no more and no fewer.
	if got := len(w.credits); got != size {
		t.Fatalf("%d credits free after completions and expiry, want %d", got, size)
	}

	// A send that fails outright returns its credit at once.
	w.acquire(nil)
	w.issue(9, t0)
	w.cancel(9)
	w.cancel(9) // idempotent
	if got := len(w.credits); got != size {
		t.Fatalf("%d credits free after a cancelled send, want %d", got, size)
	}
}
