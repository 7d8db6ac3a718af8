package experiments

import (
	"time"

	"uavmw/internal/clock"
)

// Elapsed reports how long an experiment ran on its own clock and on the
// wall: under a Virtual clock the two diverge by the speedup factor (a
// multi-second scenario executes in wall milliseconds).
type Elapsed struct {
	Virtual time.Duration // experiment time, on the injected clock
	Wall    time.Duration // host time actually spent
}

// Speedup is Virtual/Wall (0 when wall time was immeasurably small).
func (e Elapsed) Speedup() float64 {
	if e.Wall <= 0 {
		return 0
	}
	return float64(e.Virtual) / float64(e.Wall)
}

// RunVirtual executes fn against a fresh discrete-event clock: fn runs on
// a goroutine registered with the clock (so its sleeps and waits drive
// event time) and receives the clock to thread into the harness under
// test. Virtual runs complete at whatever rate the host can pop events;
// see the package doc for which figures a seed fixes today.
func RunVirtual(fn func(clk clock.Clock) error) (Elapsed, error) {
	v := clock.NewVirtual()
	startV := v.Now()
	startWall := time.Now()
	var err error
	v.Run(func() { err = fn(v) })
	return Elapsed{Virtual: v.Now().Sub(startV), Wall: time.Since(startWall)}, err
}
