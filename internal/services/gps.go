package services

import (
	"fmt"
	"sync"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/flightsim"
	"uavmw/internal/qos"
	"uavmw/internal/variables"
)

// GPS drives the flight-dynamics substrate and publishes the position
// variable at a fixed rate — the paper's "starting service" (§5). The
// variable primitive is chosen "for its high efficiency ... over the safer
// event primitive" exactly as the paper argues: consumers tolerate lost
// samples.
type GPS struct {
	// Aircraft is the simulated airframe; required.
	Aircraft *flightsim.Aircraft
	// SampleRate is the publication period (default DefaultSampleRate).
	SampleRate time.Duration
	// TimeScale multiplies simulated time per tick, letting a long
	// mission run in seconds of wall clock (default 1.0).
	TimeScale float64
	// Validity is the sample validity announced to subscribers
	// (default 5 sample periods).
	Validity time.Duration

	pub  *variables.Publisher
	stop chan struct{}
	wg   *clock.WaitGroup

	mu        sync.Mutex
	published uint64
}

var _ core.Service = (*GPS)(nil)
var _ core.Resourced = (*GPS)(nil)

// Name implements core.Service.
func (g *GPS) Name() string { return "gps" }

// Manifest implements core.Resourced: the GPS owns the receiver device.
func (g *GPS) Manifest() core.Manifest {
	return core.Manifest{MemoryKB: 256, CPUShare: 0.05, Devices: []string{"/dev/gps0"}}
}

// Init implements core.Service.
func (g *GPS) Init(ctx *core.Context) error {
	if g.Aircraft == nil {
		return fmt.Errorf("gps: no aircraft model")
	}
	if g.SampleRate <= 0 {
		g.SampleRate = DefaultSampleRate
	}
	if g.TimeScale <= 0 {
		g.TimeScale = 1
	}
	if g.Validity <= 0 {
		g.Validity = 5 * g.SampleRate
	}
	pub, err := ctx.OfferVariable(VarPosition, TypePosition, qos.VariableQoS{
		Validity: g.Validity,
		Period:   g.SampleRate,
		Priority: qos.PriorityNormal,
	})
	if err != nil {
		return err
	}
	g.pub = pub
	return nil
}

// Start implements core.Service.
func (g *GPS) Start(ctx *core.Context) error {
	g.stop = make(chan struct{})
	g.wg = clock.NewWaitGroup(ctx.Clock())
	g.wg.Add(1)
	clock.Go(ctx.Clock(), func() { g.run(ctx) })
	return nil
}

func (g *GPS) run(ctx *core.Context) {
	defer g.wg.Done()
	// The sample cadence rides the container's clock: under a virtual
	// clock a whole mission's worth of GPS ticks runs in discrete-event
	// time, drift-free.
	ticker := ctx.Clock().NewTicker(g.SampleRate)
	defer ticker.Stop()
	simStep := time.Duration(float64(g.SampleRate) * g.TimeScale)
	for ticker.Wait(g.stop) {
		st := g.Aircraft.Step(simStep)
		if err := g.pub.Publish(PositionValue(st)); err != nil {
			ctx.Logf("publish position: %v", err)
			continue
		}
		g.mu.Lock()
		g.published++
		g.mu.Unlock()
	}
}

// Stop implements core.Service.
func (g *GPS) Stop(*core.Context) error {
	if g.stop != nil {
		close(g.stop)
		g.wg.Wait()
		g.stop = nil
	}
	return nil
}

// Published reports samples published so far.
func (g *GPS) Published() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.published
}
