package experiments

import (
	"testing"

	"uavmw/internal/clock"
)

// TestRunE16GatewayFanOutScales pins the gateway tentpole at CI scale:
// the air link costs the same regardless of audience size, the marginal
// per-client allocation cost is zero, and stalled consumers are evicted
// without dragging healthy clients' p99 past the acceptance bound.
func TestRunE16GatewayFanOutScales(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-phase gateway scale run; skipped in -short")
	}
	res, el := virtual(t, func(clk clock.Clock) (*E16Result, error) {
		return RunE16(clk, []int{200, 2000}, 10, 16)
	})
	t.Logf("e16 virtual: %v scenario in %v wall", el.Virtual, el.Wall)

	for _, pt := range res.Sweep {
		want := int64(pt.Clients) * int64(pt.Samples)
		if pt.Delivered != want {
			t.Errorf("%d clients: delivered %d frames, want %d", pt.Clients, pt.Delivered, want)
		}
		if pt.AirBytes == 0 {
			t.Errorf("%d clients: no air traffic measured", pt.Clients)
		}
	}
	// 10x the clients must not move the air link: one fabric subscription
	// serves them all. Discovery heartbeats add noise, hence the slack.
	if res.AirFlatnessRatio > 1.5 || res.AirFlatnessRatio < 0.5 {
		t.Errorf("air bytes/sample ratio across the sweep = %.2f, want ~1 (flat)", res.AirFlatnessRatio)
	}

	// Steady-state allocations per delivered sample must not grow with
	// the audience: the encode is per-occurrence, the fan-out is free.
	if res.Alloc.PerClientMarginal > 0.01 {
		t.Errorf("marginal allocs per client per sample = %.4f (%.1f at %d clients, %.1f at %d), want 0",
			res.Alloc.PerClientMarginal,
			res.Alloc.SmallPerSample, res.Alloc.SmallClients,
			res.Alloc.BigPerSample, res.Alloc.BigClients)
	}

	// Every deliberately stalled consumer must be evicted...
	if res.Slow.Evicted != int64(res.Slow.StalledClients) {
		t.Errorf("evicted %d of %d stalled clients", res.Slow.Evicted, res.Slow.StalledClients)
	}
	// ...without stalling the other N-1: healthy completion p99 within 2x
	// the clean baseline (5ms absolute floor so a microsecond baseline
	// does not turn scheduler jitter into a failure).
	if res.Slow.StalledP99Ms > 2*res.Slow.BaselineP99Ms && res.Slow.StalledP99Ms > res.Slow.BaselineP99Ms+5 {
		t.Errorf("healthy p99 %.2fms with stalled consumers vs %.2fms baseline (>2x)",
			res.Slow.StalledP99Ms, res.Slow.BaselineP99Ms)
	}
}
