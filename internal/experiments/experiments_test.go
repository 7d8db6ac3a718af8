package experiments

import (
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/qos"
)

// The full sweeps run in cmd/uavbench; these are smoke tests proving each
// harness builds its deployment, measures, and tears down cleanly at tiny
// parameters. E3 and E11–E14 run under a Virtual clock — the same way
// uavbench runs them by default — so they double as regressions for the
// virtual-time plane: identical protocol semantics at a fraction of the
// wall time.

// virtual runs a scenario on a fresh discrete-event clock and returns its
// result; a scenario error fails the test.
func virtual[T any](t *testing.T, scenario func(clk clock.Clock) (T, error)) (T, Elapsed) {
	t.Helper()
	var res T
	el, err := RunVirtual(func(clk clock.Clock) (err error) {
		res, err = scenario(clk)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, el
}

func TestRunE3ShapesMatchDeliveryModes(t *testing.T) {
	res, _ := virtual(t, func(clk clock.Clock) (*E3Result, error) { return RunE3(clk, 2, 10, 4) })
	if res.Subscribers != 2 || res.Samples != 10 {
		t.Fatalf("echoed config = %d/%d", res.Subscribers, res.Samples)
	}
	if res.McastBytes == 0 || res.UcastBytes == 0 {
		t.Fatalf("no wire traffic: mcast=%d ucast=%d", res.McastBytes, res.UcastBytes)
	}
	// The tentpole property: group addressing sends each occurrence once,
	// unicast once per subscriber (plus acks), so at 2 subscribers the
	// unicast byte count must exceed multicast.
	if res.UcastBytes <= res.McastBytes {
		t.Errorf("unicast %d bytes <= multicast %d bytes", res.UcastBytes, res.McastBytes)
	}
}

func TestRunE8ReportsEveryPriorityClass(t *testing.T) {
	res, err := RunE8(2, 50, 5, 20*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 || res.Load != 50 {
		t.Fatalf("echoed config = %d/%d", res.Workers, res.Load)
	}
	for _, pr := range qos.Levels() {
		h := res.Priorities[pr]
		if h == nil {
			t.Fatalf("priority %v missing", pr)
		}
		if h.Count() == 0 {
			t.Errorf("priority %v observed no jobs", pr)
		}
	}
}

func TestRunE11HedgingRescuesStalledPin(t *testing.T) {
	// The acceptance property of the concurrent RPC engine: when the
	// statically-pinned provider stalls past the deadline, hedged calls
	// complete within the QoS deadline via the redundant provider, where
	// the unhedged baseline times out.
	const slow = 400 * time.Millisecond
	run := func(hedged bool) *E11Result {
		res, _ := virtual(t, func(clk clock.Clock) (*E11Result, error) {
			return RunE11(clk, 2, 3, hedged, 0, slow, 11)
		})
		return res
	}
	unhedged := run(false)
	if unhedged.OK != 0 || unhedged.Failed != 6 {
		t.Errorf("unhedged against stalled pin: ok=%d failed=%d, want 0/6",
			unhedged.OK, unhedged.Failed)
	}
	hedged := run(true)
	if hedged.OK != 6 || hedged.Failed != 0 {
		t.Fatalf("hedged: ok=%d failed=%d, want 6/0", hedged.OK, hedged.Failed)
	}
	if hedged.Hedges == 0 {
		t.Error("no hedges recorded")
	}
	if p99 := hedged.Latency.Percentile(99); p99 >= hedged.Deadline {
		t.Errorf("hedged p99 %v not within the %v deadline", p99, hedged.Deadline)
	}
}

func TestRunE12DeltaDiscoveryBeatsFullBroadcast(t *testing.T) {
	res, _ := virtual(t, func(clk clock.Clock) (*E12Result, error) { return RunE12(clk, 4, 25, 5) })
	if res.SteadyBytesPerPeriod <= 0 {
		t.Fatal("no steady-state discovery traffic measured")
	}
	// The tentpole property: steady-state discovery is constant-size
	// digests, far cheaper than re-broadcasting 4×25 records per period.
	if res.BaselineBytesPerPeriod < 2*res.SteadyBytesPerPeriod {
		t.Errorf("full-state baseline %.0f B/period not clearly above steady %.0f B/period",
			res.BaselineBytesPerPeriod, res.SteadyBytesPerPeriod)
	}
	// A new offer must be resolvable well under one announce period.
	if res.Converge >= res.AnnouncePeriod {
		t.Errorf("new offer converged in %v, want under the %v period", res.Converge, res.AnnouncePeriod)
	}
}

func TestRunE12ChurnHealsViaSync(t *testing.T) {
	res, _ := virtual(t, func(clk clock.Clock) (*E12ChurnResult, error) { return RunE12Churn(clk, 3, 10, 20, 6) })
	if res.SyncsUsed == 0 {
		t.Error("heal did not use anti-entropy sync")
	}
	if res.HealConverge > 10*res.AnnouncePeriod {
		t.Errorf("heal took %v, want within ~10 beacon periods", res.HealConverge)
	}
}

func TestRunE5LocalBypassIsCheaper(t *testing.T) {
	res, err := RunE5(32<<10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalFetch <= 0 || res.RemoteFetch <= 0 {
		t.Fatalf("timings = %v / %v", res.LocalFetch, res.RemoteFetch)
	}
	if res.LocalFetch >= res.RemoteFetch {
		t.Errorf("local fetch %v not cheaper than remote %v", res.LocalFetch, res.RemoteFetch)
	}
	if res.LocalVar <= 0 || res.RemoteVar <= 0 {
		t.Errorf("variable timings = %v / %v", res.LocalVar, res.RemoteVar)
	}
}

// TestRunE13EgressFixesPriorityInversion pins the tentpole property: on a
// constrained link a concurrent bulk transfer balloons critical-alarm
// latency when bulk is unshaped, and the egress plane (strict-priority
// lanes + paced bulk) keeps it bounded while bulk throughput stays near
// line rate. Margins are generous — CI hosts are noisy — the shape is what
// matters: flood ≫ unloaded, shaped ≈ unloaded.
func TestRunE13EgressFixesPriorityInversion(t *testing.T) {
	const linkBPS = 125_000
	res, _ := virtual(t, func(clk clock.Clock) (*E13Result, error) { return RunE13(clk, 64*1024, linkBPS, 50, 7) })
	unloaded := res.Unloaded.Percentile(99)
	flood := res.Flood.Percentile(99)
	shaped := res.Shaped.Percentile(99)
	if unloaded <= 0 || res.Unloaded.Count() == 0 {
		t.Fatal("no unloaded baseline measured")
	}
	if flood < 3*unloaded {
		t.Errorf("flood alarm p99 %v not clearly above unloaded %v: no inversion to fix?", flood, unloaded)
	}
	if shaped > flood/2 {
		t.Errorf("shaped alarm p99 %v not clearly below flood %v", shaped, flood)
	}
	if shaped > 5*unloaded {
		t.Errorf("shaped alarm p99 %v not bounded near unloaded %v", shaped, unloaded)
	}
	if res.ShapedLost > 0 {
		t.Errorf("%d of %d shaped alarms lost", res.ShapedLost, res.ShapedSent)
	}
	// Bulk must still move: within ~2.5x of line rate even on a tiny file
	// where setup latency dominates (the uavbench sweep measures 1MB).
	if res.ShapedGoodput < float64(linkBPS)/2.5 {
		t.Errorf("shaped goodput %.0f B/s too far below the %d B/s line", res.ShapedGoodput, linkBPS)
	}
	if res.ShapedDropped != 0 {
		t.Errorf("pacing should keep the bulk lane shallow, egress dropped %d chunks", res.ShapedDropped)
	}
}

// TestRunE14BearerHandoverKeepsCriticalAlive pins the bearer-plane
// acceptance properties: with the primary (wifi) bearer blacked out
// mid-transfer, critical alarms lose zero events and hold p99 within 3x
// the unloaded baseline; bulk degrades to >=80% of the surviving radio's
// shaped rate; the blackout is detected within a few failure deadlines;
// and the single-bearer baseline loses alarms for the bulk of the
// blackout.
func TestRunE14BearerHandoverKeepsCriticalAlive(t *testing.T) {
	res, el := virtual(t, func(clk clock.Clock) (*E14Result, error) {
		return RunE14(clk, 96*1024, 400*time.Millisecond, 14)
	})
	t.Logf("e14 virtual: %v of scenario time in %v of wall time (%.0fx)",
		el.Virtual, el.Wall, el.Speedup())
	if res.Unloaded.Count() == 0 {
		t.Fatal("no unloaded baseline measured")
	}
	if res.MultiLost != 0 {
		t.Errorf("%d of %d multi-bearer alarms lost across the blackout", res.MultiLost, res.MultiSent)
	}
	unloaded := res.Unloaded.Percentile(99)
	loaded := res.Multi.Percentile(99)
	if loaded > 3*unloaded {
		t.Errorf("loaded alarm p99 %v above 3x unloaded %v", loaded, unloaded)
	}
	if res.HandoverDetect > time.Second {
		t.Errorf("handover detection took %v, want within ~a few failure deadlines", res.HandoverDetect)
	}
	if min := 0.8 * float64(res.RadioShaped); res.RecoveredBPS < min {
		t.Errorf("recovered bulk rate %.0f B/s below 80%% of the radio's shaped %d B/s", res.RecoveredBPS, res.RadioShaped)
	}
	if res.WifiBytes == 0 || res.RadioBytes == 0 {
		t.Error("traffic should have crossed both bearers")
	}
	// The baseline has no second link: a blackout longer than the ARQ
	// budget must lose a substantial share of the alarms published during
	// it (~75 of 120 at 50Hz over 1.5s in practice).
	if res.SingleLost < res.SingleSent/4 {
		t.Errorf("single-bearer baseline lost %d of %d alarms; expected the blackout to cost far more", res.SingleLost, res.SingleSent)
	}
}
