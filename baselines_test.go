package uavmw

// Baseline guards for the observability plane: re-run the E13, E14, E15,
// and E16 scenarios at the exact parameters that produced the committed
// testdata/bench_baseline snapshots and assert the headline metrics are
// unchanged within noise. E15 additionally pins the wire path's exact
// allocation counts — the zero-allocation contract as a replayable record,
// not just a package test — and E16 does the same for the ground gateway's
// fan-out path and its flat air-link cost. The metrics registry sits on the egress and
// ARQ hot paths, so a regression here means the instrumentation (or any
// later change) altered scheduling or wire behaviour, not just numbers.
//
// Both scenarios run entirely under virtual time, so "noise" is not OS
// jitter — the tolerances absorb intentional, reviewed shifts in event
// interleaving (e.g. an extra timer on a measured path), while anything
// structural (priority inversion back, handover undetected, lost alarms)
// lands far outside them. Skipped in -short: CI's race run stays fast
// and a dedicated non-short step executes these.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/experiments"
)

type benchBaseline struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed"`
	Quick      bool               `json:"quick"`
	Metrics    map[string]float64 `json:"metrics"`
}

func loadBaseline(t *testing.T, name string) benchBaseline {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "bench_baseline", name))
	if err != nil {
		t.Fatalf("baseline missing: %v", err)
	}
	var b benchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("baseline %s does not parse: %v", name, err)
	}
	if b.Quick {
		t.Fatalf("baseline %s was recorded with -quick; guards need the full-size run", name)
	}
	return b
}

// withinRel fails the test when got strays more than frac from the
// baseline value (relative), with a small absolute floor so near-zero
// baselines don't demand impossible precision.
func withinRel(t *testing.T, base benchBaseline, key string, got, frac, absFloor float64) {
	t.Helper()
	want, ok := base.Metrics[key]
	if !ok {
		t.Fatalf("baseline %s has no metric %q", base.Experiment, key)
	}
	tol := math.Max(math.Abs(want)*frac, absFloor)
	if diff := math.Abs(got - want); diff > tol {
		t.Errorf("%s %s = %.3f, baseline %.3f (|diff| %.3f > tolerance %.3f)",
			base.Experiment, key, got, want, diff, tol)
	}
}

// exact fails on any deviation — used for counts that the deterministic
// virtual run must reproduce exactly (losses, sent totals).
func exact(t *testing.T, base benchBaseline, key string, got float64) {
	t.Helper()
	withinRel(t, base, key, got, 0, 0)
}

func TestE13MatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E13 baseline run; executed by the dedicated CI step")
	}
	base := loadBaseline(t, "BENCH_E13.json")

	var res *experiments.E13Result
	if _, err := experiments.RunVirtual(func(clk clock.Clock) error {
		var err error
		res, err = experiments.RunE13(clk, 1<<20, 125_000, 50, base.Seed)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Virtual-time latencies shift only when event interleaving shifts;
	// 25% absorbs a reordered timer without passing a priority inversion
	// (flood p99 is ~140x shaped p99 in the baseline).
	withinRel(t, base, "unloaded_p99_us", float64(res.Unloaded.Percentile(99).Microseconds()), 0.25, 500)
	withinRel(t, base, "flood_p99_us", float64(res.Flood.Percentile(99).Microseconds()), 0.25, 500)
	withinRel(t, base, "shaped_p99_us", float64(res.Shaped.Percentile(99).Microseconds()), 0.25, 500)
	withinRel(t, base, "shaped_goodput_bps", res.ShapedGoodput, 0.10, 0)
	exact(t, base, "flood_lost", float64(res.FloodLost))
	exact(t, base, "shaped_lost", float64(res.ShapedLost))
	exact(t, base, "shaped_dropped", float64(res.ShapedDropped))
}

func TestE15MatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E15 baseline run; executed by the dedicated CI step")
	}
	base := loadBaseline(t, "BENCH_E15.json")

	var res *experiments.E15Result
	if _, err := experiments.RunVirtual(func(clk clock.Clock) error {
		var err error
		// UDP loopback stays off: its rates are host wall-clock, not
		// replayable. The codec alloc counts and the netsim wire figures
		// are the deterministic core this guard pins.
		res, err = experiments.RunE15(clk, 400, false, base.Seed)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	codec := map[string]experiments.E15CodecPoint{}
	for _, c := range res.Codec {
		codec[c.Name] = c
	}
	for _, name := range []string{"small", "mtu", "batch"} {
		c, ok := codec[name]
		if !ok {
			t.Fatalf("e15 codec point %q missing", name)
		}
		// Alloc counts are exact: AllocsPerRun on a deterministic op.
		// The tiny absolute floor only absorbs float formatting, not an
		// extra allocation (1 alloc on the batch point moves the
		// per-frame figure by 1/16 = 0.0625).
		withinRel(t, base, "codec_"+name+"_pooled_allocs", c.PooledAllocsPerFrame, 0, 0.02)
		exact(t, base, "codec_"+name+"_wire_b", c.WireBytesPerFrame)
		// Rates are host wall-clock: reported, never asserted.
		t.Logf("e15 codec_%s_pooled_fps = %.0f (baseline host: %.0f)",
			name, c.PooledFramesPerSec, base.Metrics["codec_"+name+"_pooled_fps"])
	}
	exact(t, base, "netsim_samples", float64(res.Netsim.Samples))
	exact(t, base, "netsim_delivered", float64(res.Netsim.Delivered))
	exact(t, base, "netsim_wire_packets", float64(res.Netsim.WirePackets))
	exact(t, base, "netsim_wire_bytes", float64(res.Netsim.WireBytes))
}

func TestE16MatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E16 baseline run; executed by the dedicated CI step")
	}
	base := loadBaseline(t, "BENCH_E16.json")

	var res *experiments.E16Result
	if _, err := experiments.RunVirtual(func(clk clock.Clock) error {
		var err error
		res, err = experiments.RunE16(clk, []int{1000, 10_000, 100_000}, 20, base.Seed)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	if len(res.Sweep) != 3 {
		t.Fatalf("e16 sweep has %d points, want 3", len(res.Sweep))
	}
	for _, pt := range res.Sweep {
		p := "sweep_" + strconv.Itoa(pt.Clients) + "_"
		// Delivery counts are exact: every client hears every sample or the
		// shared-subscription plumbing broke.
		exact(t, base, p+"clients", float64(pt.Clients))
		exact(t, base, p+"samples", float64(pt.Samples))
		exact(t, base, p+"delivered", float64(pt.Delivered))
		// Air-side cost may shift by a heartbeat packet when warm-up
		// duration moves the discovery phase; it must not shift by a
		// per-client resubscription (that lands orders of magnitude out).
		withinRel(t, base, p+"air_bytes", float64(pt.AirBytes), 0.25, 200)
		withinRel(t, base, p+"air_bytes_per_sample", pt.AirBytesPerSample, 0.25, 10)
		// Pushed bytes drift only with seq-number digit width; a re-encode
		// per client would multiply this.
		withinRel(t, base, p+"client_bytes", float64(pt.ClientBytes), 0.05, 0)
	}
	// The tentpole claim: 100x the audience, same air link.
	withinRel(t, base, "air_flatness_ratio", res.AirFlatnessRatio, 0, 0.5)

	// Absolute allocs/sample absorb ±1 background allocation; the marginal
	// per-client figure is the contract and pins at zero.
	withinRel(t, base, "alloc_small_per_sample", res.Alloc.SmallPerSample, 0, 1)
	withinRel(t, base, "alloc_big_per_sample", res.Alloc.BigPerSample, 0, 1)
	withinRel(t, base, "alloc_per_client_marginal", res.Alloc.PerClientMarginal, 0, 0.01)

	// Every deliberately stalled consumer is evicted, none of the healthy.
	exact(t, base, "slow_evicted", float64(res.Slow.Evicted))
	exact(t, base, "slow_stalled", float64(res.Slow.StalledClients))
	exact(t, base, "slow_healthy", float64(res.Slow.HealthyClients))
	// Latencies are host wall-clock: the guard only catches healthy
	// deliveries queueing behind a stalled socket, not scheduler noise.
	if res.Slow.StalledP99Ms > 2*res.Slow.BaselineP99Ms && res.Slow.StalledP99Ms > res.Slow.BaselineP99Ms+5 {
		t.Errorf("healthy p99 %.2fms with stalled consumers vs %.2fms baseline (>2x)",
			res.Slow.StalledP99Ms, res.Slow.BaselineP99Ms)
	}
}

func TestE17MatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E17 baseline run; executed by the dedicated CI step")
	}
	base := loadBaseline(t, "BENCH_E17.json")

	// The flood sweep is wall-clock and only demonstrates parallel drain
	// when the host has cores to drain on: rerun it — and enforce the
	// scaling claim — on 8-way-or-wider hosts, skip it elsewhere. The
	// deterministic core this guard pins everywhere is the allocation
	// contract and the netsim wire figures.
	var scalingDur time.Duration
	if runtime.GOMAXPROCS(0) >= 8 {
		scalingDur = 200 * time.Millisecond
	}
	var res *experiments.E17Result
	if _, err := experiments.RunVirtual(func(clk clock.Clock) error {
		var err error
		res, err = experiments.RunE17(clk, 300, scalingDur, base.Seed)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Allocs per routed frame are exact zeros: AllocsPerRun through the full
	// receive path (transport handler → shard ring → worker decode → dedup →
	// dispatch, plus pooled ack encode and egress enqueue on the acked
	// variant). The tiny floor absorbs float formatting, not an allocation.
	withinRel(t, base, "alloc_owned_per_frame", res.Alloc.OwnedPerFrame, 0, 0.02)
	withinRel(t, base, "alloc_copy_per_frame", res.Alloc.CopyPerFrame, 0, 0.02)
	withinRel(t, base, "alloc_acked_per_frame", res.Alloc.AckedPerFrame, 0, 0.02)

	exact(t, base, "netsim_senders", float64(res.Netsim.Senders))
	exact(t, base, "netsim_samples", float64(res.Netsim.Samples))
	exact(t, base, "netsim_delivered", float64(res.Netsim.Delivered))
	exact(t, base, "netsim_wire_packets", float64(res.Netsim.WirePackets))
	exact(t, base, "netsim_wire_bytes", float64(res.Netsim.WireBytes))

	if scalingDur > 0 {
		if ratio := res.ScalingRatio(4, 1); ratio < 2 {
			t.Errorf("4-shard ingest ran at %.2fx the 1-shard rate, want >= 2x on a %d-core host",
				ratio, runtime.GOMAXPROCS(0))
		}
	}
}

func TestE14MatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E14 baseline run; executed by the dedicated CI step")
	}
	base := loadBaseline(t, "BENCH_E14.json")

	var res *experiments.E14Result
	if _, err := experiments.RunVirtual(func(clk clock.Clock) error {
		var err error
		res, err = experiments.RunE14(clk, 256*1024, 800*time.Millisecond, base.Seed)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	withinRel(t, base, "multi_p99_us", float64(res.Multi.Percentile(99).Microseconds()), 0.25, 500)
	withinRel(t, base, "handover_detect_ms", float64(res.HandoverDetect)/float64(time.Millisecond), 0.25, 10)
	withinRel(t, base, "recovered_bps", res.RecoveredBPS, 0.10, 0)
	withinRel(t, base, "transfer_ms", float64(res.Transfer)/float64(time.Millisecond), 0.10, 0)
	// Wire split drifts a little when retransmission timing moves; 10%
	// still catches traffic landing on the wrong bearer.
	withinRel(t, base, "wifi_bytes", float64(res.WifiBytes), 0.10, 0)
	withinRel(t, base, "radio_bytes", float64(res.RadioBytes), 0.10, 0)
	exact(t, base, "multi_lost", float64(res.MultiLost))
	exact(t, base, "multi_sent", float64(res.MultiSent))
	// The single-bearer arm's loss count rides ARQ retry phase against
	// the blackout edges, and host load shifts which edge alarms still
	// recover (the harness's clock.Blocking waits advance virtual time by
	// wall-clock-dependent amounts — observed 71 idle, 77–83 loaded, on
	// this change's base commit too). The dual-bearer gate above stays
	// exact; the lossy baseline gets slack for that scheduling jitter.
	withinRel(t, base, "single_lost", float64(res.SingleLost), 0.25, 8)
	exact(t, base, "single_sent", float64(res.SingleSent))
}
