package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/filetransfer"
	"uavmw/internal/metrics"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// E14 measures the bearer plane end to end: a UAV and a ground station
// share two dissimilar datalinks — a fat, short-range, low-latency "wifi"
// pipe and a slow, long-range, robust "radio" modem — each a separate
// simulated network with its own bandwidth and latency. Policy routes by
// class: critical alarms pin to the robust radio, the bulk imagery
// transfer rides wifi, each bearer's bulk lane shaped just under its link
// rate. Mid-transfer the wifi link blacks out (the UAV flying out of
// range):
//
//   - the multi-bearer node detects the blackout within a failure
//     deadline (link monitor silence + unanswered probes), reroutes the
//     dead bearer's queues, and the transfer degrades gracefully to the
//     radio's shaped rate — alarms never notice, because they were on the
//     radio all along and the radio's own pacer keeps bulk from crowding
//     them;
//   - a single-bearer baseline on wifi alone loses alarms for the whole
//     blackout once the ARQ budget is spent, and its transfer stalls.
type E14Result struct {
	WifiBPS, RadioBPS          int64
	WifiShapedBPS, RadioShaped int64
	FileBytes                  int
	AlarmHz                    int
	BlackoutAfter              time.Duration

	// Unloaded is the alarm latency histogram with no transfer running
	// (alarms ride the radio per policy — the same link they hold through
	// the blackout).
	Unloaded *metrics.Histogram
	// Multi is the alarm latency histogram across the loaded multi-bearer
	// run, blackout included. MultiLost counts alarms that never arrived.
	Multi                *metrics.Histogram
	MultiLost, MultiSent int

	// HandoverDetect is how long after the blackout the UAV's link monitor
	// declared the wifi bearer down.
	HandoverDetect time.Duration
	// Transfer is the total fetch wall time across the handover.
	Transfer time.Duration
	// WifiBytes / RadioBytes split the UAV→GS wire bytes per bearer.
	WifiBytes, RadioBytes uint64
	// RecoveredBPS is the peak sustained (1s window) UAV→GS wire rate on
	// the radio after the blackout — the "bulk degraded to the surviving
	// link's shaped rate" figure.
	RecoveredBPS float64

	// Single-bearer baseline: alarms only, same blackout, wifi only.
	SingleSent, SingleLost int
	SingleBlackout         time.Duration

	// MetricsText is the UAV node's observability snapshot at the end of
	// the multi-bearer run (metrics.Snapshot.Text).
	MetricsText string
}

// e14ShapeFraction paces each bearer's bulk lane below its link rate. It
// sits lower than E13's 0.92 deliberately: here the same link also carries
// the critical alarms, the discovery digests of both bearers' heartbeat
// schedule, the subscription refreshes and the ARQ acks — shaping bulk to
// 92% of a 31 kB/s radio would leave that control traffic fighting for the
// last kilobyte and the link queue growing without bound.
const e14ShapeFraction = 0.85

// RunE14 runs the multi-bearer handover scenario and the single-bearer
// baseline. fileBytes sizes the bulk transfer; blackoutAfter is how far
// into the transfer the wifi link dies.
func RunE14(clk clock.Clock, fileBytes int, blackoutAfter time.Duration, seed int64) (*E14Result, error) {
	clk = clock.Or(clk)
	res := &E14Result{
		WifiBPS: 125_000, RadioBPS: 31_250,
		FileBytes: fileBytes, AlarmHz: 50,
		BlackoutAfter: blackoutAfter,
	}
	res.WifiShapedBPS = int64(float64(res.WifiBPS) * e14ShapeFraction)
	res.RadioShaped = int64(float64(res.RadioBPS) * e14ShapeFraction)
	if err := runE14Multi(clk, res, seed); err != nil {
		return nil, fmt.Errorf("e14 multi-bearer: %w", err)
	}
	if err := runE14Single(clk, res, seed+1); err != nil {
		return nil, fmt.Errorf("e14 single-bearer: %w", err)
	}
	return res, nil
}

// e14Link constrains both directions between uav and gs on one net.
func e14Link(net *transport.Bus, bps int64) {
	lc := transport.LinkConfig{BandwidthBPS: bps}
	net.SetLink("uav", "gs", lc)
	net.SetLink("gs", "uav", lc)
}

func runE14Multi(clk clock.Clock, res *E14Result, seed int64) error {
	// Two separate media: the bearers share nothing but the endpoints.
	wifi := transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: 5 * time.Millisecond, Clock: clk})
	defer wifi.Close()
	radio := transport.NewSimBus(transport.SimConfig{Seed: seed + 100, Latency: 40 * time.Millisecond, Clock: clk})
	defer radio.Close()
	e14Link(wifi, res.WifiBPS)
	e14Link(radio, res.RadioBPS)

	// Keep the bulk burst near one chunk: on the radio a single 1KB chunk
	// occupies the link for ~34ms, and every queued chunk beyond it is
	// latency an alarm could inherit.
	wifiProf := qos.BearerProfile{
		RateBPS: res.WifiBPS, Latency: 5 * time.Millisecond,
		Robustness: 1, BulkRateBPS: res.WifiShapedBPS, BulkBurst: 1100,
	}
	radioProf := qos.BearerProfile{
		RateBPS: res.RadioBPS, Latency: 40 * time.Millisecond,
		Robustness: 10, BulkRateBPS: res.RadioShaped, BulkBurst: 1100,
	}
	mk := func(id transport.NodeID) (*core.Node, error) {
		wep, err := wifi.Endpoint(id)
		if err != nil {
			return nil, err
		}
		rep, err := radio.Endpoint(id)
		if err != nil {
			return nil, err
		}
		return core.NewNode(
			core.WithClock(clk),
			core.WithBearer("wifi", wep, wifiProf),
			core.WithBearer("radio", rep, radioProf),
			core.WithAnnouncePeriod(50*time.Millisecond),
			// The bearer failure deadline: wifi silence past this marks the
			// bearer down and triggers the handover.
			core.WithFailureDeadline(250*time.Millisecond),
			core.WithDirectoryTTL(60*time.Second),
			core.WithARQ(protocol.WithTimeout(60*time.Millisecond), protocol.WithMaxRetries(8)),
		)
	}
	uav, err := mk("uav")
	if err != nil {
		return err
	}
	defer func() { _ = uav.Close() }()
	gs, err := mk("gs")
	if err != nil {
		return err
	}
	defer func() { _ = gs.Close() }()

	// Critical alarm topic, UAV → GS. Policy pins it to the radio. The
	// retransmission timeout must clear the radio's worst-case queueing
	// (latency + a chunk ahead at the link) or every queued-but-fine alarm
	// spawns duplicates that steal the link's headroom.
	alarms, err := offerAlarms(clk, uav, "e14.alarm", qos.EventQoS{
		Priority:   qos.PriorityCritical,
		AckTimeout: 500 * time.Millisecond,
		MaxRetries: 10,
	}, res.AlarmHz)
	if err != nil {
		return err
	}
	// Introduce both nodes now that the offers are registered — the
	// deterministic bootstrap: registrations ride the explicit announce
	// instead of waiting on a beacon tick that races the burst.
	uav.AnnounceNow()
	gs.AnnounceNow()
	if err := alarms.subscribe(gs); err != nil {
		return err
	}

	// Unloaded baseline: alarms alone, over the same policy (radio).
	alarms.publish(make(chan struct{}), time.Second)
	clk.Sleep(200 * time.Millisecond) // let the tail arrive
	res.Unloaded, _ = alarms.collect(1, alarms.count())
	loadedFrom := alarms.count() + 1
	wifi.ResetWireStats()
	radio.ResetWireStats()

	// The bulk transfer: the publisher waits on whichever bearer's bulk
	// lane it is routed to, and that bearer's token bucket sets its pace.
	data := make([]byte, res.FileBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	offer, err := uav.Files().Offer("e14.file", "bench", data, qos.TransferQoS{ChunkSize: 1024})
	if err != nil {
		return err
	}
	defer offer.Close()
	if err := waitProviders(clk, gs, kindFile, "e14.file", 1, 5*time.Second); err != nil {
		return err
	}

	// Sample the radio's UAV→GS wire bytes at 20ms so the recovered rate
	// can be read as a peak sustained window, immune to trailing query
	// idle time.
	type sample struct {
		at    time.Time
		bytes uint64
	}
	var (
		samplesMu sync.Mutex
		samples   []sample
	)
	samplerStop := make(chan struct{})
	samplerWG := clock.NewWaitGroup(clk)
	samplerWG.Add(1)
	clock.Go(clk, func() {
		defer samplerWG.Done()
		ticker := clk.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for ticker.Wait(samplerStop) {
			ls := radio.LinkStats("uav", "gs")
			samplesMu.Lock()
			samples = append(samples, sample{at: clk.Now(), bytes: ls.Bytes})
			samplesMu.Unlock()
		}
	})

	var (
		transfer time.Duration
		fetchErr error
	)
	fetched := clock.NewWaitGroup(clk)
	fetched.Add(1)
	start := clk.Now()
	clock.Go(clk, func() {
		defer fetched.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		got, _, err := gs.Files().Fetch(ctx, "e14.file", filetransfer.FetchOptions{})
		transfer = clk.Since(start)
		if err == nil && len(got) != res.FileBytes {
			err = fmt.Errorf("short fetch: %d of %d bytes", len(got), res.FileBytes)
		}
		fetchErr = err
	})

	alarmStop := make(chan struct{})
	alarmsDone := clock.NewWaitGroup(clk)
	alarmsDone.Add(1)
	clock.Go(clk, func() {
		defer alarmsDone.Done()
		alarms.publish(alarmStop, 120*time.Second)
	})

	// Mid-transfer blackout: the UAV flies out of wifi range.
	clk.Sleep(res.BlackoutAfter)
	wifi.Partition("uav", "gs")
	blackoutAt := clk.Now()

	// Time the handover detection on the UAV.
	var detect time.Duration
	detected := clock.NewWaitGroup(clk)
	detected.Add(1)
	detectStop := make(chan struct{})
	clock.Go(clk, func() {
		defer detected.Done()
		for {
			for _, rep := range uav.LinkReports() {
				if rep.Name == "wifi" && !rep.Healthy {
					detect = clk.Since(blackoutAt)
					return
				}
			}
			if clk.Since(blackoutAt) > 30*time.Second {
				detect = -1
				return
			}
			if !clock.SleepStop(clk, 5*time.Millisecond, detectStop) {
				return
			}
		}
	})

	fetched.Wait()
	if fetchErr != nil {
		close(alarmStop)
		close(samplerStop)
		close(detectStop)
		return fetchErr
	}
	res.Transfer = transfer
	close(alarmStop)
	alarmsDone.Wait()
	loadedTo := alarms.count()
	detected.Wait()
	res.HandoverDetect = detect
	close(detectStop)
	if res.HandoverDetect < 0 {
		return fmt.Errorf("wifi blackout never detected")
	}
	close(samplerStop)
	samplerWG.Wait()

	// Recovered throughput: the best sustained 1s window of radio wire
	// rate after the blackout.
	samplesMu.Lock()
	post := samples[:0]
	for _, s := range samples {
		if s.at.After(blackoutAt) {
			post = append(post, s)
		}
	}
	const window = time.Second
	for i := 0; i < len(post); i++ {
		for j := i + 1; j < len(post); j++ {
			if d := post[j].at.Sub(post[i].at); d >= window {
				if rate := float64(post[j].bytes-post[i].bytes) / d.Seconds(); rate > res.RecoveredBPS {
					res.RecoveredBPS = rate
				}
				break
			}
		}
	}
	samplesMu.Unlock()
	res.WifiBytes = wifi.LinkStats("uav", "gs").Bytes
	res.RadioBytes = radio.LinkStats("uav", "gs").Bytes

	// Let alarm stragglers drain before collecting.
	alarms.drain(15 * time.Second)
	res.Multi, res.MultiLost = alarms.collect(loadedFrom, loadedTo)
	res.MultiSent = loadedTo - loadedFrom + 1
	res.MetricsText = uav.MetricsSnapshot().Text()
	return nil
}

// runE14Single runs the baseline: the same alarm stream over wifi alone,
// with the same blackout. The ARQ budget is real but finite; once it is
// spent the alarms are gone — there is no second link to fail over to.
func runE14Single(clk clock.Clock, res *E14Result, seed int64) error {
	wifi := transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: 5 * time.Millisecond, Clock: clk})
	defer wifi.Close()
	e14Link(wifi, res.WifiBPS)
	const blackout = 1500 * time.Millisecond
	res.SingleBlackout = blackout

	mk := func(id transport.NodeID) (*core.Node, error) {
		return simNode(clk, wifi, id,
			core.WithAnnouncePeriod(50*time.Millisecond),
			// Liveness must survive the blackout or the subscription is
			// torn down; the point here is link loss, not peer loss.
			core.WithFailureDeadline(60*time.Second),
			core.WithDirectoryTTL(60*time.Second),
			core.WithARQ(protocol.WithTimeout(30*time.Millisecond), protocol.WithMaxRetries(4)))
	}
	uav, err := mk("uav")
	if err != nil {
		return err
	}
	defer func() { _ = uav.Close() }()
	gs, err := mk("gs")
	if err != nil {
		return err
	}
	defer func() { _ = gs.Close() }()

	alarms, err := offerAlarms(clk, uav, "e14.alarm", qos.EventQoS{Priority: qos.PriorityCritical}, res.AlarmHz)
	if err != nil {
		return err
	}
	// The same explicit introduction as the multi-bearer arm.
	uav.AnnounceNow()
	gs.AnnounceNow()
	if err := alarms.subscribe(gs); err != nil {
		return err
	}

	stop := make(chan struct{})
	done := clock.NewWaitGroup(clk)
	done.Add(1)
	clock.Go(clk, func() {
		defer done.Done()
		alarms.publish(stop, time.Hour) // until stop; the arm lasts seconds
	})

	clk.Sleep(400 * time.Millisecond)
	wifi.Partition("uav", "gs")
	clk.Sleep(blackout)
	wifi.Heal("uav", "gs")
	clk.Sleep(500 * time.Millisecond)
	close(stop)
	done.Wait()
	clk.Sleep(time.Second) // drain stragglers

	_, lost := alarms.collect(1, alarms.count())
	res.SingleSent = alarms.count()
	res.SingleLost = lost
	return nil
}
