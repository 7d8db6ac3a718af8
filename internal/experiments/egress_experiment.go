package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/events"
	"uavmw/internal/filetransfer"
	"uavmw/internal/metrics"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// E13 measures transmit-side priority inversion on a bandwidth-constrained
// link and its fix by the egress plane. One UAV node runs a bulk file
// transfer to a ground station over a 1 Mb/s air-to-ground link while
// publishing PriorityCritical alarms at a fixed rate:
//
//   - flood mode (bulk unshaped) drains the transfer's egress lane at
//     transport speed, so the whole file lands in the link's queue: every
//     alarm waits behind seconds of chunk backlog — the receiver-side
//     priority scheduler never gets a chance to matter — and those whose
//     retransmissions run out meanwhile are lost.
//   - shaped mode sets one rate, the bearer's bulk token bucket, just under
//     the link rate; the lane's bulk window passes it back to the
//     publisher, so the link queue stays ~one chunk deep and alarms,
//     draining from the strict-priority critical lane, stay bounded near
//     the unloaded latency while bulk still moves at close to line rate.
//
// The baseline's flood arm (138 of 438 alarms lost, p99 14.8 s) is the same
// at any GOMAXPROCS because every chunk reaches the link. While a full bulk
// lane evicted instead of making the publisher wait, most of the file never
// did, how much was a race between publisher and drainer, and the arm read
// anything from 0 lost / 2.2 s (one core) to 438 lost / 15.6 s.
type E13Result struct {
	LinkBPS   int64
	FileBytes int
	AlarmHz   int

	// Unloaded is alarm latency with no transfer running (shaped
	// topology; the modes share it).
	Unloaded *metrics.Histogram
	// Flood / Shaped are alarm latencies concurrent with the transfer.
	Flood, Shaped *metrics.Histogram
	// FloodLost / ShapedLost count alarms published during the transfer
	// that never reached the subscriber (dropped subscription windows,
	// exhausted retries).
	FloodLost, ShapedLost int
	// FloodSent / ShapedSent count alarms published during the transfer.
	FloodSent, ShapedSent int

	// Transfer completion times and goodput (file bytes / completion).
	FloodTransfer, ShapedTransfer time.Duration
	FloodGoodput, ShapedGoodput   float64 // bytes/second

	// ShapedDropped counts bulk frames evicted from an egress lane during
	// the shaped run (zero: a bulk sender waits at its lane's window).
	ShapedDropped uint64
	// ShapedCoalesced counts frames that shared a batch datagram.
	ShapedCoalesced uint64
	// Retransmissions both nodes sent and duplicates both received, per
	// mode: on this loss-free link every duplicate is a spurious
	// retransmission.
	FloodRetransmits, FloodDuplicates   uint64
	ShapedRetransmits, ShapedDuplicates uint64

	// MetricsText is the UAV node's observability snapshot at the end of
	// the shaped run (metrics.Snapshot.Text).
	MetricsText string
}

// alarmStream is the PriorityCritical alarm topic, UAV → ground station,
// whose latency and loss E13 and E14 measure: the UAV's event offer, a
// fixed-rate publisher, and a ground-station subscription that correlates
// every arrival with its publication. Alarms carry a 1-based sequence as a
// uint32 payload.
type alarmStream struct {
	clk   clock.Clock
	topic string
	qos   qos.EventQoS
	hz    int
	pub   *events.Publisher

	mu       sync.Mutex
	sentAt   []time.Time
	arrivals []time.Time
}

func (a *alarmStream) nextSeq(now time.Time) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sentAt = append(a.sentAt, now)
	a.arrivals = append(a.arrivals, time.Time{})
	return uint32(len(a.sentAt))
}

func (a *alarmStream) arrived(seq uint32, now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i := int(seq) - 1; i >= 0 && i < len(a.arrivals) && a.arrivals[i].IsZero() {
		a.arrivals[i] = now
	}
}

// collect bins latencies for alarms with 1-based seq in [from, to].
func (a *alarmStream) collect(from, to int) (h *metrics.Histogram, lost int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	h = &metrics.Histogram{}
	for i := from - 1; i < to && i < len(a.sentAt); i++ {
		if a.arrivals[i].IsZero() {
			lost++
			continue
		}
		h.Observe(a.arrivals[i].Sub(a.sentAt[i]))
	}
	return h, lost
}

func (a *alarmStream) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.sentAt)
}

func (a *alarmStream) arrivedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, at := range a.arrivals {
		if !at.IsZero() {
			n++
		}
	}
	return n
}

// drain waits for straggling alarms: until arrivals have been stable for a
// second, or limit has passed.
func (a *alarmStream) drain(limit time.Duration) {
	clk := a.clk
	stableSince := clk.Now()
	last := a.arrivedCount()
	drainCap := clk.Now().Add(limit)
	for clk.Now().Before(drainCap) {
		clk.Sleep(100 * time.Millisecond)
		if n := a.arrivedCount(); n != last {
			last = n
			stableSince = clk.Now()
			continue
		}
		if clk.Since(stableSince) > time.Second {
			break
		}
	}
}

// offerAlarms registers the topic on the UAV.
func offerAlarms(clk clock.Clock, uav *core.Node, topic string, q qos.EventQoS, hz int) (*alarmStream, error) {
	pub, err := uav.Events().Offer(topic, "bench", presentation.Uint32(), q)
	if err != nil {
		return nil, err
	}
	return &alarmStream{clk: clk, topic: topic, qos: q, hz: hz, pub: pub}, nil
}

// subscribe attaches the ground station and waits until the publisher
// knows it.
func (a *alarmStream) subscribe(gs *core.Node) error {
	if err := waitProviders(a.clk, gs, kindEvent, a.topic, 1, 5*time.Second); err != nil {
		return err
	}
	if _, err := gs.Events().Subscribe(a.topic, presentation.Uint32(), a.qos,
		func(v any, _ transport.NodeID) { a.arrived(v.(uint32), a.clk.Now()) }); err != nil {
		return err
	}
	if !await(a.clk, 5*time.Second, 2*time.Millisecond, func() bool { return len(a.pub.Subscribers()) > 0 }) {
		return fmt.Errorf("alarm subscriber never registered")
	}
	return nil
}

// start fires alarms at the stream's rate until stop or until maxDur
// passes, from a goroutine per tick: a flooded link can hold one publish in
// ARQ for seconds and must not stall the tick cadence. stop ends the ticks
// and returns once no more alarm can be numbered; wait returns once the
// ticks have ended and every publish has returned.
func (a *alarmStream) start(maxDur time.Duration) (stop, wait func()) {
	ticker := a.clk.NewTicker(time.Second / time.Duration(a.hz))
	stopAt := a.clk.Now().Add(maxDur)
	ticking, publishing := clock.NewWaitGroup(a.clk), clock.NewWaitGroup(a.clk)
	ticking.Add(1)
	clock.Go(a.clk, func() {
		defer ticking.Done()
		defer ticker.Stop()
		for ticker.Wait() {
			now := a.clk.Now()
			if now.After(stopAt) {
				return
			}
			seq := a.nextSeq(now)
			publishing.Add(1)
			clock.Go(a.clk, func() {
				defer publishing.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = a.pub.Publish(ctx, seq) // late/lost alarms are the measurement
			})
		}
	})
	stop = func() {
		ticker.Stop()
		ticking.Wait()
	}
	wait = func() {
		ticking.Wait()
		publishing.Wait()
	}
	return stop, wait
}

// RunE13 runs both modes and returns the comparison. alarmHz is the
// critical-alarm publication rate; linkBPS the air-to-ground capacity.
func RunE13(clk clock.Clock, fileBytes int, linkBPS int64, alarmHz int, seed int64) (*E13Result, error) {
	clk = clock.Or(clk)
	res := &E13Result{LinkBPS: linkBPS, FileBytes: fileBytes, AlarmHz: alarmHz}

	// Shaped mode also measures the unloaded baseline (same topology).
	if err := runE13Phase(clk, res, true, seed); err != nil {
		return nil, fmt.Errorf("e13 shaped: %w", err)
	}
	if err := runE13Phase(clk, res, false, seed+1); err != nil {
		return nil, fmt.Errorf("e13 flood: %w", err)
	}
	return res, nil
}

// e13ShapeFraction paces bulk at this fraction of the link rate: just under
// capacity, so the link queue never grows while bulk still nears line rate.
const e13ShapeFraction = 0.92

func runE13Phase(clk clock.Clock, res *E13Result, shaped bool, seed int64) error {
	const latency = 15 * time.Millisecond
	net := transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: latency, Clock: clk})
	defer net.Close()

	// One constrained air-to-ground direction; everything else is fast.
	net.SetLink("uav", "gs", transport.LinkConfig{BandwidthBPS: res.LinkBPS})

	shapedRate := int64(float64(res.LinkBPS) * e13ShapeFraction)
	mk := func(id transport.NodeID, profile qos.BearerProfile) (*core.Node, error) {
		ep, err := net.Endpoint(id)
		if err != nil {
			return nil, err
		}
		return core.NewNode(
			core.WithClock(clk),
			core.WithBearer(core.DefaultBearer, ep, profile),
			core.WithAnnouncePeriod(100*time.Millisecond),
			// Under flood the constrained link delays heartbeats by
			// seconds; the failure detector must tolerate that.
			core.WithFailureDeadline(60*time.Second),
			// The flood's first alarms meet an 8 s queue before the UAV
			// has a round-trip sample for the ground station: from the
			// 20 ms start, 12 retries last 15 s, 8 only 2.25 s.
			core.WithARQ(protocol.WithMaxRetries(12)),
		)
	}
	var uavProfile qos.BearerProfile
	if shaped {
		uavProfile = qos.BearerProfile{
			BulkRateBPS: shapedRate,
			BulkBurst:   2048, // ≲ two chunks may ever sit ahead of an alarm
		}
	}
	uav, err := mk("uav", uavProfile)
	if err != nil {
		return err
	}
	defer func() { _ = uav.Close() }()
	gs, err := mk("gs", qos.BearerProfile{})
	if err != nil {
		return err
	}
	defer func() { _ = gs.Close() }()

	// Critical alarm topic, UAV → ground station.
	alarms, err := offerAlarms(clk, uav, "e13.alarm", qos.EventQoS{Priority: qos.PriorityCritical}, res.AlarmHz)
	if err != nil {
		return err
	}
	if err := alarms.subscribe(gs); err != nil {
		return err
	}

	// Unloaded baseline (shaped phase only; topology identical).
	if shaped {
		_, wait := alarms.start(1200 * time.Millisecond)
		wait()
		clk.Sleep(4 * latency) // let the tail arrive
		res.Unloaded, _ = alarms.collect(1, alarms.count())
	}
	loadedFrom := alarms.count() + 1

	// The bulk transfer.
	data := make([]byte, res.FileBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	offer, err := uav.Files().Offer("e13.file", "bench", data, qos.TransferQoS{ChunkSize: 1024})
	if err != nil {
		return err
	}
	defer offer.Close()
	if err := waitProviders(clk, gs, kindFile, "e13.file", 1, 5*time.Second); err != nil {
		return err
	}

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
		got, _, err := gs.Files().Fetch(ctx, "e13.file", filetransfer.FetchOptions{})
		transfer = clk.Since(start)
		if err == nil && len(got) != res.FileBytes {
			err = fmt.Errorf("short fetch: %d of %d bytes", len(got), res.FileBytes)
		}
		fetchErr = err
	})

	// Alarms run concurrently until the transfer completes (capped).
	stopAlarms, alarmsDone := alarms.start(60 * time.Second)
	fetched.Wait()
	stopAlarms()
	alarmsDone()
	if fetchErr != nil {
		return fetchErr
	}
	loadedTo := alarms.count()

	// Let stragglers drain: in flood mode alarms can trail the transfer by
	// the remaining link backlog. Wait until arrivals stabilize.
	alarms.drain(30 * time.Second)

	hist, lost := alarms.collect(loadedFrom, loadedTo)
	goodput := float64(res.FileBytes) / transfer.Seconds()
	retransmits, duplicates := arqCounts(uav, gs)
	if shaped {
		res.ShapedRetransmits, res.ShapedDuplicates = retransmits, duplicates
		res.Shaped, res.ShapedLost, res.ShapedSent = hist, lost, loadedTo-loadedFrom+1
		res.ShapedTransfer, res.ShapedGoodput = transfer, goodput
		reg := uav.Metrics()
		res.ShapedDropped = reg.SumCounters("egress", "dropped", metrics.L("class", qos.PriorityBulk.String()))
		res.ShapedCoalesced = reg.SumCounters("egress", "coalesced")
		res.MetricsText = uav.MetricsSnapshot().Text()
	} else {
		res.FloodRetransmits, res.FloodDuplicates = retransmits, duplicates
		res.Flood, res.FloodLost, res.FloodSent = hist, lost, loadedTo-loadedFrom+1
		res.FloodTransfer, res.FloodGoodput = transfer, goodput
	}
	return nil
}
