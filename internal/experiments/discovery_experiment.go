package experiments

import (
	"fmt"
	"sort"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// E12Result measures the discovery plane's steady-state wire cost and its
// registration-to-resolvable latency. The incremental protocol's claim:
// steady-state bytes per period scale with the node count (constant-size
// digests), not with the total record count, while the old full-state
// protocol re-broadcast every record every period.
type E12Result struct {
	Nodes          int
	RecordsPerNode int
	AnnouncePeriod time.Duration

	// SteadyBytesPerPeriod / SteadyPacketsPerPeriod are the measured
	// discovery wire cost per announce period once the fleet is
	// converged (heartbeat digests only).
	SteadyBytesPerPeriod   float64
	SteadyPacketsPerPeriod float64
	// BaselineBytesPerPeriod is the same fleet re-broadcasting its full
	// record set once per period — the pre-refactor protocol, measured
	// over the same wire.
	BaselineBytesPerPeriod float64
	// Converge is the latency from offering one new variable on a node
	// to it being resolvable on the farthest other node.
	Converge time.Duration
	// MetricsText is node n000's full observability snapshot
	// (metrics.Snapshot.Text) at measurement end. It is a plain string so
	// E12Result stays comparable: the virtual-time determinism test
	// requires two same-seed runs to produce byte-identical snapshots.
	MetricsText string
}

// e12Fn names one synthetic function registration.
func e12Fn(node transport.NodeID, i int) string {
	return fmt.Sprintf("fn.%s.%04d", node, i)
}

// buildE12Fleet spins up n converged nodes each offering records functions.
func buildE12Fleet(clk clock.Clock, net *transport.Bus, n, records int, period time.Duration) ([]*core.Node, error) {
	nodes := make([]*core.Node, n)
	for i := range nodes {
		// The ARQ retransmit timer must exceed the fleet's worst-case
		// processing backlog: an over-aggressive timer turns transient
		// queueing into a retransmission storm that feeds the queue.
		// Generous failure deadline: the benchmark drives the
		// simulated medium at tens of thousands of deliveries per
		// second on shared (possibly single-core) hosts, so wall-clock
		// liveness must tolerate simulation backlog; E12 measures wire
		// cost and convergence, not failover.
		// 60 periods: the staggered full-state bootstrap can starve a
		// node's beacon processing for tens of seconds on a single-core
		// host, and a liveness flap firing after that starvation would
		// purge catalogs mid-measurement and flood the wire with
		// re-syncs.
		failureDeadline := 3 * time.Second
		if d := 60 * period; d > failureDeadline {
			failureDeadline = d
		}
		var err error
		if nodes[i], err = simNode(clk, net, transport.NodeID(fmt.Sprintf("n%03d", i)),
			core.WithAnnouncePeriod(period),
			core.WithFailureDeadline(failureDeadline),
			core.WithARQ(protocol.WithMaxRetries(12)),
		); err != nil {
			return nil, err
		}
	}
	handler := func(any) (any, error) { return nil, nil }
	for _, node := range nodes {
		for i := 0; i < records; i++ {
			if err := node.RPC().Register(e12Fn(node.ID(), i), "bench", nil, nil,
				qos.CallQoS{}, handler); err != nil {
				return nil, err
			}
		}
	}
	// Bootstrap with full-state multicasts — what a container does after
	// bulk service registration (StartServices) — so a mass join costs
	// O(nodes) multicasts per round instead of O(nodes²) unicast snapshot
	// transfers. Staggered, as real fleets boot: a synchronized burst of
	// n full catalogs would monopolize the medium and starve the liveness
	// beacons behind it. Nodes some peer still lags on re-announce each
	// round; anti-entropy sync covers residual gaps.
	//
	// Converged: every node holds every other node's full catalog — its
	// cached log version matches the offerer's own current version (an
	// O(1) check per pair; burst registrations coalesce into batched
	// deltas, so the version count is not the registration count).
	stagger := period / 8
	if stagger < 25*time.Millisecond {
		stagger = 25 * time.Millisecond
	}
	deadline := clk.Now().Add(5 * time.Minute)
	lagging := append([]*core.Node(nil), nodes...)
	for {
		for _, node := range lagging {
			node.AnnounceNow()
			clk.Sleep(stagger)
		}
		settle := clk.Now().Add(10 * period)
		for {
			lagging = nil
			for _, b := range nodes {
				for _, a := range nodes {
					if a == b {
						continue
					}
					if _, ver, known := a.Directory().NodeVersion(b.ID()); !known || ver != b.OfferVersion() {
						lagging = append(lagging, b)
						break
					}
				}
			}
			if len(lagging) == 0 {
				return nodes, nil
			}
			if clk.Now().After(deadline) {
				return nil, fmt.Errorf("e12: fleet never converged (%d nodes still lagging)", len(lagging))
			}
			if clk.Now().After(settle) {
				break // next announce round for the stragglers
			}
			clk.Sleep(100 * time.Millisecond)
		}
	}
}

// e12Period picks the beacon period for a fleet size: larger fleets beacon
// less often, as real deployments do — and as the in-process simulation
// requires (64 containers, their schedulers and the bus medium all
// timeshare the host, possibly a single core) to stay within its delivery
// throughput. Wire cost per period and convergence-vs-period contrast are
// unaffected by the absolute period.
func e12Period(nodes int) time.Duration {
	if nodes >= 32 {
		return time.Second
	}
	return 50 * time.Millisecond
}

// RunE12 measures steady-state discovery wire cost (digest heartbeats vs
// full-state re-broadcast) and post-registration convergence latency on a
// fleet of nodes × recordsPerNode.
func RunE12(clk clock.Clock, nodes, recordsPerNode int, seed int64) (*E12Result, error) {
	clk = clock.Or(clk)
	period := e12Period(nodes)
	res := &E12Result{Nodes: nodes, RecordsPerNode: recordsPerNode, AnnouncePeriod: period}

	net := transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: 200 * time.Microsecond, Clock: clk})
	defer net.Close()
	fleet, err := buildE12Fleet(clk, net, nodes, recordsPerNode, period)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, n := range fleet {
			_ = n.Close()
		}
	}()

	// Let the tail of the registration storm (residual sync repairs, ARQ
	// retransmissions) drain before measuring.
	if err := e12Quiesce(clk, net, nodes, period, 3, 3*time.Minute); err != nil {
		return nil, fmt.Errorf("e12: %w", err)
	}
	// Steady state: only heartbeat digests should cross the wire.
	res.SteadyBytesPerPeriod, res.SteadyPacketsPerPeriod = e12Steady(clk, net, period, 6)

	// Convergence: a brand-new offer must be resolvable fleet-wide in
	// well under one announce period (one delta hop, no beacon wait).
	// Median of several probes: a single probe can land on a residual
	// post-bootstrap repair cycle and measure anti-entropy instead.
	var probes []time.Duration
	for p := 0; p < 3; p++ {
		took, err := e12Probe(clk, fleet, fmt.Sprintf("fn.fresh.%d", p))
		if err != nil {
			return nil, fmt.Errorf("e12: %w", err)
		}
		probes = append(probes, took)
		clk.Sleep(2 * period) // let any repair triggered by the probe settle
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
	res.Converge = probes[len(probes)/2]

	// Baseline last (it floods the simulated wire with megabytes of
	// full-state fragments, which would pollute the other measurements):
	// the old protocol's full-state broadcast, one per node per period,
	// measured over the same wire (AnnounceNow still emits the
	// pre-refactor MTAnnounce).
	const baselineRounds = 2
	net.ResetWireStats()
	for round := 0; round < baselineRounds; round++ {
		for _, n := range fleet {
			n.AnnounceNow()
		}
	}
	// Announcements drain through the asynchronous egress plane; flush
	// every node before reading the wire counters.
	for _, n := range fleet {
		n.FlushEgress()
	}
	// Flush returns when the egress queues are empty, not when the medium
	// has delivered what it accepted: the last packets — and any delta
	// repairs their arrival triggers — are still in flight one latency
	// horizon past the flush. Settle them on the virtual timeline before
	// reading the wire counters and the metrics snapshot, so repeated
	// runs observe identical totals.
	clk.Sleep(5 * time.Millisecond)
	_, bytes, _ := net.WireStats()
	res.BaselineBytesPerPeriod = float64(bytes) / baselineRounds
	res.MetricsText = fleet[0].MetricsSnapshot().Text()
	return res, nil
}

// E12ScaleResult is the large-fleet discovery scenario: a fleet size
// whose wall-clock cost is prohibitive under real time (the staggered
// bootstrap alone paces out minutes of announce periods) but cheap under
// a Virtual clock, where only the event count is paid for.
type E12ScaleResult struct {
	Nodes          int
	RecordsPerNode int
	AnnouncePeriod time.Duration

	// BootConverge is first boot to full-fleet catalog convergence
	// (every node holds every other node's catalog at current version).
	BootConverge time.Duration
	// Steady wire cost per announce period once converged.
	SteadyBytesPerPeriod   float64
	SteadyPacketsPerPeriod float64
	// Converge is fresh-offer registration to fleet-wide resolvability.
	Converge time.Duration
}

// RunE12Scale boots a fleet of nodes × recordsPerNode, waits for full
// catalog convergence, then measures steady heartbeat wire cost and
// fresh-offer propagation — E12's measurements at a fleet size (hundreds
// of nodes) only reachable under virtual time. It skips E12's full-state
// baseline flood: at this scale the point is convergence, not contrast.
func RunE12Scale(clk clock.Clock, nodes, recordsPerNode int, seed int64) (*E12ScaleResult, error) {
	clk = clock.Or(clk)
	period := e12Period(nodes)
	res := &E12ScaleResult{Nodes: nodes, RecordsPerNode: recordsPerNode, AnnouncePeriod: period}

	net := transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: 200 * time.Microsecond, Clock: clk})
	defer net.Close()
	start := clk.Now()
	fleet, err := buildE12Fleet(clk, net, nodes, recordsPerNode, period)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, n := range fleet {
			_ = n.Close()
		}
	}()
	res.BootConverge = clk.Since(start)

	// The bootstrap tail drains within a few periods once every catalog
	// version matches.
	if err := e12Quiesce(clk, net, nodes, period, 2, 10*time.Minute); err != nil {
		return nil, fmt.Errorf("e12 scale: %w", err)
	}
	res.SteadyBytesPerPeriod, res.SteadyPacketsPerPeriod = e12Steady(clk, net, period, 3)
	if res.Converge, err = e12Probe(clk, fleet, "fn.fresh.scale"); err != nil {
		return nil, fmt.Errorf("e12 scale: %w", err)
	}
	return res, nil
}

// e12Quiesce waits until `periods` consecutive announce periods each carry
// about the heartbeat digests alone (one per node, two packets of slack):
// the residual sync repairs and ARQ retransmissions of a registration
// storm have drained.
func e12Quiesce(clk clock.Clock, net *transport.Bus, nodes int, period time.Duration, periods int, limit time.Duration) error {
	deadline := clk.Now().Add(limit)
	for quiet := 0; quiet < periods; {
		net.ResetWireStats()
		clk.Sleep(period)
		pkts, _, _ := net.WireStats()
		if pkts <= uint64(nodes+2) {
			quiet++
		} else {
			quiet = 0
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("traffic never quiesced (%d pkts/period)", pkts)
		}
	}
	return nil
}

// e12Steady returns the wire bytes and packets per announce period over
// the next `periods` periods.
func e12Steady(clk clock.Clock, net *transport.Bus, period time.Duration, periods int) (bytesPer, packetsPer float64) {
	net.ResetWireStats()
	clk.Sleep(time.Duration(periods) * period)
	packets, bytes, _ := net.WireStats()
	return float64(bytes) / float64(periods), float64(packets) / float64(periods)
}

// e12Probe registers a fresh function on the fleet's first node and times
// how long the last node takes to resolve it.
func e12Probe(clk clock.Clock, fleet []*core.Node, name string) (time.Duration, error) {
	last := fleet[len(fleet)-1]
	start := clk.Now()
	if err := fleet[0].RPC().Register(name, "bench", nil, nil,
		qos.CallQoS{}, func(any) (any, error) { return nil, nil }); err != nil {
		return 0, err
	}
	if !await(clk, 60*time.Second, time.Millisecond, func() bool {
		return last.Directory().ProviderCount(naming.KindFunction, name) > 0
	}) {
		return 0, fmt.Errorf("fresh offer %s never converged", name)
	}
	return clk.Since(start), nil
}

// E12ChurnResult measures re-convergence after a partition heals: a node
// cut off from the fleet misses registrations, then pulls the full state
// through anti-entropy sync once the partition heals.
type E12ChurnResult struct {
	Nodes           int
	RecordsPerNode  int
	MissedOffers    int
	AnnouncePeriod  time.Duration
	HealConverge    time.Duration // heal -> partitioned node fully caught up
	SyncsUsed       uint64        // anti-entropy requests the healed node issued
	HeartbeatsAfter uint64        // heartbeats it took to detect the gap
}

// RunE12Churn partitions one node away, registers offers it cannot see,
// heals, and times full re-convergence of the survivor.
func RunE12Churn(clk clock.Clock, nodes, recordsPerNode, missedOffers int, seed int64) (*E12ChurnResult, error) {
	clk = clock.Or(clk)
	period := e12Period(nodes)
	res := &E12ChurnResult{
		Nodes: nodes, RecordsPerNode: recordsPerNode,
		MissedOffers: missedOffers, AnnouncePeriod: period,
	}
	net := transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: 200 * time.Microsecond, Clock: clk})
	defer net.Close()
	fleet, err := buildE12Fleet(clk, net, nodes, recordsPerNode, period)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, n := range fleet {
			_ = n.Close()
		}
	}()

	// Cut the last node off from the first (the registration source);
	// keep the failure detector quiet so the heal exercises version-gap
	// repair rather than a rejoin from scratch.
	src, cut := fleet[0], fleet[len(fleet)-1]
	net.Partition(src.ID(), cut.ID())
	handler := func(any) (any, error) { return nil, nil }
	for i := 0; i < missedOffers; i++ {
		if err := src.RPC().Register(fmt.Sprintf("fn.churn.%04d", i), "bench", nil, nil,
			qos.CallQoS{}, handler); err != nil {
			return nil, err
		}
	}
	// Wait until the (coalesced) registration deltas have actually been
	// broadcast and applied by a connected peer — otherwise the flush
	// could land after the heal and reach the cut node directly, and the
	// scenario would not exercise gap repair at all.
	// The full offer also carries one KindBearer record per datalink on
	// top of the registered resources.
	srcCount := recordsPerNode + missedOffers + len(src.Bearers())
	caughtUp := func(n *core.Node) func() bool {
		return func() bool {
			_, ver, known := n.Directory().NodeVersion(src.ID())
			return known && ver == src.OfferVersion() && n.Directory().NodeRecordCount(src.ID()) == srcCount
		}
	}
	if !await(clk, 30*time.Second, time.Millisecond, caughtUp(fleet[1])) {
		return nil, fmt.Errorf("e12 churn: partition-time offers never reached the survivors")
	}
	// What the healed node's discovery plane had counted before the heal.
	reg := cut.Metrics()
	syncsBefore := reg.SumCounters("discovery", "sync_requests_sent")
	heartbeatsBefore := reg.SumCounters("discovery", "heartbeats_received")

	net.Heal(src.ID(), cut.ID())
	healed := clk.Now()
	if !await(clk, 30*time.Second, 500*time.Microsecond, caughtUp(cut)) {
		return nil, fmt.Errorf("e12 churn: healed node never re-converged")
	}
	res.HealConverge = clk.Since(healed)
	res.SyncsUsed = reg.SumCounters("discovery", "sync_requests_sent") - syncsBefore
	res.HeartbeatsAfter = reg.SumCounters("discovery", "heartbeats_received") - heartbeatsBefore
	return res, nil
}
