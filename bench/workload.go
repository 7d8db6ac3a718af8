package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/core"
	"uavmw/internal/encoding"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
)

// announcePeriod is the one non-default node setting: it only shortens
// discovery, i.e. set-up (see nodeOptions for the two deadlines that
// would otherwise shrink with it).
const announcePeriod = 50 * time.Millisecond

// workload is one entry of the benchmark. build constructs the system
// under test from seeded inputs and returns once the first correct op has
// completed; that interval is setup_s.
type workload struct {
	name  string
	why   string
	build func(seed int64, tr *tracer) (instance, error)
	// stage describes the workload's messages to the isolated stage
	// timings (stages.go).
	stage func(rng *rand.Rand) stageInput
}

// instance is a built workload. run starts its generators, stop ends them
// and accounts every op still undelivered as failed; close tears the
// nodes down.
type instance interface {
	run()
	stop()
	close()
	base() *harness
}

var workloads = []workload{
	{
		name:  "telemetry_closed",
		why:   "smallest message (41 B variable sample) at saturation on the in-process bus: per-message CPU and allocations in codec, frame, egress, ingress and scheduler dominate, the transport does almost nothing",
		build: buildTelemetry,
		stage: telemetryStage,
	},
	{
		name:  "alarm_paced_udp",
		why:   "one reliable critical event in flight at a fixed 2000/s over real UDP loopback: batching gives nothing, so goroutine hand-offs, ARQ/ack/dedup and syscalls set the latency",
		build: buildAlarm,
		stage: alarmStage,
	},
	{
		name:  "rpc_closed",
		why:   "closed-loop request/response with nproc callers: two reliable sends and two scheduler hops per op, the heaviest allocator per op",
		build: buildRPC,
		stage: rpcStage,
	},
	{
		name:  "file_bulk",
		why:   "repeated 1 MiB file fetch: large frames, per-byte copying, the bulk lane and timer-driven NACK rounds dominate; wait-bound, and the bypass workload for codec work",
		build: buildFile,
		stage: fileStage,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// harness is the state every instance shares: its nodes and transports,
// op accounting, the latency recorder and generator lifecycle.
type harness struct {
	tr    *tracer // nil on untraced runs
	nodes []*core.Node
	trs   []transport.Transport
	sched []*scheduler.Pool // pools the benchmark created for tracing

	attempted atomic.Uint64
	ok        atomic.Uint64
	failed    atomic.Uint64
	lat       *latencies
	// genLate collects open-loop generator lateness (alarm_paced_udp).
	genLate *latencies
	// rounds reports file-transfer completion rounds so far (file_bulk).
	rounds func() uint64

	// boundary carries the measuring goroutine's probes to a generator
	// whose ops are long and sequential (file_bulk), to be taken between
	// two ops; nil for workloads whose ops are too short to matter.
	boundary chan func()

	reasonMu sync.Mutex
	reasons  map[string]uint64 // why ops failed, for the report

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newHarness(tr *tracer) *harness {
	return &harness{
		tr: tr, lat: newLatencies(), genLate: newLatencies(),
		reasons: make(map[string]uint64), stopCh: make(chan struct{}),
	}
}

func (h *harness) base() *harness { return h }

// good records one verified op and its latency.
func (h *harness) good(lat time.Duration) {
	h.ok.Add(1)
	h.lat.add(lat)
}

// fail records one failed op and why. Failures are counted and reported,
// never fatal.
func (h *harness) fail(reason string) { h.failN(reason, 1) }

func (h *harness) failN(reason string, n uint64) {
	if n == 0 {
		return
	}
	h.failed.Add(n)
	h.reasonMu.Lock()
	// Error texts carry sequence numbers and the like; a few distinct
	// ones are enough to say what went wrong.
	if _, known := h.reasons[reason]; known || len(h.reasons) < 8 {
		h.reasons[reason] += n
	}
	h.reasonMu.Unlock()
}

func (h *harness) failureReasons() map[string]uint64 {
	h.reasonMu.Lock()
	defer h.reasonMu.Unlock()
	out := make(map[string]uint64, len(h.reasons))
	for k, v := range h.reasons {
		out[k] = v
	}
	return out
}

// atBoundary is called by a boundary-aligned generator between two ops:
// it runs the probe the measuring goroutine is waiting to take, if any.
func (h *harness) atBoundary() {
	select {
	case take := <-h.boundary:
		take()
	default:
	}
}

// probe takes a counter snapshot — at the generator's next op boundary
// when the workload is boundary-aligned, at once otherwise. A 3 s window
// over 125 ms ops that started and ended mid-op would count the
// allocations and wire bytes of two partial ops and the completion of
// one: 4 % of noise per window that says nothing about the program.
func (h *harness) probe() probe {
	if h.boundary == nil {
		return takeProbe(h)
	}
	var p probe
	done := make(chan struct{})
	select {
	case h.boundary <- func() { p = takeProbe(h); close(done) }:
		<-done
	case <-time.After(fileTimeout + time.Second):
		p = takeProbe(h) // the generator is wedged in an op; do not hang with it
	}
	return p
}

// stopGenerators ends the generator goroutines and waits for them.
func (h *harness) stopGenerators() {
	close(h.stopCh)
	h.wg.Wait()
}

func (h *harness) close() {
	for _, n := range h.nodes {
		_ = n.Close() // teardown; nothing left to report to
	}
	for _, t := range h.trs {
		_ = t.Close()
	}
	for _, s := range h.sched {
		s.Stop()
	}
}

// wireBytes sums the bytes every node put on the medium: both directions,
// acks, discovery and repairs included.
func (h *harness) wireBytes() (bytes, packets uint64) {
	for _, t := range h.trs {
		s := t.Stats()
		bytes += s.BytesWire
		packets += s.PacketsWire
	}
	return
}

// nodeOptions are the options every benchmark node is built with: library
// defaults plus the short announce period, and under tracing the
// benchmark's decorators injected through the existing extension points.
func (h *harness) nodeOptions(t transport.Transport) []core.NodeOption {
	tr := h.tr
	opts := []core.NodeOption{
		core.WithAnnouncePeriod(announcePeriod),
		// The failure deadline and directory TTL derive from the announce
		// period (5× and 6×); keep the values a default node has, or a
		// 300 ms hiccup of a shared host expires every provider.
		core.WithFailureDeadline(5 * core.DefaultAnnouncePeriod),
		core.WithDirectoryTTL(6 * core.DefaultAnnouncePeriod),
	}
	if tr == nil {
		h.trs = append(h.trs, t)
		return append(opts, core.WithDatagram(t))
	}
	pool := scheduler.NewPool()
	h.sched = append(h.sched, pool)
	h.trs = append(h.trs, t)
	return append(opts,
		core.WithDatagram(tr.transport(t)),
		core.WithScheduler(tr.scheduler(pool)),
		core.WithEncoding(tr.encoding(encoding.Binary{})),
	)
}

func (h *harness) addNode(t transport.Transport) (*core.Node, error) {
	n, err := core.NewNode(h.nodeOptions(t)...)
	if err != nil {
		_ = t.Close()
		return nil, err
	}
	h.nodes = append(h.nodes, n)
	return n, nil
}

func (h *harness) addBusNode(bus *transport.Bus, id transport.NodeID) (*core.Node, error) {
	ep, err := bus.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return h.addNode(ep)
}

// discovered waits until every node lists every other node as a live
// peer. Every workload's set-up includes it, whether or not its first op
// happens to need the directory (a variable sample on the bus does not):
// set-up means the same thing on all four, and is governed by the
// discovery beacon rather than by a few milliseconds of CPU whose speed
// drifts with the host.
func (h *harness) discovered() error {
	return waitFor("mutual discovery", 5*time.Second, func() bool {
		for _, n := range h.nodes {
			if len(n.Peers()) < len(h.nodes)-1 {
				return false
			}
		}
		return true
	})
}

// closeOnError, deferred by a build function, tears down whatever was
// built when the build fails.
func (h *harness) closeOnError(err *error) {
	if *err != nil {
		h.close()
	}
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes. Set-up only; nothing in a measured window polls.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// procs is the generator parallelism: one per CPU, never more.
func procs() int { return runtime.GOMAXPROCS(0) }
