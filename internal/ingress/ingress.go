// Package ingress implements the container's sharded receive pipeline: the
// stage between the transports' receive handlers (a UDP read loop, or on the
// in-process bus the sending container's own egress drainer) and the node's
// frame dispatcher.
//
// PR 8 drove the send path to zero allocations and flat syscall cost, but
// the receive path stayed serial: every arriving datagram was decoded,
// deduped, acked and routed on the transport's single handler goroutine per
// bearer, so a node's ingest rate was capped at one core regardless of
// GOMAXPROCS. The pipeline removes that cap while preserving the one
// ordering property the protocol layer requires — per-source FIFO:
//
//   - Arriving packets are hashed by *source node* (FNV-1a) onto one of N
//     shard workers. Everything one sender transmits lands on one shard in
//     arrival order, whatever bearer carried it, so ARQ acknowledgment,
//     dedup windows, GBN/reorder filters and fragment reassembly observe
//     exactly the sequence the sender produced. Distinct senders land on
//     distinct shards and decode, dedup and dispatch in parallel.
//   - Each shard owns a bounded ring with drop-oldest backpressure: a
//     stalled or flooded shard sheds its stalest packets first and never
//     blocks the transport's read loop — the same discipline the egress
//     lanes apply on the way out.
//   - Ownership rides refcounted pooled buffers (bufpool.Shared). A packet
//     whose transport provided an Owner (UDP's pooled receive buffer, or
//     on the bus the sender's own egress buffer) is retained, not copied;
//     one without (a simulated medium's shared copy, a plain bus Send) is
//     copied once into a pooled buffer. Either way the payload handed to
//     Deliver aliases pooled storage that the pipeline releases after the
//     callback returns, and the steady-state routed-frame path allocates
//     nothing.
//
// Under a clock.Virtual the pipeline defaults to one shard and one packet
// per drain, which serializes processing exactly like the pre-pipeline
// inline handler: same-seed virtual runs stay byte-identical, and every
// discrete event still completes before virtual time advances (workers are
// clock-registered). Multi-shard virtual configurations are valid — the
// per-source FIFO guarantee holds, only cross-source interleaving becomes
// scheduling-dependent — and the ordering tests pin that property.
package ingress

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/transport"
)

// Packet is one queued arrival: the bearer it came in on, its source, and a
// payload aliasing pooled storage. Owner holds the pipeline's reference on
// that storage; a Deliver callback that must keep the payload past its
// return Retains it (releasing when done), everything else just reads.
type Packet struct {
	Bearer  string
	From    transport.NodeID
	Payload []byte
	Owner   *bufpool.Shared
}

const (
	// DefaultRing bounds each shard's queue in packets; on overflow the
	// oldest queued packet for that shard drops. A shard's ring starts at
	// minRing slots and doubles up to this bound as its backlog demands.
	// One drain hands Deliver up to this many packets on a real clock and
	// one packet on a clock.Virtual.
	DefaultRing = 1024
	// minRing is a new shard's ring size: an idle node holds 1 KB per
	// shard, not a busy node's 64 KB.
	minRing = 16
	// maxShards caps the worker count against absurd configuration.
	maxShards = 256
)

// Config tunes a Pipeline.
type Config struct {
	// Shards is the worker count. Zero means GOMAXPROCS on a real clock
	// and 1 on a clock.Virtual (serial processing keeps same-seed virtual
	// runs byte-identical).
	Shards int
	// Clock is the time source the workers register with; nil means the
	// wall clock.
	Clock clock.Clock
	// Metrics receives the "ingress" families: per-shard queue-depth
	// gauges, drop and frame counters, and drain batch-size histograms.
	// Nil gets a private registry.
	Metrics *metrics.Registry
	// Deliver is the dispatch callback: one shard worker invokes it with a
	// batch of packets in per-source arrival order. Packets (and their
	// payloads) are valid only until it returns unless Owner is retained.
	// It runs on the shard's worker goroutine; batches for the same shard
	// never overlap, batches for distinct shards run concurrently.
	Deliver func(shard int, batch []Packet)
}

// shard is one worker's queue: a circular buffer guarded by mu that grows
// up to DefaultRing, drained by a dedicated goroutine parked on trig.
type shard struct {
	mu   sync.Mutex
	ring []Packet
	head int // index of the oldest queued packet
	n    int // queued packet count
	trig clock.Trigger

	batch []Packet // worker-local drain scratch, grown by append

	depth     *metrics.Gauge
	drops     *metrics.Counter
	frames    *metrics.Counter
	batchSize *metrics.Histogram
}

// Pipeline is the sharded receive pipeline. Construct with New; feed with
// Enqueue from any goroutine; Close stops the workers and releases whatever
// is still queued.
type Pipeline struct {
	shards   []*shard
	deliver  func(int, []Packet)
	clk      clock.Clock
	maxBatch int
	stop     chan struct{}
	wg       *clock.WaitGroup
	closed   atomic.Bool

	delivered atomic.Uint64
}

// New builds and starts a pipeline. Deliver must be non-nil.
func New(cfg Config) *Pipeline {
	if cfg.Deliver == nil {
		panic("ingress: Config.Deliver is required")
	}
	clk := clock.Or(cfg.Clock)
	_, virtual := clk.(*clock.Virtual)
	shards := cfg.Shards
	if shards <= 0 {
		if virtual {
			shards = 1
		} else {
			shards = runtime.GOMAXPROCS(0)
		}
	}
	if shards > maxShards {
		shards = maxShards
	}
	maxBatch := DefaultRing
	if virtual {
		maxBatch = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p := &Pipeline{
		deliver:  cfg.Deliver,
		clk:      clk,
		maxBatch: maxBatch,
		stop:     make(chan struct{}),
		wg:       clock.NewWaitGroup(clk),
	}
	reg.Gauge("ingress", "shards").Set(int64(shards))
	p.shards = make([]*shard, shards)
	for i := range p.shards {
		lb := metrics.L("shard", strconv.Itoa(i))
		p.shards[i] = &shard{
			ring:      make([]Packet, minRing),
			trig:      clock.NewTrigger(clk),
			depth:     reg.Gauge("ingress", "queue_depth", lb),
			drops:     reg.Counter("ingress", "drops", lb),
			frames:    reg.Counter("ingress", "frames", lb),
			batchSize: reg.Histogram("ingress", "batch_frames", lb),
		}
	}
	// Workers start only after every shard exists: they index the complete
	// slice from the first instruction.
	for i := range p.shards {
		idx := i
		p.wg.Add(1)
		clock.Go(clk, func() { p.worker(idx) })
	}
	return p
}

// Shards reports the worker count.
func (p *Pipeline) Shards() int { return len(p.shards) }

// ShardOf reports which shard carries traffic from the given source — the
// FNV-1a hash of the node identity modulo the shard count.
func (p *Pipeline) ShardOf(from transport.NodeID) int {
	return shardIndex(from, len(p.shards))
}

// ShardFor reports which of n shards traffic from id would hash onto —
// the same FNV-1a placement a Pipeline with n shards uses. Benchmarks use
// it to pick source identities that spread evenly.
func ShardFor(id transport.NodeID, n int) int { return shardIndex(id, n) }

func shardIndex(id transport.NodeID, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// Delivered reports the total packets handed to Deliver so far (tests and
// experiments quiesce on it).
func (p *Pipeline) Delivered() uint64 { return p.delivered.Load() }

// Enqueue hashes pkt by source onto its shard and queues it, taking
// ownership of the payload: a packet with an Owner is retained (zero-copy
// aliasing of the transport's receive buffer), one without is copied once
// into a pooled buffer. On a full shard ring the oldest queued packet
// drops. Safe from any goroutine; after Close packets are counted as drops
// and no reference is kept.
func (p *Pipeline) Enqueue(bearer string, pkt transport.Packet) {
	sh := p.shards[shardIndex(pkt.From, len(p.shards))]
	if p.closed.Load() {
		sh.drops.Inc()
		return
	}
	q := Packet{Bearer: bearer, From: pkt.From}
	if pkt.Owner != nil {
		q.Owner = pkt.Owner.Retain()
		q.Payload = pkt.Payload
	} else {
		buf := append(bufpool.Get(len(pkt.Payload)), pkt.Payload...)
		q.Owner = bufpool.Share(buf)
		q.Payload = buf
	}
	sh.mu.Lock()
	if p.closed.Load() {
		// Lost the race with Close after taking a reference: the final
		// sweep may already have run, so release here.
		sh.mu.Unlock()
		sh.drops.Inc()
		q.Owner.Release()
		return
	}
	var evicted *bufpool.Shared
	if sh.n == len(sh.ring) && len(sh.ring) < DefaultRing {
		sh.grow()
	}
	if sh.n == len(sh.ring) {
		evicted = sh.ring[sh.head].Owner
		sh.ring[sh.head] = Packet{}
		sh.head++
		if sh.head == len(sh.ring) {
			sh.head = 0
		}
		sh.n--
		sh.drops.Inc()
	}
	tail := sh.head + sh.n
	if tail >= len(sh.ring) {
		tail -= len(sh.ring)
	}
	sh.ring[tail] = q
	sh.n++
	sh.depth.Set(int64(sh.n))
	sh.mu.Unlock()
	sh.trig.Signal()
	// Released outside the shard lock: a final Release runs its buffer's
	// release hook, which may take its producer's locks.
	if evicted != nil {
		evicted.Release()
	}
}

// grow doubles a full ring, unwrapping it so the oldest packet sits at
// index 0 and arrival order survives. Called with mu held.
func (sh *shard) grow() {
	ring := make([]Packet, min(2*len(sh.ring), DefaultRing))
	k := copy(ring, sh.ring[sh.head:])
	copy(ring[k:], sh.ring[:sh.head])
	sh.ring = ring
	sh.head = 0
}

// take moves up to maxBatch queued packets into the shard's drain scratch,
// preserving arrival order, and reports the batch (empty when idle).
func (p *Pipeline) take(sh *shard) []Packet {
	sh.mu.Lock()
	n := sh.n
	if n > p.maxBatch {
		n = p.maxBatch
	}
	batch := sh.batch[:0]
	for i := 0; i < n; i++ {
		batch = append(batch, sh.ring[sh.head])
		sh.ring[sh.head] = Packet{}
		sh.head++
		if sh.head == len(sh.ring) {
			sh.head = 0
		}
	}
	sh.n -= n
	if sh.n == 0 {
		sh.head = 0
	}
	sh.depth.Set(int64(sh.n))
	sh.mu.Unlock()
	sh.batch = batch
	return batch
}

// worker drains one shard until Close: park on the trigger, hand each
// drained batch to Deliver, release the buffer references.
func (p *Pipeline) worker(idx int) {
	defer p.wg.Done()
	sh := p.shards[idx]
	for {
		live := sh.trig.Wait(-1, p.stop)
		for {
			batch := p.take(sh)
			if len(batch) == 0 {
				break
			}
			p.deliver(idx, batch)
			for i := range batch {
				batch[i].Owner.Release()
				batch[i] = Packet{}
			}
			sh.frames.Add(uint64(len(batch)))
			sh.batchSize.Observe(time.Duration(len(batch)))
			p.delivered.Add(uint64(len(batch)))
		}
		if !live {
			return // stop closed; Close sweeps anything enqueued after this
		}
	}
}

// Close stops the workers (each drains and delivers what was queued before
// the stop, mirroring the transports' pre-close delivery), then releases
// any packet that slipped in afterwards. Idempotent.
func (p *Pipeline) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.wg.Wait()
	for _, sh := range p.shards {
		sh.mu.Lock()
		for sh.n > 0 {
			q := sh.ring[sh.head]
			sh.ring[sh.head] = Packet{}
			sh.head++
			if sh.head == len(sh.ring) {
				sh.head = 0
			}
			sh.n--
			sh.drops.Inc()
			q.Owner.Release()
		}
		sh.head = 0
		sh.depth.Set(0)
		sh.mu.Unlock()
	}
}
