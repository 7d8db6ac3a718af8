// Package core implements the paper's primary contribution: the service
// container (§3). One container runs per network node; it executes and
// manages services, handles name management through a proxy cache, owns all
// network access on the node, and provides the four communication
// primitives (§4) to its services through the Context API.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/discovery"
	"uavmw/internal/egress"
	"uavmw/internal/encoding"
	"uavmw/internal/events"
	"uavmw/internal/fabric"
	"uavmw/internal/filetransfer"
	"uavmw/internal/ingress"
	"uavmw/internal/link"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/rpc"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
	"uavmw/internal/variables"
)

// Errors.
var (
	// ErrNodeClosed reports use of a closed node.
	ErrNodeClosed = errors.New("node closed")
	// ErrNoDatagram reports construction without a datagram transport.
	ErrNoDatagram = errors.New("datagram transport required")
	// ErrBadBearer reports an invalid bearer set: duplicate names, an
	// empty name, or transports that disagree on the node identity.
	ErrBadBearer = errors.New("invalid bearer configuration")
)

// DefaultBearer names the bearer WithDatagram registers — single-datalink
// nodes never see bearer names unless they ask.
const DefaultBearer = egress.DefaultBearer

// Wire-path error codes (§ observability). Every failure the container
// would otherwise drop silently constructs through one of these, so the
// registry's "core.errors" family counts it by category the moment it
// happens.
var (
	codeFrameDecode    = uerr.Register("core.frame_decode", uerr.CatDecode)
	codeBatchDecode    = uerr.Register("core.batch_decode", uerr.CatDecode)
	codeAckDecode      = uerr.Register("core.ack_decode", uerr.CatDecode)
	codeBatchNested    = uerr.Register("core.batch_nested", uerr.CatProtocol)
	codeFragReassembly = uerr.Register("core.fragment_reassembly", uerr.CatDecode)
	codeAckSend        = uerr.Register("core.ack_send", uerr.CatSend)
	codeProbeSend      = uerr.Register("core.probe_send", uerr.CatSend)
	codeByeSend        = uerr.Register("core.bye_send", uerr.CatSend)
)

// Node is one service container. Construct with NewNode, then register
// services (AddService) or use the primitive APIs directly via Context.
type Node struct {
	id  transport.NodeID
	clk clock.Clock
	// links is the bearer plane: the node's datagram links in registration
	// order (the first is the default), their monitors, and the per-frame
	// bearer selection the egress plane consults.
	links *link.Plane

	enc      encoding.Encoding
	sched    scheduler.Scheduler
	ownSched bool
	dir      *naming.Directory
	arq      *protocol.ARQ
	egress   *egress.Plane
	// ingress is the sharded receive pipeline between the bearer
	// transports and handleFrame: packets hash by source onto shards
	// (preserving per-source FIFO), shards decode and dispatch in
	// parallel; acks holds each shard's acks owed at the end of its drain
	// batch. Only frames from peers enter it: a frame addressed to this
	// node is routed synchronously by transmit.
	ingress *ingress.Pipeline
	acks    []ackQueue
	seq     atomic.Uint64
	heldMu  sync.Mutex
	heldOut ackQueue // sendHeldAcks' scratch

	// metrics is the node's unified registry: every plane's counter
	// families and typed-error families land here, and MetricsSnapshot
	// exports them all (§ observability).
	metrics *metrics.Registry
	// duplicates counts the ack-required frames whose seq the dedup window
	// already held: on a loss-free link, one per spurious retransmission.
	duplicates *metrics.Counter

	vars      *variables.Engine
	events    *events.Engine
	rpc       *rpc.Engine
	files     *filetransfer.Engine
	discovery *discovery.Engine

	budget ResourceBudget

	mu           sync.Mutex
	services     map[string]*ServiceRuntime
	startOrder   []string
	devices      map[string]string // device -> owning service
	peerFailedCB []func(transport.NodeID)
	closed       bool
}

// nodeConfig collects option state before construction.
type nodeConfig struct {
	bearers         []*link.Bearer
	enc             encoding.Encoding
	sched           scheduler.Scheduler
	announcePeriod  time.Duration
	failureDeadline time.Duration
	arqOpts         []protocol.ARQOption
	budget          ResourceBudget
	ingressShards   int
	clk             clock.Clock
}

// NodeOption configures a Node.
type NodeOption func(*nodeConfig)

// WithDatagram sets a datagram transport (UDP, bus) as the node's
// default bearer — the single-datalink configuration. It is shorthand for
// WithBearer(DefaultBearer, t, qos.BearerProfile{}).
func WithDatagram(t transport.Transport) NodeOption {
	return WithBearer(DefaultBearer, t, qos.BearerProfile{})
}

// WithBearer registers one named datalink (bearer) the node transmits
// over. A node may carry several dissimilar bearers at once — short-range
// high-bandwidth WiFi, a long-range radio modem, satcom — each wrapped in
// a link monitor and given its own egress lanes and a bulk pacer shaped by
// the profile (BulkRateBPS, BulkBurst); the profiles alone order the
// bearers per traffic class (qos.BearerOrder), so each class rides its
// preferred healthy bearer and fails over within a failure-deadline when
// that bearer blacks out. Bearer names are fleet-wide vocabulary:
// discovery advertises them, and peers match them against their own bearer
// set, so give the same physical network the same name on every node.
// The first bearer registered is the default. All bearer transports must
// agree on the node identity.
func WithBearer(name string, t transport.Transport, profile qos.BearerProfile) NodeOption {
	return func(c *nodeConfig) {
		c.bearers = append(c.bearers, &link.Bearer{Name: name, Transport: t, Profile: profile})
	}
}

// WithEncoding overrides the default binary payload encoding.
func WithEncoding(e encoding.Encoding) NodeOption {
	return func(c *nodeConfig) { c.enc = e }
}

// WithScheduler plugs a custom scheduler; the node stops it on Close only
// if it created the default one.
func WithScheduler(s scheduler.Scheduler) NodeOption {
	return func(c *nodeConfig) { c.sched = s }
}

// WithAnnouncePeriod sets the discovery announce/heartbeat period.
func WithAnnouncePeriod(d time.Duration) NodeOption {
	return func(c *nodeConfig) {
		if d > 0 {
			c.announcePeriod = d
		}
	}
}

// WithFailureDeadline sets how long a silent peer survives, with its
// cached offer, before failover.
func WithFailureDeadline(d time.Duration) NodeOption {
	return func(c *nodeConfig) {
		if d > 0 {
			c.failureDeadline = d
		}
	}
}

// WithDirectoryTTL has no effect: a peer's cached offer lives as long as
// the peer does, until it is silent past the failure deadline.
//
// Deprecated: set WithFailureDeadline.
func WithDirectoryTTL(time.Duration) NodeOption {
	return func(*nodeConfig) {}
}

// WithARQ forwards tuning options to the reliable-datagram engine.
func WithARQ(opts ...protocol.ARQOption) NodeOption {
	return func(c *nodeConfig) { c.arqOpts = append(c.arqOpts, opts...) }
}

// WithResourceBudget sets the node's admission-control budget (§3 resource
// management).
func WithResourceBudget(b ResourceBudget) NodeOption {
	return func(c *nodeConfig) { c.budget = b }
}

// WithIngressShards pins the receive pipeline's worker count. Zero (the
// default) sizes it automatically: GOMAXPROCS on a real clock, one shard
// under a clock.Virtual so same-seed virtual runs stay byte-identical.
// Traffic is sharded by source node, so per-source frame order is
// preserved at any shard count.
func WithIngressShards(n int) NodeOption {
	return func(c *nodeConfig) { c.ingressShards = n }
}

// WithClock injects the node's time source (nil means the wall clock).
// Every time-driven part of the container rides it — discovery beacons,
// liveness sweeps, link monitors, ARQ retransmission timers, egress pacing
// and the default scheduler — so a node built on a clock.Virtual runs its
// full protocol behaviour in discrete-event time.
func WithClock(c clock.Clock) NodeOption {
	return func(cfg *nodeConfig) { cfg.clk = c }
}

// DefaultAnnouncePeriod balances discovery latency against chatter.
const DefaultAnnouncePeriod = 200 * time.Millisecond

// epochSalt disambiguates node epochs minted at the same instant — under a
// virtual clock every node in a process reads the identical Now.
var epochSalt atomic.Uint64

// NewNode builds and starts a container on the given transports.
func NewNode(opts ...NodeOption) (*Node, error) {
	cfg := nodeConfig{
		enc:            encoding.Binary{},
		announcePeriod: DefaultAnnouncePeriod,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.bearers) == 0 {
		return nil, fmt.Errorf("core: %w", ErrNoDatagram)
	}
	id := cfg.bearers[0].Transport.Node()
	seen := make(map[string]bool, len(cfg.bearers))
	for _, b := range cfg.bearers {
		if b.Name == "" {
			return nil, fmt.Errorf("core: empty bearer name: %w", ErrBadBearer)
		}
		if b.Transport == nil {
			return nil, fmt.Errorf("core: bearer %q has no transport: %w", b.Name, ErrBadBearer)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("core: duplicate bearer %q: %w", b.Name, ErrBadBearer)
		}
		seen[b.Name] = true
		if b.Transport.Node() != id {
			return nil, fmt.Errorf("core: bearer %q is node %q, want %q: %w",
				b.Name, b.Transport.Node(), id, ErrBadBearer)
		}
	}
	if cfg.failureDeadline <= 0 {
		cfg.failureDeadline = 5 * cfg.announcePeriod
	}
	clk := clock.Or(cfg.clk)
	n := &Node{
		id:       id,
		clk:      clk,
		enc:      cfg.enc,
		sched:    cfg.sched,
		dir:      naming.NewDirectory(cfg.failureDeadline),
		metrics:  metrics.NewRegistry(),
		budget:   cfg.budget,
		services: make(map[string]*ServiceRuntime),
		devices:  make(map[string]string),
	}
	if n.sched == nil {
		n.sched = scheduler.NewPool(scheduler.WithPoolClock(clk))
		n.ownSched = true
	}
	n.egress = egress.NewPlane()
	n.links = link.NewPlane(link.PlaneConfig{
		Self:      id,
		Clock:     clk,
		Directory: n.dir,
		Deadline:  cfg.failureDeadline,
		Period:    cfg.announcePeriod,
		Send:      n.sendOnBearer,
		Reroute:   func(bearer string) { n.egress.Reroute(bearer) },
	}, cfg.bearers)
	for _, b := range cfg.bearers {
		// All datagram transmission drains through the egress plane: strict
		// per-(bearer, destination) priority lanes, coalesced small frames
		// within the node's MTU, and a bulk pacer per bearer shaped by its
		// profile, so a 1 Mb/s WiFi pipe and a 250 kb/s radio modem are
		// shaped independently.
		bcfg := egress.Config{
			BulkRateBPS: b.Profile.BulkRateBPS,
			BulkBurst:   b.Profile.BulkBurst,
			Clock:       clk,
			Metrics:     n.metrics,
		}
		if err := n.egress.AddBearer(b.Name, b.Transport, bcfg); err != nil {
			n.egress.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if len(cfg.bearers) > 1 {
		// Single-bearer nodes keep the static default route; the selector
		// (policy order × link health × peer reachability) only runs when
		// there is a choice to make.
		n.egress.SetSelector(n.links)
	}
	// ARQ transmissions, first and repeated, enter the plane in the lane of
	// the frame they carry (the priority rides in the encoded header); the
	// plane queues its own copy and ARQ keeps the datagram.
	n.arq = protocol.NewARQ(func(to transport.NodeID, frame []byte) error {
		return n.egress.Enqueue(to, protocol.PeekPriority(frame), frame)
	}, append([]protocol.ARQOption{protocol.WithClock(clk), protocol.WithMetrics(n.metrics)}, cfg.arqOpts...)...)
	n.arq.OnAcksDue(n.sendHeldAcks)
	n.duplicates = n.metrics.Counter("arq", "duplicates")

	n.vars = variables.New(n)
	n.events = events.New(n)
	n.rpc = rpc.New(n)
	n.files = filetransfer.New(n)
	n.discovery = discovery.New(n, discovery.Config{
		Epoch:  uint64(clk.Now().UnixNano()) + epochSalt.Add(1),
		Period: cfg.announcePeriod,
		Offer:  n.offer,
		Load:   n.defaultLoad,
		// A peer's applied offer re-derives its bearer reachability and
		// binds the event subscriptions it now serves.
		OfferApplied: func(peer transport.NodeID) {
			n.links.PeerChanged(peer)
			n.events.PeerOffered(peer)
		},
		PeerGone: n.peerGone,
		// Per period, after the beacon and the peer sweep: the bearer
		// sweep, then the event engine's subscription lease.
		Tick: func() {
			n.links.Sweep(n.discovery.Peers)
			n.events.Refresh()
		},
	})

	// The sharded receive pipeline sits between the bearer transports and
	// the dispatcher. A shard's ack coalescing is touched only by that
	// shard's worker.
	n.ingress = ingress.New(ingress.Config{
		Shards:  cfg.ingressShards,
		Clock:   clk,
		Metrics: n.metrics,
		Deliver: n.deliverBatch,
	})
	n.acks = make([]ackQueue, n.ingress.Shards())

	// Each bearer's receive path is tagged with the bearer name: the link
	// monitor sees every arrival, and replies that must ride the arrival
	// link (ARQ acks, probe echoes) know where to go. The handler never
	// blocks — it stamps the arrival and pushes onto the bounded ingress
	// ring — because on the in-process bus it runs on the sender's drainer.
	for _, b := range cfg.bearers {
		b := b
		b.Transport.SetHandler(func(pkt transport.Packet) {
			b.Monitor.SawRx(pkt.From, n.clk.Now())
			n.ingress.Enqueue(b.Name, pkt)
		})
	}
	// Discovery rides every bearer: digests and deltas go out on each live
	// link and receivers dedup the copies, so peer liveness survives any
	// single bearer's blackout.
	for _, b := range cfg.bearers {
		if err := b.Transport.Join(fabric.DiscoveryGroup); err != nil {
			n.ingress.Close()
			n.egress.Close()
			return nil, fmt.Errorf("core: join discovery on %q: %w", b.Name, err)
		}
	}
	n.discovery.Start()
	return n, nil
}

// defaultLoad derives load from the scheduler backlog when the default pool
// is in use.
func (n *Node) defaultLoad() float64 {
	if pool, ok := n.sched.(*scheduler.Pool); ok {
		return float64(pool.Backlog()) / float64(scheduler.DefaultQueueCap)
	}
	return 0
}

// ID returns the node identity.
func (n *Node) ID() transport.NodeID { return n.id }

// Clock implements fabric.Clocked: the node's time source, wall or virtual.
func (n *Node) Clock() clock.Clock { return n.clk }

// Directory implements fabric.Fabric.
func (n *Node) Directory() *naming.Directory { return n.dir }

// Self implements fabric.Fabric.
func (n *Node) Self() transport.NodeID { return n.id }

// Encoding implements fabric.Fabric.
func (n *Node) Encoding() encoding.Encoding { return n.enc }

// Schedule implements fabric.Fabric.
func (n *Node) Schedule(p qos.Priority, job func()) error {
	return n.sched.Submit(p, job)
}

// NextSeq implements fabric.Fabric.
func (n *Node) NextSeq() uint64 { return n.seq.Add(1) }

// Join implements fabric.Fabric: membership spans every bearer, because
// group traffic may arrive on whichever link the sender's policy selected.
// All bearers are attempted; the first error is reported.
func (n *Node) Join(group string) error {
	var firstErr error
	for _, b := range n.links.Bearers() {
		if err := b.Transport.Join(group); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Leave implements fabric.Fabric: leaves the group on every bearer.
func (n *Node) Leave(group string) error {
	var firstErr error
	for _, b := range n.links.Bearers() {
		if err := b.Transport.Leave(group); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reliable is what an acknowledged send adds to a transmit: its completion
// callback.
type reliable struct {
	done func(error)
}

// complete reports an outcome known before transmit returns: to the caller
// for a best-effort send (nil receiver), through done for a reliable one.
func (r *reliable) complete(err error) error {
	if r == nil {
		return err
	}
	if r.done != nil {
		r.done(err)
	}
	return nil
}

// transmit is the container's one path from a frame to the wire: assign
// the seq, encode once into a pooled buffer, route a frame addressed to
// this node straight to its engine, split what exceeds the MTU, and hand
// each datagram to the egress plane — directly and plane-owned for
// best-effort traffic, through ARQ (which keeps its own copy and re-enters
// the plane per transmission) when rel is set. A unicast frame to a peer
// settles the acks ARQ holds for it: a reply drops its call's, and a frame
// that fits one datagram carries the held reply acks it may. Every Send*
// method, the ack path and the link probes go through it.
func (n *Node) transmit(d egress.Dest, f *protocol.Frame, rel *reliable) error {
	// A batch's outer header carries no sequence semantics; its zero Seq
	// is not "unassigned".
	if f.Seq == 0 && f.Type != protocol.MTBatch {
		f.Seq = n.NextSeq()
	}
	// Only datagrams are acknowledged by ARQ and face the MTU; a frame to
	// this node needs neither.
	loopback := d.Node == n.id
	if rel != nil && !loopback {
		f.Flags |= protocol.FlagAckRequired
	}
	size := protocol.FrameWireSize(f)
	if !loopback && d.Group == "" {
		if isReply(f.Type) {
			// The reply acknowledges its call: the call's held ack stays home.
			if id, ok := rpc.ReplyCallID(f.Payload); ok {
				n.arq.Cancel(d.Node, id)
			}
		}
		if size < protocol.DefaultMTU && carriesAcks(f) && n.arq.HeldReplies(d.Node) > 0 {
			// The frame carries the held acks of replies that arrived on
			// its bearer, the one it would take anyway, now pinned, in a
			// class no higher than its own. The block rides a copy: the
			// caller's frame is not touched.
			if d.Bearer == "" {
				d.Bearer = n.unicastBearer(d.Node, f.Priority)
			}
			var block protocol.AckBlock
			carrier := *f
			carrier.AckLargest, carrier.AckRanges = n.arq.Carry(d.Node, d.Bearer, f.Priority, protocol.DefaultMTU-size, &block)
			f = &carrier
			size = protocol.FrameWireSize(f)
		}
	}
	split := !loopback && size > protocol.DefaultMTU
	buf := bufpool.Get(size)
	raw, err := protocol.AppendFrame(buf, f)
	if err != nil {
		bufpool.Put(buf)
		return rel.complete(err)
	}
	switch {
	case loopback:
		// Straight to the engine, synchronously; route retains nothing.
		n.routeSelf(raw)
		bufpool.Put(raw)
		return rel.complete(nil)
	case !split:
		// Single datagram: the steady-state path. A registered reliable
		// send completes later, through ARQ.
		if err := n.enqueue(d, f.Priority, f.Seq, raw, rel); err != nil {
			return rel.complete(err)
		}
		return nil
	}
	err = n.transmitSplit(d, f, raw, rel)
	bufpool.Put(raw) // fragments carry their own copies
	return err
}

// carriesAcks reports whether f may carry held acks in its header block.
// Acks, batches and fragments never do, nor bulk frames, which may wait for
// a shaped lane far longer than an ack may be held.
func carriesAcks(f *protocol.Frame) bool {
	switch f.Type {
	case protocol.MTAck, protocol.MTBatch, protocol.MTFragment:
		return false
	}
	return f.Priority != qos.PriorityBulk && f.AckLargest == 0
}

// unicastBearer names the bearer a unicast frame of class pr to peer to
// leaves on: the node's only bearer, or the selector's choice.
func (n *Node) unicastBearer(to transport.NodeID, pr qos.Priority) string {
	if bearers := n.links.Bearers(); len(bearers) == 1 {
		return bearers[0].Name
	}
	return n.links.Unicast(to, pr)
}

// transmitSplit is transmit's over-MTU tail: raw, the encoded frame f, goes
// out as MTFragment datagrams that each fit the MTU.
func (n *Node) transmitSplit(d egress.Dest, f *protocol.Frame, raw []byte, rel *reliable) error {
	viaARQ := rel != nil
	parts, err := protocol.Split(raw, f.Seq, protocol.DefaultMTU)
	if err != nil {
		return rel.complete(err)
	}
	// Best-effort fragments share the message id as their seq. Reliable
	// ones are acknowledged and deduplicated one by one, each under its
	// own seq, and the message completes when all of them have.
	frag, seq, flags := rel, f.Seq, uint8(0)
	if viaARQ {
		frag = &reliable{done: allAcked(parts.Count(), rel.done)}
		flags = protocol.FlagAckRequired
	}
	for i := 0; i < parts.Count(); i++ {
		if viaARQ {
			seq = n.NextSeq()
		}
		part := parts.Append(bufpool.Get(parts.WireSize(i, seq)), i, seq, flags)
		if err := n.enqueue(d, f.Priority, seq, part, frag); err != nil {
			return frag.complete(err)
		}
	}
	return nil
}

// enqueue gives up one encoded datagram in a pooled buffer: to the egress
// plane, which then owns it, or, for a reliable send, to ARQ under seq —
// ARQ copies it, makes the first transmission and every retry through the
// plane, and the buffer is recycled here.
func (n *Node) enqueue(d egress.Dest, pr qos.Priority, seq uint64, raw []byte, rel *reliable) error {
	if rel == nil {
		return n.egress.EnqueueTo(d, pr, raw)
	}
	err := n.arq.Send(d.Node, seq, raw, rel.done)
	bufpool.Put(raw)
	return err
}

// allAcked returns the per-fragment completion of a multi-fragment reliable
// send: done fires once, with the first failure or when the last of total
// fragments is acknowledged.
func allAcked(total int, done func(error)) func(error) {
	var (
		remaining atomic.Int64
		failed    atomic.Bool
	)
	remaining.Store(int64(total))
	return func(err error) {
		if err != nil {
			if !failed.Swap(true) && done != nil {
				done(err)
			}
			return
		}
		if remaining.Add(-1) == 0 && !failed.Load() && done != nil {
			done(nil)
		}
	}
}

// SendBestEffort implements fabric.Fabric.
func (n *Node) SendBestEffort(to transport.NodeID, f *protocol.Frame) error {
	return n.transmit(egress.Dest{Node: to}, f, nil)
}

// SendGroup implements fabric.Fabric.
func (n *Node) SendGroup(group string, f *protocol.Frame) error {
	return n.transmit(egress.Dest{Group: group}, f, nil)
}

// SendReliable implements fabric.Fabric. The reliability class has one
// value, ReliableARQ (see fabric.Fabric).
func (n *Node) SendReliable(to transport.NodeID, f *protocol.Frame, _ qos.Reliability, done func(error)) {
	// transmit reports every reliable outcome through done.
	_ = n.transmit(egress.Dest{Node: to}, f, &reliable{done: done})
}

var (
	_ fabric.Fabric       = (*Node)(nil)
	_ fabric.Instrumented = (*Node)(nil)
)

// ackQueue is a list of acknowledgments owed to peers and the scratch that
// sends them as range MTAcks, one per (bearer, peer). A shard's queue
// collects the acks of one drain batch and is touched only by its worker.
type ackQueue struct {
	acks []pendingAck
	seqs []uint64
	buf  []byte // ack range payload under construction
}

// pendingAck is one acknowledgment owed to a peer.
type pendingAck struct {
	bearer string
	to     transport.NodeID
	seq    uint64
	done   bool
}

// maxBatchNesting bounds MTBatch recursion. Depth 0 is a batch arriving as
// its own datagram (egress coalescing). This stack never nests a batch in
// a batch (acks travel as one range MTAck), so anything deeper is rejected
// as a protocol violation rather than recursed into — a hostile or corrupt
// nested batch must not turn the dispatcher into unbounded recursion.
const maxBatchNesting = 1

// deliverBatch is the ingress pipeline's dispatch callback: one shard
// worker hands over a drain batch in per-source arrival order. Frame
// payloads alias the pipeline's pooled buffers, which stay alive for the
// duration of this call — every route handler consumes its payload
// synchronously (copying whatever it keeps), so no per-frame heap copy is
// taken. The clock is read once per batch.
func (n *Node) deliverBatch(shard int, batch []ingress.Packet) {
	q := &n.acks[shard]
	now := n.clk.Now()
	for i := range batch {
		n.handleFrameOn(q, now, batch[i].Bearer, batch[i].From, batch[i].Payload, 0)
	}
	n.flushAcks(q)
}

// routeSelf decodes and routes one frame this node addressed to itself,
// synchronously on the sender's goroutine. Such a frame is never acked,
// fragmented or batched, so it needs no shard state.
func (n *Node) routeSelf(raw []byte) {
	f := protocol.GetFrame()
	if err := protocol.DecodeFrameInto(f, raw); err != nil {
		uerr.Note(n.metrics, codeFrameDecode, err, "drop undecodable frame")
	} else {
		n.route("", n.id, f)
	}
	protocol.PutFrame(f)
}

// handleFrameOn decodes and routes one frame from a peer that arrived on
// the named bearer by now, queueing its ack on q. depth counts MTBatch
// nesting.
func (n *Node) handleFrameOn(q *ackQueue, now time.Time, bearer string, from transport.NodeID, raw []byte, depth int) {
	// The frame struct is pooled: every route handler consumes it
	// synchronously and none retains the pointer past its call (the rpc
	// engine copies what it needs into its serve record before scheduling
	// handler work).
	f := protocol.GetFrame()
	if err := protocol.DecodeFrameInto(f, raw); err != nil {
		protocol.PutFrame(f)
		uerr.Note(n.metrics, codeFrameDecode, err, "drop undecodable frame")
		return
	}
	n.handleFrame(q, now, bearer, from, f, depth)
	protocol.PutFrame(f)
}

func (n *Node) handleFrame(q *ackQueue, now time.Time, bearer string, from transport.NodeID, f *protocol.Frame, depth int) {
	// The acks a frame carries are true whatever becomes of the frame, a
	// duplicate's too.
	if f.AckLargest != 0 {
		err := protocol.EachAckBlockRange(f, func(lo, hi uint64) { n.arq.AckRange(from, lo, hi) })
		uerr.Note(n.metrics, codeAckDecode, err, "ignore undecodable ack block")
	}
	// Every ack-required frame — whole message or single fragment — is
	// acknowledged, even when it is a retransmission whose first copy was
	// already delivered (the ack was lost), and then delivered at most
	// once. The ack is deferred to the end of the drain batch so acks to
	// the same peer coalesce into one datagram. The first copy of a call or
	// a reply is the exception: ARQ holds its ack for the traffic that
	// acknowledges it, the call's reply or the next frame to the reply's
	// sender.
	if f.Flags&protocol.FlagAckRequired != 0 {
		reply := isReply(f.Type)
		ack := protocol.HeldAck{Bearer: bearer, Seq: f.Seq, Priority: f.Priority, Reply: reply}
		dup, held := n.arq.Arrive(now, from, ack, f.Type == protocol.MTCall || reply)
		if !held {
			q.acks = append(q.acks, pendingAck{bearer: bearer, to: from, seq: f.Seq})
		}
		if dup {
			n.duplicates.Inc()
			return
		}
	}
	switch f.Type {
	case protocol.MTAck:
		err := protocol.EachAckRange(f, func(lo, hi uint64) { n.arq.AckRange(from, lo, hi) })
		uerr.Note(n.metrics, codeAckDecode, err, "drop undecodable ack")
	case protocol.MTBatch:
		// Transparent batched receive: unpack coalesced frames and feed
		// each through the full decode path, so per-frame acknowledgment,
		// dedup and priority scheduling behave exactly as if the frames
		// had arrived in separate datagrams.
		if depth >= maxBatchNesting {
			_ = uerr.Newf(n.metrics, codeBatchNested, "drop batch nested beyond depth %d", maxBatchNesting)
			return
		}
		subs, err := protocol.ReadBatch(f.Payload)
		if err != nil {
			uerr.Note(n.metrics, codeBatchDecode, err, "drop undecodable batch")
			return
		}
		for sub, ok := subs.Next(); ok; sub, ok = subs.Next() {
			n.handleFrameOn(q, now, bearer, from, sub, depth+1)
		}
	case protocol.MTFragment:
		complete, err := n.arq.Offer(now, from, f)
		if err != nil {
			uerr.Note(n.metrics, codeFragReassembly, err, "drop bad fragment")
			return
		}
		if complete == nil {
			return
		}
		// The reassembled message decodes through the pooled path like
		// every other arrival; its payload aliases the GC-owned
		// reassembly buffer, consumed synchronously by route.
		inner := protocol.GetFrame()
		if err := protocol.DecodeFrameInto(inner, complete); err != nil {
			protocol.PutFrame(inner)
			uerr.Note(n.metrics, codeFrameDecode, err, "drop undecodable reassembly")
			return
		}
		// Dedup the logical message too: a fully retransmitted
		// fragment set must not deliver twice.
		if dup, _ := n.arq.Arrive(now, from, protocol.HeldAck{Seq: inner.Seq}, false); dup {
			n.duplicates.Inc()
		} else {
			n.route(bearer, from, inner)
		}
		protocol.PutFrame(inner)
	default:
		// No payload copy: the bytes alias the pipeline's pooled receive
		// buffer, alive until the dispatch returns; route handlers copy
		// whatever they retain.
		n.route(bearer, from, f)
	}
}

// sendHeldAcks sends the acks ARQ held for peer to whose delay ran out.
func (n *Node) sendHeldAcks(to transport.NodeID, acks []protocol.HeldAck) {
	n.heldMu.Lock()
	defer n.heldMu.Unlock()
	for _, a := range acks {
		n.heldOut.acks = append(n.heldOut.acks, pendingAck{bearer: a.Bearer, to: to, seq: a.Seq})
	}
	n.flushAcks(&n.heldOut)
}

// flushAcks sends and empties the queued acknowledgments, grouped per
// (bearer, peer).
func (n *Node) flushAcks(q *ackQueue) {
	acks := q.acks
	for i := range acks {
		if acks[i].done {
			continue
		}
		bearer, to := acks[i].bearer, acks[i].to
		q.seqs = q.seqs[:0]
		for j := i; j < len(acks); j++ {
			if !acks[j].done && acks[j].bearer == bearer && acks[j].to == to {
				acks[j].done = true
				q.seqs = append(q.seqs, acks[j].seq)
			}
		}
		n.sendAcks(q, bearer, to, q.seqs)
	}
	q.acks = acks[:0]
}

// sendAcks acknowledges seqs to one peer in range MTAcks: one frame, one
// egress enqueue and one wire packet where a drained burst would have
// produced an ack datagram per frame, and a range list too long for one
// datagram as several. A seq acknowledged twice in one drain (a
// retransmission of a frame already in the batch) is acknowledged once.
//
// Acks ride the critical lane, so lower-class traffic congesting a link
// cannot hold one past the peer's ARQ timeout and draw a spurious
// retransmission. The only deliberate wait is that of an ack held for the
// traffic that would carry it (a call's for its reply, a reply's for the
// next frame to its sender: ARQ.Arrive), at most protocol.MaxAckDelay.
// Acks are pinned to the bearer the data arrived on, so acknowledgment
// traffic keeps measuring (and keeping alive) the same link as the data it
// acknowledges; a held ack rides only a frame leaving on that bearer. A
// refused enqueue (node closing) is counted, not returned: the peer's ARQ
// retry is the recovery path.
func (n *Node) sendAcks(q *ackQueue, bearer string, to transport.NodeID, seqs []uint64) {
	slices.Sort(seqs)
	slices.Reverse(seqs)
	seqs = slices.Compact(seqs)
	d := egress.Dest{Node: to, Bearer: bearer}
	for len(seqs) > 0 {
		ack := protocol.Frame{Priority: qos.PriorityCritical}
		seqs = protocol.AppendAck(&ack, q.buf, seqs, protocol.DefaultMTU)
		q.buf = ack.Payload
		uerr.Note(n.metrics, codeAckSend, n.transmit(d, &ack, nil), "enqueue ack")
	}
}

// route dispatches a frame to its engine.
func (n *Node) route(bearer string, from transport.NodeID, f *protocol.Frame) {
	switch f.Type {
	case protocol.MTAnnounce:
		n.discovery.HandleAnnounce(from, f)
	case protocol.MTHeartbeat:
		n.discovery.HandleHeartbeat(from, f)
	case protocol.MTAnnounceDelta:
		n.discovery.HandleAnnounceDelta(from, f)
	case protocol.MTSyncReq:
		n.discovery.HandleSyncReq(from, f)
	case protocol.MTBye:
		n.discovery.HandleBye(from)
	case protocol.MTProbe:
		n.links.HandleProbe(bearer, from, f)
	case protocol.MTProbeEcho:
		n.links.HandleProbeEcho(bearer, f)
	case protocol.MTSample:
		n.vars.HandleSample(from, f)
	case protocol.MTSnapshotReq:
		n.vars.HandleSnapshotReq(from, f)
	case protocol.MTSnapshotRep:
		n.vars.HandleSnapshotRep(from, f)
	case protocol.MTSubscribe:
		n.events.HandleSubscribe(from, f)
	case protocol.MTUnsubscribe:
		n.events.HandleUnsubscribe(from, f)
	case protocol.MTEvent:
		n.events.HandleEvent(from, f)
	case protocol.MTEventNack:
		n.events.HandleEventNack(from, f)
	case protocol.MTCall:
		n.rpc.HandleCall(from, f)
	case protocol.MTReturn:
		n.callAnswered(from, f)
		n.rpc.HandleReturn(from, f)
	case protocol.MTError:
		n.callAnswered(from, f)
		n.rpc.HandleError(from, f)
	case protocol.MTBusy:
		n.callAnswered(from, f)
		n.rpc.HandleBusy(from, f)
	case protocol.MTFileAnnounce:
		n.files.HandleAnnounce(from, f)
	case protocol.MTFileSubscribe:
		n.files.HandleSubscribe(from, f)
	case protocol.MTFileChunk:
		n.files.HandleChunk(from, f)
	case protocol.MTFileQuery:
		n.files.HandleQuery(from, f)
	case protocol.MTFileAck:
		n.files.HandleAck(from, f)
	case protocol.MTFileNack:
		n.files.HandleNack(from, f)
	default:
		// Unknown types drop.
	}
}

// isReply reports whether mt answers an MTCall.
func isReply(mt protocol.MsgType) bool {
	return mt == protocol.MTReturn || mt == protocol.MTError || mt == protocol.MTBusy
}

// callAnswered settles the reliable send of the call a reply from a peer
// answers. A remote call's frame seq is its call id, so the reply names the
// ARQ record; it proves the call arrived, and the callee sends no ack of
// its own when it replies in time (ARQ.Arrive holds it). A hedged call keeps one
// record per attempt, and a reply settles only its own.
func (n *Node) callAnswered(from transport.NodeID, f *protocol.Frame) {
	if id, ok := rpc.ReplyCallID(f.Payload); ok {
		n.arq.Ack(from, id)
	}
}

// offer assembles this node's current record set — the discovery engine's
// offer source — from the engines, the bearer plane and the service table.
func (n *Node) offer() []naming.Record {
	recs := n.vars.Records()
	recs = append(recs, n.events.Records()...)
	recs = append(recs, n.rpc.Records()...)
	recs = append(recs, n.files.Records()...)
	recs = append(recs, n.links.Records()...)
	n.mu.Lock()
	for name, srt := range n.services {
		if srt.State() == ServiceRunning || srt.State() == ServiceInitialized {
			recs = append(recs, naming.Record{
				Kind: naming.KindService, Name: name, Service: name, Node: n.id,
			})
		}
	}
	n.mu.Unlock()
	return recs
}

// OfferChanged implements fabric.Fabric: engines call it after any
// registration or withdrawal, and discovery multicasts the delta.
func (n *Node) OfferChanged() { n.discovery.OfferChanged() }

// sendOnBearer transmits one bearer-plane frame (link probe or echo) to a
// peer on the named bearer. A refused enqueue is counted, not returned:
// the next sweep probes again.
func (n *Node) sendOnBearer(bearer string, to transport.NodeID, f *protocol.Frame) {
	uerr.Note(n.metrics, codeProbeSend, n.transmit(egress.Dest{Node: to, Bearer: bearer}, f, nil), "enqueue probe")
}

// LinkReports snapshots every bearer's link-monitor report (health verdict,
// last-heard, probe RTT and loss), in registration order.
func (n *Node) LinkReports() []link.Report { return n.links.Reports() }

// Bearers lists the node's bearer names in registration order.
func (n *Node) Bearers() []string { return n.links.Names() }

// peerGone is discovery's hook for the end of a peer's incarnation. A
// restarted peer's new offer stands, so only what the container kept for
// the old incarnation goes. A failed or departed one is already purged
// from the directory; the engines and registered callbacks are told too
// (§3 cache clearing + §4.3 failover).
func (n *Node) peerGone(node transport.NodeID, restarted bool) {
	// A rejoining peer starting from seq 1 must find no dedup window.
	n.arq.Forget(node)
	if restarted {
		return
	}
	n.links.PeerGone(node)
	n.events.PeerGone(node)
	n.files.PeerGone(node)
	n.mu.Lock()
	cbs := make([]func(transport.NodeID), len(n.peerFailedCB))
	copy(cbs, n.peerFailedCB)
	n.mu.Unlock()
	for _, cb := range cbs {
		cb(node)
	}
}

// OnPeerFailed registers a callback invoked when a peer node is declared
// failed or says goodbye.
func (n *Node) OnPeerFailed(cb func(transport.NodeID)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerFailedCB = append(n.peerFailedCB, cb)
}

// AnnounceNow forces an immediate full-state announcement. Registration
// paths announce incrementally on their own (OfferChanged); this remains
// for tests and for operators who want a full refresh pushed out.
func (n *Node) AnnounceNow() { n.discovery.AnnounceNow() }

// OfferVersion reports the node's current record-log version. Remote
// directories citing the same version for this node hold its exact offer.
func (n *Node) OfferVersion() uint64 { return n.discovery.OfferVersion() }

// Peers lists peers currently believed alive.
func (n *Node) Peers() []transport.NodeID { return n.discovery.Peers() }

// Close sends a goodbye, stops loops, services and the scheduler.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()

	// Stop services in reverse start order, then end file transfer: offers
	// stop their loops and blocked fetches and watches return.
	n.stopAllServices()
	n.files.Close()

	// Goodbye to the fleet. A failed goodbye is counted, not fatal: peers
	// fall back to the failure deadline.
	bye := &protocol.Frame{Type: protocol.MTBye, Priority: qos.PriorityHigh, Seq: n.NextSeq()}
	uerr.Note(n.metrics, codeByeSend, n.SendGroup(fabric.DiscoveryGroup, bye), "broadcast goodbye")

	n.discovery.Close()
	// Drain the receive pipeline before the ARQ and egress planes go
	// down: queued arrivals still dispatch (final acks enqueue onto a
	// live egress), then the workers stop, and ARQ's Close sends the acks
	// still held and stops its timers.
	n.ingress.Close()
	n.arq.Close()
	// Flush the egress plane (goodbye, final acks) before the transports
	// close underneath it.
	n.egress.Close()
	if n.ownSched {
		n.sched.Stop()
	}
	// Close every bearer transport exactly once, keeping the first error.
	var err error
	for _, b := range n.links.Bearers() {
		if cerr := b.Transport.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Engines expose the primitive runtimes to the Context layer.

// Variables returns the §4.1 engine.
func (n *Node) Variables() *variables.Engine { return n.vars }

// Events returns the §4.2 engine.
func (n *Node) Events() *events.Engine { return n.events }

// RPC returns the §4.3 engine.
func (n *Node) RPC() *rpc.Engine { return n.rpc }

// Files returns the §4.4 engine.
func (n *Node) Files() *filetransfer.Engine { return n.files }

// IngressShards reports the receive pipeline's worker count.
func (n *Node) IngressShards() int { return n.ingress.Shards() }

// IngressDelivered reports how many packets the receive pipeline has
// dispatched to the frame dispatcher so far. Benchmarks and tests quiesce
// on it; per-shard detail lives in the "ingress" metrics families.
func (n *Node) IngressDelivered() uint64 { return n.ingress.Delivered() }

// Metrics implements fabric.Instrumented: the node's unified registry.
// Engines resolve their counter handles from it at construction, and
// every uerr constructed with it lands in a "<component>.errors" family.
func (n *Node) Metrics() *metrics.Registry { return n.metrics }

// MetricsSnapshot samples the node's point-in-time gauges (link health
// and RTT, transport byte counts, scheduler backlog) into the registry
// and exports everything — one deterministic, scrapeable view of every
// plane. Two same-seed virtual-time runs export byte-identical text.
func (n *Node) MetricsSnapshot() metrics.Snapshot {
	n.sampleGauges()
	return n.metrics.Snapshot()
}

// sampleGauges mirrors externally-owned state into registry gauges at
// snapshot time: transports are constructed outside the node and keep
// their own counters, and link health is a verdict, not an event stream,
// so neither can feed the registry incrementally.
func (n *Node) sampleGauges() {
	now := n.clk.Now()
	for _, b := range n.links.Bearers() {
		lb := metrics.L("bearer", b.Name)
		rep := b.Monitor.Report(now)
		healthy := int64(0)
		if rep.Healthy {
			healthy = 1
		}
		n.metrics.Gauge("link", "healthy", lb).Set(healthy)
		n.metrics.Gauge("link", "rtt_us", lb).Set(rep.RTT.Microseconds())
		n.metrics.Gauge("link", "probe_loss_ppm", lb).Set(int64(rep.ProbeLoss * 1e6))
		n.metrics.Gauge("link", "peers_heard", lb).Set(int64(rep.PeersHeard))
		ts := b.Transport.Stats()
		n.metrics.Gauge("transport", "packets_sent", lb).Set(int64(ts.PacketsSent))
		n.metrics.Gauge("transport", "bytes_sent", lb).Set(int64(ts.BytesSent))
		n.metrics.Gauge("transport", "packets_wire", lb).Set(int64(ts.PacketsWire))
		n.metrics.Gauge("transport", "bytes_wire", lb).Set(int64(ts.BytesWire))
		n.metrics.Gauge("transport", "packets_received", lb).Set(int64(ts.PacketsRecv))
		n.metrics.Gauge("transport", "bytes_received", lb).Set(int64(ts.BytesRecv))
		n.metrics.Gauge("transport", "packets_dropped", lb).Set(int64(ts.PacketsDropped))
	}
	if pool, ok := n.sched.(*scheduler.Pool); ok {
		n.metrics.Gauge("scheduler", "backlog").Set(int64(pool.Backlog()))
	}
}

// FlushEgress blocks until every frame queued on the egress plane at call
// time has been handed to the transport. Tests and experiments use it to
// line wire-level measurements up with the asynchronous drain.
func (n *Node) FlushEgress() { n.egress.Flush() }
