// Package core implements the paper's primary contribution: the service
// container (§3). One container runs per network node; it executes and
// manages services, handles name management through a proxy cache, owns all
// network access on the node, and provides the four communication
// primitives (§4) to its services through the Context API.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/egress"
	"uavmw/internal/encoding"
	"uavmw/internal/events"
	"uavmw/internal/fabric"
	"uavmw/internal/filetransfer"
	"uavmw/internal/ingress"
	"uavmw/internal/link"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
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
// used to drop silently or fold into an anonymous counter constructs
// through one of these, so the registry's "discovery.errors" /
// "core.errors" families count it by category the moment it happens.
var (
	codeAnnounceEncode = uerr.Register("discovery.announce_encode", uerr.CatEncode)
	codeAnnounceSend   = uerr.Register("discovery.announce_send", uerr.CatSend)
	codeDeltaEncode    = uerr.Register("discovery.delta_encode", uerr.CatEncode)
	codeDeltaSend      = uerr.Register("discovery.delta_send", uerr.CatSend)
	codeHeartbeatEnc   = uerr.Register("discovery.heartbeat_encode", uerr.CatEncode)
	codeHeartbeatSend  = uerr.Register("discovery.heartbeat_send", uerr.CatSend)
	codeSyncReqSend    = uerr.Register("discovery.sync_request_send", uerr.CatSend)
	codeSyncRepEncode  = uerr.Register("discovery.sync_reply_encode", uerr.CatEncode)
	codeSyncRepSend    = uerr.Register("discovery.sync_reply_send", uerr.CatSend)
	codeSyncShed       = uerr.Register("discovery.sync_shed", uerr.CatAdmission)
	codeDiscoMalformed = uerr.Register("discovery.frame_malformed", uerr.CatDecode)
	codeNodeMismatch   = uerr.Register("discovery.node_mismatch", uerr.CatProtocol)
	codeFrameDecode    = uerr.Register("core.frame_decode", uerr.CatDecode)
	codeBatchDecode    = uerr.Register("core.batch_decode", uerr.CatDecode)
	codeBatchNested    = uerr.Register("core.batch_nested", uerr.CatProtocol)
	codeFragReassembly = uerr.Register("core.fragment_reassembly", uerr.CatDecode)
	codeAckSend        = uerr.Register("core.ack_send", uerr.CatSend)
	codeProbeSend      = uerr.Register("core.probe_send", uerr.CatSend)
	codeByeSend        = uerr.Register("core.bye_send", uerr.CatSend)
)

// bearerRuntime is one datalink the node transmits over: the transport,
// its declared profile, and the link monitor estimating its health.
type bearerRuntime struct {
	name    string
	tr      transport.Transport
	profile qos.BearerProfile
	mon     *link.Monitor
	// wasDown latches the last health state the sweep observed, so a
	// healthy→down transition triggers exactly one egress reroute.
	wasDown atomic.Bool
}

// Node is one service container. Construct with NewNode, then register
// services (AddService) or use the primitive APIs directly via Context.
type Node struct {
	id  transport.NodeID
	clk clock.Clock
	// bearers holds the node's datagram links in registration order;
	// bearers[0] is the default. bearerByName indexes them. classOrder is
	// the policy-derived bearer preference per qos.Priority index.
	bearers      []*bearerRuntime
	bearerByName map[string]*bearerRuntime
	classOrder   [qosNumClasses][]string
	// reach caches which bearers each peer advertises (KindBearer records
	// in its offer), so the per-frame bearer selector never walks the
	// directory.
	reachMu sync.RWMutex
	reach   map[transport.NodeID]map[string]bool

	stream   transport.Transport // optional
	enc      encoding.Encoding
	sched    scheduler.Scheduler
	ownSched bool
	dir      *naming.Directory
	live     *naming.Liveness
	types    *presentation.Registry
	arq      *protocol.ARQ
	egress   *egress.Plane
	// ingress is the sharded receive pipeline between the bearer
	// transports and handleFrame: packets hash by source onto shards
	// (preserving per-source FIFO), shards decode and dispatch in
	// parallel. shards holds the per-shard protocol state (dedup windows,
	// reassembly, pending ack coalescing); local is the equivalent state
	// for the synchronous paths that bypass the pipeline (self loopback,
	// the stream transport).
	ingress *ingress.Pipeline
	shards  []*recvShard
	local   *recvShard
	seq     atomic.Uint64
	epoch   uint64
	mtu     int

	// Incremental discovery plane (§3 at fleet scale): the versioned log
	// of this node's own offer, the reassembly state for unicast full
	// syncs, and per-peer sync-request throttling.
	log         *naming.Log
	announceMu  sync.Mutex    // orders log updates with their broadcasts
	introduced  bool          // a full-state announce has gone out (guarded by announceMu)
	offerDirty  clock.Trigger // coalesces OfferChanged signals
	syncMu      sync.Mutex
	syncAsm     *naming.SyncAssembler
	syncReqAt   map[transport.NodeID]time.Time
	syncServing atomic.Int64 // full-state replies currently in flight
	disco       discoveryCounters

	// metrics is the node's unified registry: every plane's counter
	// families and typed-error families land here, and MetricsSnapshot
	// exports them all (§ observability).
	metrics *metrics.Registry

	vars   *variables.Engine
	events *events.Engine
	rpc    *rpc.Engine
	files  *filetransfer.Engine

	announcePeriod  time.Duration
	failureDeadline time.Duration

	budget ResourceBudget

	mu           sync.Mutex
	services     map[string]*ServiceRuntime
	startOrder   []string
	devices      map[string]string // device -> owning service
	peerFailedCB []func(transport.NodeID)
	closed       bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// qosNumClasses mirrors qos.NumLevels(); sized as a constant for arrays. A
// test pins the two against each other.
const qosNumClasses = 5

// bearerSpec is one WithBearer/WithDatagram registration.
type bearerSpec struct {
	name    string
	tr      transport.Transport
	profile qos.BearerProfile
}

// nodeConfig collects option state before construction.
type nodeConfig struct {
	bearers         []bearerSpec
	policy          qos.LinkPolicy
	stream          transport.Transport
	enc             encoding.Encoding
	sched           scheduler.Scheduler
	announcePeriod  time.Duration
	failureDeadline time.Duration
	directoryTTL    time.Duration
	arqOpts         []protocol.ARQOption
	fileOpts        []filetransfer.Option
	mtu             int
	budget          ResourceBudget
	rpcInflight     int
	egressCfg       egress.Config
	ingressShards   int
	clk             clock.Clock
}

// NodeOption configures a Node.
type NodeOption func(*nodeConfig)

// WithDatagram sets a datagram transport (UDP, bus, netsim) as the node's
// default bearer — the single-datalink configuration. It is shorthand for
// WithBearer(DefaultBearer, t, qos.BearerProfile{}).
func WithDatagram(t transport.Transport) NodeOption {
	return WithBearer(DefaultBearer, t, qos.BearerProfile{})
}

// WithBearer registers one named datalink (bearer) the node transmits
// over. A node may carry several dissimilar bearers at once — short-range
// high-bandwidth WiFi, a long-range radio modem, satcom — each wrapped in
// a link monitor and given its own egress lanes and bulk pacer; the link
// policy (WithLinkPolicy, or the profile-derived default) routes each
// traffic class onto the preferred healthy bearer and fails it over within
// a failure-deadline when that bearer blacks out. Bearer names are fleet-
// wide vocabulary: discovery advertises them, and peers match them against
// their own bearer set, so give the same physical network the same name on
// every node. The first bearer registered is the default. All bearer
// transports must agree on the node identity.
func WithBearer(name string, t transport.Transport, profile qos.BearerProfile) NodeOption {
	return func(c *nodeConfig) {
		c.bearers = append(c.bearers, bearerSpec{name: name, tr: t, profile: profile})
	}
}

// WithLinkPolicy sets the class→bearer affinity and failover order for
// multi-bearer nodes. Without it, the default policy derived from bearer
// profiles applies: bulk rides the highest-rate healthy bearer, critical
// pins to the most robust one, interactive classes chase latency.
func WithLinkPolicy(p qos.LinkPolicy) NodeOption {
	return func(c *nodeConfig) { c.policy = p }
}

// WithStream sets the optional reliable stream transport (TCP). Without
// one, ReliableStream sends fall back to the ARQ path.
func WithStream(t transport.Transport) NodeOption {
	return func(c *nodeConfig) { c.stream = t }
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

// WithFailureDeadline sets how long a silent peer survives before failover.
func WithFailureDeadline(d time.Duration) NodeOption {
	return func(c *nodeConfig) {
		if d > 0 {
			c.failureDeadline = d
		}
	}
}

// WithDirectoryTTL sets the name-cache entry lifetime.
func WithDirectoryTTL(d time.Duration) NodeOption {
	return func(c *nodeConfig) {
		if d > 0 {
			c.directoryTTL = d
		}
	}
}

// WithARQ forwards tuning options to the reliable-datagram engine.
func WithARQ(opts ...protocol.ARQOption) NodeOption {
	return func(c *nodeConfig) { c.arqOpts = append(c.arqOpts, opts...) }
}

// WithFileTransfer forwards tuning options to the file engine.
func WithFileTransfer(opts ...filetransfer.Option) NodeOption {
	return func(c *nodeConfig) { c.fileOpts = append(c.fileOpts, opts...) }
}

// WithMTU overrides the fragmentation threshold.
func WithMTU(n int) NodeOption {
	return func(c *nodeConfig) {
		if n > 0 {
			c.mtu = n
		}
	}
}

// WithResourceBudget sets the node's admission-control budget (§3 resource
// management).
func WithResourceBudget(b ResourceBudget) NodeOption {
	return func(c *nodeConfig) { c.budget = b }
}

// WithEgress tunes the priority-aware egress plane (per-link QoS lanes,
// bulk pacing, frame coalescing). Zero fields take the plane defaults.
func WithEgress(cfg egress.Config) NodeOption {
	return func(c *nodeConfig) { c.egressCfg = cfg }
}

// WithBulkRateBPS token-bucket-shapes the node's PriorityBulk egress lane
// (file-transfer chunks) to the given wire bytes/second. Set it at or just
// below the narrowest link the node transmits over, so bulk traffic never
// fills a link queue that critical frames would then wait behind (§4
// priority inversion at the sender). Zero leaves bulk unshaped.
func WithBulkRateBPS(bps int64) NodeOption {
	return func(c *nodeConfig) { c.egressCfg.BulkRateBPS = bps }
}

// WithRPCInflightLimit caps concurrently executing remote-call handlers on
// this node; excess MTCall requests are answered MTBusy so callers fail
// over to redundant providers instead of queueing (§4.3 admission
// control). Zero (the default) means unlimited.
func WithRPCInflightLimit(n int) NodeOption {
	return func(c *nodeConfig) { c.rpcInflight = n }
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
		mtu:            protocol.DefaultMTU,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.bearers) == 0 {
		return nil, fmt.Errorf("core: %w", ErrNoDatagram)
	}
	if err := cfg.policy.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	id := cfg.bearers[0].tr.Node()
	seen := make(map[string]bool, len(cfg.bearers))
	for _, spec := range cfg.bearers {
		if spec.name == "" {
			return nil, fmt.Errorf("core: empty bearer name: %w", ErrBadBearer)
		}
		if spec.tr == nil {
			return nil, fmt.Errorf("core: bearer %q has no transport: %w", spec.name, ErrBadBearer)
		}
		if seen[spec.name] {
			return nil, fmt.Errorf("core: duplicate bearer %q: %w", spec.name, ErrBadBearer)
		}
		seen[spec.name] = true
		if spec.tr.Node() != id {
			return nil, fmt.Errorf("core: bearer %q is node %q, want %q: %w",
				spec.name, spec.tr.Node(), id, ErrBadBearer)
		}
	}
	if cfg.failureDeadline <= 0 {
		cfg.failureDeadline = 5 * cfg.announcePeriod
	}
	if cfg.directoryTTL <= 0 {
		cfg.directoryTTL = 6 * cfg.announcePeriod
	}
	clk := clock.Or(cfg.clk)
	n := &Node{
		id:              id,
		clk:             clk,
		bearerByName:    make(map[string]*bearerRuntime, len(cfg.bearers)),
		reach:           make(map[transport.NodeID]map[string]bool),
		stream:          cfg.stream,
		enc:             cfg.enc,
		sched:           cfg.sched,
		dir:             naming.NewDirectory(cfg.directoryTTL),
		live:            naming.NewLiveness(cfg.failureDeadline),
		types:           presentation.NewRegistry(),
		epoch:           uint64(clk.Now().UnixNano()) + epochSalt.Add(1),
		mtu:             cfg.mtu,
		log:             naming.NewLog(),
		syncAsm:         naming.NewSyncAssembler(),
		syncReqAt:       make(map[transport.NodeID]time.Time),
		announcePeriod:  cfg.announcePeriod,
		failureDeadline: cfg.failureDeadline,
		services:        make(map[string]*ServiceRuntime),
		devices:         make(map[string]string),
		stop:            make(chan struct{}),
	}
	n.metrics = metrics.NewRegistry()
	n.disco = newDiscoveryCounters(n.metrics)
	if n.sched == nil {
		n.sched = scheduler.NewPool(scheduler.WithPoolClock(clk))
		n.ownSched = true
	}
	n.offerDirty = clock.NewTrigger(clk)
	n.budget = cfg.budget
	// All datagram transmission drains through the egress plane: strict
	// per-(bearer, destination) priority lanes, shaped bulk per bearer,
	// coalesced small frames. The plane's MTU budget for coalesced batches
	// tracks the node's.
	if cfg.egressCfg.MaxDatagram == 0 {
		cfg.egressCfg.MaxDatagram = cfg.mtu
	}
	cfg.egressCfg.Clock = clk
	cfg.egressCfg.Metrics = n.metrics
	n.egress = egress.NewPlane()
	profiles := make(map[string]qos.BearerProfile, len(cfg.bearers))
	for _, spec := range cfg.bearers {
		br := &bearerRuntime{
			name:    spec.name,
			tr:      spec.tr,
			profile: spec.profile,
			mon:     link.NewMonitor(spec.name, cfg.failureDeadline, clk),
		}
		n.bearers = append(n.bearers, br)
		n.bearerByName[spec.name] = br
		profiles[spec.name] = spec.profile
		// Each bearer gets its own lanes and bulk pacer: the profile's
		// BulkRateBPS overrides the node-wide rate so a 1 Mb/s WiFi pipe
		// and a 250 kb/s radio modem are shaped independently.
		bcfg := cfg.egressCfg
		if spec.profile.BulkRateBPS != 0 {
			bcfg.BulkRateBPS = spec.profile.BulkRateBPS
		}
		if err := n.egress.AddBearer(spec.name, spec.tr, bcfg); err != nil {
			n.egress.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	for _, p := range qos.Levels() {
		n.classOrder[p.Index()] = cfg.policy.Order(p, profiles)
	}
	if len(n.bearers) > 1 {
		// Single-bearer nodes keep the static default route; the selector
		// (policy order × link health × peer reachability) only runs when
		// there is a choice to make.
		n.egress.SetSelector(bearerSelector{n})
	}
	// ARQ retransmissions re-enter the plane in the lane of the frame
	// they carry (the priority rides in the encoded header).
	n.arq = protocol.NewARQ(func(to transport.NodeID, frame []byte) error {
		return n.egress.Enqueue(to, protocol.PeekPriority(frame), frame)
	}, append([]protocol.ARQOption{protocol.WithClock(clk), protocol.WithMetrics(n.metrics)}, cfg.arqOpts...)...)

	n.vars = variables.New(n)
	n.events = events.New(n)
	n.rpc = rpc.New(n)
	n.rpc.SetInflightLimit(cfg.rpcInflight)
	n.files = filetransfer.New(n, cfg.fileOpts...)

	// The sharded receive pipeline sits between the bearer transports and
	// the dispatcher. Per-shard protocol state (dedup, reassembly, ack
	// coalescing) is touched only by that shard's worker; the local shard
	// serves the synchronous bypass paths (self loopback, stream).
	n.ingress = ingress.New(ingress.Config{
		Shards:  cfg.ingressShards,
		Clock:   clk,
		Metrics: n.metrics,
		Deliver: n.deliverBatch,
	})
	n.shards = make([]*recvShard, n.ingress.Shards())
	for i := range n.shards {
		n.shards[i] = newRecvShard(clk, true)
	}
	n.local = newRecvShard(clk, false)

	// Each bearer's receive path is tagged with the bearer name: the link
	// monitor sees every arrival, and replies that must ride the arrival
	// link (ARQ acks, probe echoes) know where to go.
	for _, br := range n.bearers {
		br := br
		br.tr.SetHandler(func(pkt transport.Packet) {
			br.mon.SawRx(pkt.From, n.clk.Now())
			n.ingress.Enqueue(br.name, pkt)
		})
	}
	if n.stream != nil {
		n.stream.SetHandler(n.handlePacket)
	}
	// Discovery rides every bearer: digests and deltas go out on each live
	// link and receivers dedup the copies, so peer liveness survives any
	// single bearer's blackout.
	for _, br := range n.bearers {
		if err := br.tr.Join(fabric.DiscoveryGroup); err != nil {
			n.ingress.Close()
			n.egress.Close()
			return nil, fmt.Errorf("core: join discovery on %q: %w", br.name, err)
		}
	}

	n.wg.Add(2)
	clock.Go(clk, n.discoveryLoop)
	clock.Go(clk, n.offerFlushLoop)
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

// Types returns the node's type registry.
func (n *Node) Types() *presentation.Registry { return n.types }

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
	for _, br := range n.bearers {
		if err := br.tr.Join(group); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Leave implements fabric.Fabric: leaves the group on every bearer.
func (n *Node) Leave(group string) error {
	var firstErr error
	for _, br := range n.bearers {
		if err := br.tr.Leave(group); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reliable is what an acknowledged send adds to a transmit: where the
// message goes if not onto ARQ, its per-message tuning, and the completion
// callback.
type reliable struct {
	// stream routes the frame over the stream transport instead of ARQ.
	stream bool
	tune   protocol.SendTuning
	done   func(error)
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

// wireBuf returns the buffer one outgoing datagram is built in. Normally it
// is pooled: the egress plane owns it from the enqueue on and recycles it
// after the wire write. A datagram ARQ retains until the peer acknowledges
// it is exact-size and GC-owned instead.
func wireBuf(size int, retained bool) []byte {
	if retained {
		//wirepath:alloc ARQ holds the datagram for retransmission until it is acknowledged
		return make([]byte, 0, size)
	}
	return bufpool.Get(size)
}

// transmit is the container's one path from a frame to the wire: assign
// the seq, encode once, loop back a frame addressed to this node, split
// what exceeds the MTU, and hand each datagram to the egress plane —
// directly and plane-owned for best-effort traffic, through ARQ (which
// keeps the bytes and re-enters the plane per retransmission) when rel is
// set. Every Send* method, the ack path and the link probes go through it.
func (n *Node) transmit(d egress.Dest, f *protocol.Frame, rel *reliable) error {
	// A batch's outer header carries no sequence semantics; its zero Seq
	// is not "unassigned".
	if f.Seq == 0 && f.Type != protocol.MTBatch {
		f.Seq = n.NextSeq()
	}
	loopback := d.Node == n.id
	stream := rel != nil && rel.stream && !loopback
	// Only datagrams are acknowledged by ARQ and face the MTU; the
	// dispatcher and the stream transport need neither.
	datagram := !loopback && !stream
	viaARQ := rel != nil && datagram
	if viaARQ {
		f.Flags |= protocol.FlagAckRequired
	}
	size := protocol.FrameWireSize(f)
	split := datagram && size > n.mtu
	buf := wireBuf(size, viaARQ && !split)
	raw, err := protocol.AppendFrame(buf, f)
	if err != nil {
		bufpool.Put(buf)
		return rel.complete(err)
	}
	switch {
	case loopback:
		// Straight through the dispatcher, which is synchronous and
		// retains nothing.
		n.handleFrameBytes(n.id, raw)
		bufpool.Put(raw)
		return rel.complete(nil)
	case stream:
		err := n.stream.Send(d.Node, raw)
		bufpool.Put(raw)
		return rel.complete(err)
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

// transmitSplit is transmit's over-MTU tail: raw, the encoded frame f, goes
// out as MTFragment datagrams that each fit the MTU.
func (n *Node) transmitSplit(d egress.Dest, f *protocol.Frame, raw []byte, rel *reliable) error {
	viaARQ := rel != nil
	parts, err := protocol.Split(raw, f.Seq, n.mtu)
	if err != nil {
		return rel.complete(err)
	}
	// Best-effort fragments share the message id as their seq. Reliable
	// ones are acknowledged and deduplicated one by one, each under its
	// own seq, and the message completes when all of them have.
	frag, seq, flags := rel, f.Seq, uint8(0)
	if viaARQ {
		frag = &reliable{tune: rel.tune, done: allAcked(parts.Count(), rel.done)}
		flags = protocol.FlagAckRequired
	}
	for i := 0; i < parts.Count(); i++ {
		if viaARQ {
			seq = n.NextSeq()
		}
		part := parts.Append(wireBuf(parts.WireSize(i), viaARQ), i, seq, flags)
		if err := n.enqueue(d, f.Priority, seq, part, frag); err != nil {
			return frag.complete(err)
		}
	}
	return nil
}

// enqueue hands one encoded datagram to the egress plane — which then owns
// the pooled buffer — or, for a reliable send, registers it with ARQ under
// seq; ARQ makes the first transmission and every retry through the plane.
func (n *Node) enqueue(d egress.Dest, pr qos.Priority, seq uint64, raw []byte, rel *reliable) error {
	if rel == nil {
		return n.egress.EnqueueTo(d, pr, raw, true)
	}
	return n.arq.SendTuned(d.Node, seq, raw, rel.tune, rel.done)
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

// SendReliable implements fabric.Fabric with engine-default ARQ tuning.
func (n *Node) SendReliable(to transport.NodeID, f *protocol.Frame, rel qos.Reliability, done func(error)) {
	n.SendReliableTuned(to, f, rel, fabric.ReliableOpts{}, done)
}

// SendReliableTuned implements fabric.TunedSender: SendReliable with
// per-send ARQ timeout/retry overrides carried from the primitive's QoS.
func (n *Node) SendReliableTuned(to transport.NodeID, f *protocol.Frame, rel qos.Reliability, opts fabric.ReliableOpts, done func(error)) {
	// transmit reports every reliable outcome through done.
	_ = n.transmit(egress.Dest{Node: to}, f, &reliable{
		stream: rel == qos.ReliableStream && n.stream != nil,
		tune:   protocol.SendTuning{Timeout: opts.AckTimeout, MaxRetries: opts.MaxRetries},
		done:   done,
	})
}

var (
	_ fabric.Fabric       = (*Node)(nil)
	_ fabric.TunedSender  = (*Node)(nil)
	_ fabric.Instrumented = (*Node)(nil)
)

// recvShard is one ingress shard's protocol-layer state. Dedup windows and
// reassembly are source-keyed, and the pipeline hashes packets by source,
// so each peer's state lives on exactly one shard and the pre-pipeline
// global dedup lock is gone (the embedded mutexes survive only for the
// rare cross-shard Forget on peer failure). The ack fields are the drain
// batch's coalescing scratch, touched only by the owning shard worker.
type recvShard struct {
	dedup *protocol.Dedup
	reasm *protocol.Reassembler
	// coalesce batches acks generated within one pipeline drain into a
	// single MTBatch per (bearer, peer) at batch end. Off for the local
	// shard: its callers dispatch one frame at a time, synchronously.
	coalesce bool
	acks     []pendingAck
	seqs     []uint64
	ackBuf   []byte // ack batch payload under construction
}

// pendingAck is one acknowledgment owed at the end of a drain batch.
type pendingAck struct {
	bearer string
	to     transport.NodeID
	seq    uint64
	done   bool
}

func newRecvShard(clk clock.Clock, coalesce bool) *recvShard {
	return &recvShard{
		dedup:    protocol.NewDedup(0),
		reasm:    protocol.NewReassembler(0, clk),
		coalesce: coalesce,
	}
}

// maxBatchNesting bounds MTBatch recursion. Depth 0 is a batch arriving as
// its own datagram (egress coalescing); depth 1 is a batch inside that
// batch (a coalesced ack batch riding an egress batch). Anything deeper
// cannot be produced by this stack and is rejected as a protocol violation
// rather than recursed into — a hostile or corrupt nested batch must not
// turn the dispatcher into unbounded recursion.
const maxBatchNesting = 2

// deliverBatch is the ingress pipeline's dispatch callback: one shard
// worker hands over a drain batch in per-source arrival order. Frame
// payloads alias the pipeline's pooled buffers, which stay alive for the
// duration of this call — every route handler consumes its payload
// synchronously (copying whatever it keeps), so no per-frame heap copy is
// taken.
func (n *Node) deliverBatch(shard int, batch []ingress.Packet) {
	sh := n.shards[shard]
	for i := range batch {
		n.handleFrameOn(sh, batch[i].Bearer, batch[i].From, batch[i].Payload, 0)
	}
	n.flushAcks(sh)
}

// handlePacket is the stream transport's receive entry point (bearer-less).
func (n *Node) handlePacket(pkt transport.Packet) {
	n.handleFrameBytes(pkt.From, pkt.Payload)
}

// handleFrameBytes decodes and routes one frame with no bearer attribution
// (local bypass, stream transport), synchronously on the caller's
// goroutine — these paths never enter the pipeline and use the dedicated
// local shard state.
func (n *Node) handleFrameBytes(from transport.NodeID, raw []byte) {
	n.handleFrameOn(n.local, "", from, raw, 0)
}

// handleFrameOn decodes and routes one frame that arrived on the named
// bearer ("" when no datagram bearer carried it) using the given shard's
// protocol state. depth counts MTBatch nesting.
func (n *Node) handleFrameOn(sh *recvShard, bearer string, from transport.NodeID, raw []byte, depth int) {
	// The frame struct is pooled: every route handler consumes it
	// synchronously and none retains the pointer past its call (the rpc
	// engine captures scalars before scheduling handler work).
	f := protocol.GetFrame()
	if err := protocol.DecodeFrameInto(f, raw); err != nil {
		protocol.PutFrame(f)
		uerr.Note(n.metrics, codeFrameDecode, err, "drop undecodable frame")
		return
	}
	n.handleFrame(sh, bearer, from, f, depth)
	protocol.PutFrame(f)
}

func (n *Node) handleFrame(sh *recvShard, bearer string, from transport.NodeID, f *protocol.Frame, depth int) {
	// Every ack-required frame from a peer — whole message or single
	// fragment — is acknowledged, even when it is a retransmission whose
	// first copy was already delivered (the ack was lost), and then
	// delivered at most once.
	if from != n.id && f.Flags&protocol.FlagAckRequired != 0 {
		n.queueAck(sh, bearer, from, f.Seq)
		if sh.dedup.Seen(from, f.Seq) {
			return
		}
	}
	switch f.Type {
	case protocol.MTAck:
		n.arq.Ack(from, f.Seq)
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
			n.handleFrameOn(sh, bearer, from, sub, depth+1)
		}
	case protocol.MTFragment:
		complete, err := sh.reasm.Offer(from, f)
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
		if from == n.id || !sh.dedup.Seen(from, inner.Seq) {
			n.route(bearer, from, inner)
		}
		protocol.PutFrame(inner)
	default:
		// No payload copy: the bytes alias the pipeline's pooled receive
		// buffer (or the bypass caller's encode buffer), alive until the
		// dispatch returns; route handlers copy whatever they retain.
		n.route(bearer, from, f)
	}
}

// queueAck records an acknowledgment owed for (bearer, to, seq). On a
// pipeline shard it is deferred to the end of the drain batch so acks to
// the same peer coalesce into one datagram; on the local shard it goes out
// immediately.
func (n *Node) queueAck(sh *recvShard, bearer string, to transport.NodeID, seq uint64) {
	if !sh.coalesce {
		// The local shard's callers run concurrently: no shared scratch.
		n.sendAcks(sh, bearer, to, []uint64{seq})
		return
	}
	sh.acks = append(sh.acks, pendingAck{bearer: bearer, to: to, seq: seq})
}

// flushAcks sends every acknowledgment queued during a drain batch,
// grouped per (bearer, peer).
func (n *Node) flushAcks(sh *recvShard) {
	acks := sh.acks
	for i := range acks {
		if acks[i].done {
			continue
		}
		bearer, to := acks[i].bearer, acks[i].to
		sh.seqs = sh.seqs[:0]
		for j := i; j < len(acks); j++ {
			if !acks[j].done && acks[j].bearer == bearer && acks[j].to == to {
				acks[j].done = true
				sh.seqs = append(sh.seqs, acks[j].seq)
			}
		}
		n.sendAcks(sh, bearer, to, sh.seqs)
	}
	sh.acks = sh.acks[:0]
}

// sendAcks acknowledges seqs to one peer: a lone ack as a plain MTAck,
// several as one MTBatch of MTAck frames — one egress enqueue and one wire
// packet where a drained burst would have produced an ack datagram per
// frame — and a burst too long for one datagram as several such batches.
//
// Acks ride the critical lane: a delayed ack inflates the peer's ARQ RTT
// and triggers spurious retransmissions exactly when a link is congested
// with lower-class traffic. They are pinned to the bearer the data arrived
// on, so acknowledgment traffic keeps measuring (and keeping alive) the
// same link as the data it acknowledges. A refused enqueue (node closing)
// is counted, not returned: the peer's ARQ retry is the recovery path.
func (n *Node) sendAcks(sh *recvShard, bearer string, to transport.NodeID, seqs []uint64) {
	d := egress.Dest{Node: to, Bearer: bearer}
	ack := protocol.Frame{Type: protocol.MTAck, Priority: qos.PriorityCritical}
	perDatagram := max(1, (n.mtu-protocol.BatchOverhead(0))/(protocol.BatchEntryOverhead+protocol.FrameWireSize(&ack)))
	for len(seqs) > 0 {
		now := seqs[:min(len(seqs), perDatagram)]
		seqs = seqs[len(now):]
		if len(now) == 1 {
			ack.Seq = now[0]
			uerr.Note(n.metrics, codeAckSend, n.transmit(d, &ack, nil), "enqueue ack")
			continue
		}
		batch := protocol.Frame{Type: protocol.MTBatch, Priority: qos.PriorityCritical, Payload: sh.ackBuf[:0]}
		for _, seq := range now {
			ack.Seq = seq
			// Cannot fail: an ack has a valid type and no channel or budget.
			batch.Payload, _ = protocol.AppendBatchEntry(batch.Payload, &ack)
		}
		sh.ackBuf = batch.Payload
		uerr.Note(n.metrics, codeAckSend, n.transmit(d, &batch, nil), "enqueue ack batch")
	}
}

// route dispatches a frame to its engine.
func (n *Node) route(bearer string, from transport.NodeID, f *protocol.Frame) {
	switch f.Type {
	case protocol.MTAnnounce:
		n.handleAnnounce(from, f)
	case protocol.MTHeartbeat:
		n.handleHeartbeat(from, f)
	case protocol.MTAnnounceDelta:
		n.handleAnnounceDelta(from, f)
	case protocol.MTSyncReq:
		n.handleSyncReq(from, f)
	case protocol.MTSyncRep:
		n.handleSyncRep(from, f)
	case protocol.MTBye:
		n.handleBye(from)
	case protocol.MTProbe:
		n.handleProbe(bearer, from, f)
	case protocol.MTProbeEcho:
		n.handleProbeEcho(bearer, f)
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
		n.rpc.HandleReturn(from, f)
	case protocol.MTError:
		n.rpc.HandleError(from, f)
	case protocol.MTBusy:
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

// --- discovery ---

// The discovery plane is incremental: registrations multicast a compact
// versioned MTAnnounceDelta the moment they happen (one network hop of
// discovery latency), the periodic beacon is a constant-size MTHeartbeat
// digest — O(nodes) steady-state wire cost instead of O(total records) —
// and receivers that observe a version gap, an unknown node, or a fresh
// epoch pull the full record set unicast over ARQ (MTSyncReq/MTSyncRep),
// chunked under the MTU.

// discoveryCounters holds the discovery plane's pre-resolved counter
// handles in the node registry ("discovery" component). Resolution
// happens once at construction; increments are lock-free atomics.
// Failure counts have no handles here — they live in the
// "discovery.errors" family, fed by uerr construction, and
// Node.DiscoveryStats reads them back as category sums.
type discoveryCounters struct {
	heartbeatsSent   *metrics.Counter
	heartbeatsRecv   *metrics.Counter
	deltasSent       *metrics.Counter
	deltasRecv       *metrics.Counter
	fullSent         *metrics.Counter
	syncReqsSent     *metrics.Counter
	syncReqsServed   *metrics.Counter
	syncChunksSent   *metrics.Counter
	syncDeltaReplies *metrics.Counter
	syncApplied      *metrics.Counter
	syncsTriggered   *metrics.Counter
}

func newDiscoveryCounters(reg *metrics.Registry) discoveryCounters {
	c := func(name string) *metrics.Counter { return reg.Counter("discovery", name) }
	return discoveryCounters{
		heartbeatsSent:   c("heartbeats_sent"),
		heartbeatsRecv:   c("heartbeats_received"),
		deltasSent:       c("deltas_sent"),
		deltasRecv:       c("deltas_received"),
		fullSent:         c("full_announces_sent"),
		syncReqsSent:     c("sync_requests_sent"),
		syncReqsServed:   c("sync_requests_served"),
		syncChunksSent:   c("sync_chunks_sent"),
		syncDeltaReplies: c("sync_delta_replies"),
		syncApplied:      c("sync_replies_applied"),
		syncsTriggered:   c("syncs_triggered"),
	}
}

// DiscoveryStats is a snapshot of the discovery plane's counters.
type DiscoveryStats struct {
	// HeartbeatsSent / HeartbeatsReceived count MTHeartbeat digests.
	HeartbeatsSent, HeartbeatsReceived uint64
	// DeltasSent / DeltasReceived count MTAnnounceDelta frames.
	DeltasSent, DeltasReceived uint64
	// FullAnnouncesSent counts full-state MTAnnounce broadcasts (startup
	// and explicit AnnounceNow).
	FullAnnouncesSent uint64
	// SyncRequestsSent / SyncRequestsServed count MTSyncReq frames sent
	// and answered; SyncDeltaReplies counts answers served as compact
	// catch-up deltas from the log history; SyncChunksSent counts the
	// MTSyncRep chunks of full-snapshot answers; SyncRepliesApplied
	// counts fully assembled snapshots installed into the directory.
	SyncRequestsSent, SyncRequestsServed uint64
	// SyncRequestsDropped counts requests shed by the concurrent-serve
	// cap; the requester retries on its next heartbeat.
	SyncRequestsDropped                uint64
	SyncDeltaReplies                   uint64
	SyncChunksSent, SyncRepliesApplied uint64
	// SyncsTriggered counts gap/epoch/unknown-node detections, including
	// ones suppressed by per-peer throttling.
	SyncsTriggered uint64
	// Malformed counts discovery frames dropped as undecodable or
	// mis-attributed (payload node != sender).
	Malformed uint64
	// EncodeErrors counts local encode failures (previously discarded
	// silently). SendErrors counts frames the egress plane refused
	// (node closing): since transmission drains asynchronously through
	// the plane, "sent" here means accepted into an egress lane, and
	// post-enqueue transport failures or overflow drops are accounted in
	// EgressStats, not per discovery frame.
	EncodeErrors, SendErrors uint64
}

// DiscoveryStats snapshots the discovery plane counters. It is a view
// over the node registry: plain counters read their handles, the failure
// fields sum the "discovery.errors" family by category.
func (n *Node) DiscoveryStats() DiscoveryStats {
	cat := func(c uerr.Category) uint64 {
		return n.metrics.SumCounters("discovery", "errors", metrics.L("category", c.String()))
	}
	return DiscoveryStats{
		HeartbeatsSent:      n.disco.heartbeatsSent.Value(),
		HeartbeatsReceived:  n.disco.heartbeatsRecv.Value(),
		DeltasSent:          n.disco.deltasSent.Value(),
		DeltasReceived:      n.disco.deltasRecv.Value(),
		FullAnnouncesSent:   n.disco.fullSent.Value(),
		SyncRequestsSent:    n.disco.syncReqsSent.Value(),
		SyncRequestsServed:  n.disco.syncReqsServed.Value(),
		SyncRequestsDropped: cat(uerr.CatAdmission),
		SyncDeltaReplies:    n.disco.syncDeltaReplies.Value(),
		SyncChunksSent:      n.disco.syncChunksSent.Value(),
		SyncRepliesApplied:  n.disco.syncApplied.Value(),
		SyncsTriggered:      n.disco.syncsTriggered.Value(),
		Malformed:           cat(uerr.CatDecode) + cat(uerr.CatProtocol),
		EncodeErrors:        cat(uerr.CatEncode),
		SendErrors:          cat(uerr.CatSend),
	}
}

// discoveryLoop beacons this node's digest and sweeps dead peers.
func (n *Node) discoveryLoop() {
	defer n.wg.Done()
	ticker := n.clk.NewTicker(n.announcePeriod)
	defer ticker.Stop()
	for ticker.Wait(n.stop) {
		// Introduce the node with one full-state announcement; from then
		// on the beacon is the constant-size digest. Introduction rides
		// the first tick (or an earlier explicit AnnounceNow) rather than
		// the loop's spawn: NewNode returns into the caller's
		// registration burst, and announcing concurrently with it would
		// race the record log against flushOffer — the full announce and
		// the first delta would split the offer nondeterministically.
		n.announceMu.Lock()
		introduced := n.introduced
		n.announceMu.Unlock()
		if !introduced {
			n.announceNow()
			n.sweep()
			n.bearerSweep(n.clk.Now())
			n.events.Refresh()
			continue
		}
		n.heartbeatNow()
		n.sweep()
		n.bearerSweep(n.clk.Now())
		n.events.Refresh()
	}
}

// buildRecords assembles this node's current offer from the engines and
// service table, plus one KindBearer record per datalink so peers learn
// which bearers can reach this node (and at what address, on transports
// with a dialable one). Bearer reachability rides the ordinary offer log:
// it propagates through the same deltas, digests and anti-entropy syncs as
// every other record.
func (n *Node) buildRecords() []naming.Record {
	recs := n.vars.Records()
	recs = append(recs, n.events.Records()...)
	recs = append(recs, n.rpc.Records()...)
	recs = append(recs, n.files.Records()...)
	for _, br := range n.bearers {
		rec := naming.Record{Kind: naming.KindBearer, Name: br.name, Node: n.id}
		if a, ok := br.tr.(transport.Addressable); ok {
			rec.Service = a.LocalAddr()
		}
		recs = append(recs, rec)
	}
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

// announceNow broadcasts the node's full offer and applies it locally so
// local lookups resolve without a network round trip. The record log is
// synchronized first so the announcement carries the right version.
func (n *Node) announceNow() {
	n.announceMu.Lock()
	defer n.announceMu.Unlock()
	n.introduced = true
	recs := n.buildRecords()
	// Update returns the current version whether or not anything changed.
	_, _, _, version, _ := n.log.Update(recs)
	ann := &naming.Announcement{
		Node:    n.id,
		Epoch:   n.epoch,
		Version: version,
		Load:    n.defaultLoad(),
		Records: recs,
	}
	n.dir.Apply(ann, n.clk.Now())
	payload, err := naming.EncodeAnnouncement(ann)
	if err != nil {
		uerr.Note(n.metrics, codeAnnounceEncode, err, "encode full announce")
		return
	}
	if err := n.broadcast(protocol.MTAnnounce, payload); err != nil {
		uerr.Note(n.metrics, codeAnnounceSend, err, "broadcast full announce")
		return
	}
	n.disco.fullSent.Inc()
}

// broadcast multicasts one discovery frame to the fleet.
func (n *Node) broadcast(t protocol.MsgType, payload []byte) error {
	return n.SendGroup(fabric.DiscoveryGroup, &protocol.Frame{Type: t, Priority: qos.PriorityNormal, Payload: payload})
}

// OfferChanged implements fabric.Fabric: engines call it after any
// registration or withdrawal. It signals the flush loop, which diffs the
// offer against the versioned record log and multicasts the delta — new
// resources become resolvable fleet-wide after one network hop instead of
// one announce period. The trigger coalesces, so a burst of registrations
// (a service bringing up hundreds of resources in a loop) collapses into a
// handful of batched deltas instead of one frame each: total wire cost
// stays O(records registered), and the bounded catch-up history in the log
// covers far larger version gaps.
func (n *Node) OfferChanged() {
	n.offerDirty.Signal()
}

// offerFlushLoop turns OfferChanged signals into delta broadcasts.
func (n *Node) offerFlushLoop() {
	defer n.wg.Done()
	for n.offerDirty.Wait(-1, n.stop) {
		n.flushOffer()
	}
}

// flushOffer diffs the current offer against the record log and multicasts
// one delta covering everything that changed since the previous flush.
func (n *Node) flushOffer() {
	n.announceMu.Lock()
	defer n.announceMu.Unlock()
	// Before the introduction announce there is no delta to send: peers
	// hold no prior version to diff against, and the registrations
	// accumulated so far ride the full-state announce that introduces the
	// node. Leaving the log untouched here is what makes bootstrap
	// deterministic — whichever of flushOffer and the first announce runs
	// first, the whole offer goes out in the announce, never split with a
	// racing version-zero delta.
	if !n.introduced {
		return
	}
	recs := n.buildRecords()
	added, withdrawn, from, to, changed := n.log.Update(recs)
	if !changed {
		return
	}
	now := n.clk.Now()
	load := n.defaultLoad()
	// Local lookups must resolve without waiting for the multicast.
	n.dir.Apply(&naming.Announcement{
		Node: n.id, Epoch: n.epoch, Version: to, Load: load, Records: recs,
	}, now)
	payload, err := naming.EncodeDelta(&naming.Delta{
		Node: n.id, Epoch: n.epoch, From: from, To: to, Load: load,
		Added: added, Withdrawn: withdrawn,
	})
	if err != nil {
		uerr.Note(n.metrics, codeDeltaEncode, err, "encode offer delta")
		return
	}
	if err := n.broadcast(protocol.MTAnnounceDelta, payload); err != nil {
		uerr.Note(n.metrics, codeDeltaSend, err, "broadcast offer delta")
		return
	}
	n.disco.deltasSent.Inc()
}

// heartbeatNow multicasts the constant-size liveness digest.
func (n *Node) heartbeatNow() {
	payload, err := naming.EncodeDigest(&naming.Digest{
		Node:        n.id,
		Epoch:       n.epoch,
		Version:     n.log.Version(),
		Load:        n.defaultLoad(),
		RecordCount: uint32(n.log.Count()),
	})
	if err != nil {
		uerr.Note(n.metrics, codeHeartbeatEnc, err, "encode digest")
		return
	}
	if err := n.broadcast(protocol.MTHeartbeat, payload); err != nil {
		uerr.Note(n.metrics, codeHeartbeatSend, err, "broadcast digest")
		return
	}
	n.disco.heartbeatsSent.Inc()
}

func (n *Node) handleAnnounce(from transport.NodeID, f *protocol.Frame) {
	ann, err := naming.DecodeAnnouncement(f.Payload)
	if err != nil {
		uerr.Note(n.metrics, codeDiscoMalformed, err, "announce decode")
		return
	}
	if ann.Node != from {
		uerr.Newf(n.metrics, codeNodeMismatch, "announce from %s claims node %s", from, ann.Node)
		return
	}
	if from == n.id {
		return
	}
	now := n.clk.Now()
	n.live.Touch(from, now)
	n.dir.Apply(ann, now)
	n.applyBearerOffer(from, ann.Records)
}

func (n *Node) handleHeartbeat(from transport.NodeID, f *protocol.Frame) {
	g, err := naming.DecodeDigest(f.Payload)
	if err != nil {
		uerr.Note(n.metrics, codeDiscoMalformed, err, "digest decode")
		return
	}
	if g.Node != from {
		uerr.Newf(n.metrics, codeNodeMismatch, "digest from %s claims node %s", from, g.Node)
		return
	}
	if from == n.id {
		return
	}
	n.disco.heartbeatsRecv.Inc()
	now := n.clk.Now()
	n.live.Touch(from, now)
	if n.dir.ApplyDigest(g, now) {
		n.requestSync(from)
	}
}

func (n *Node) handleAnnounceDelta(from transport.NodeID, f *protocol.Frame) {
	d, err := naming.DecodeDelta(f.Payload)
	if err != nil {
		uerr.Note(n.metrics, codeDiscoMalformed, err, "delta decode")
		return
	}
	if d.Node != from {
		uerr.Newf(n.metrics, codeNodeMismatch, "delta from %s claims node %s", from, d.Node)
		return
	}
	if from == n.id {
		return
	}
	n.disco.deltasRecv.Inc()
	now := n.clk.Now()
	n.live.Touch(from, now)
	n.applyBearerDelta(from, d.Added, d.Withdrawn)
	if n.dir.ApplyDelta(d, now) {
		n.requestSync(from)
	}
}

// requestSync asks a peer for its full record set, at most once per
// announce period per peer: if the request or its reply is lost, the next
// heartbeat re-detects the gap and retries.
func (n *Node) requestSync(to transport.NodeID) {
	n.disco.syncsTriggered.Inc()
	now := n.clk.Now()
	n.syncMu.Lock()
	if at, ok := n.syncReqAt[to]; ok && now.Sub(at) < n.announcePeriod {
		n.syncMu.Unlock()
		return
	}
	n.syncReqAt[to] = now
	n.syncMu.Unlock()
	epoch, version, _ := n.dir.NodeVersion(to)
	frame := &protocol.Frame{
		Type:     protocol.MTSyncReq,
		Priority: qos.PriorityHigh,
		Seq:      n.NextSeq(),
		Payload:  naming.EncodeSyncRequest(&naming.SyncRequest{KnownEpoch: epoch, KnownVersion: version}),
	}
	if err := n.SendBestEffort(to, frame); err != nil {
		uerr.Note(n.metrics, codeSyncReqSend, err, "send sync request")
		return
	}
	n.disco.syncReqsSent.Inc()
}

// syncFrameOverhead is headroom reserved for the frame header when sizing
// sync chunks so each rides in a single datagram.
const syncFrameOverhead = 64

// syncDeltaMaxRecords bounds the catch-up-delta reply: a gap touching more
// records than this is served as a chunked snapshot instead. Chunks ride
// one per datagram with independent ARQ, so a single lost packet costs one
// chunk retransmission — a multi-fragment mega-delta would fail whole.
const syncDeltaMaxRecords = 64

// maxConcurrentSyncServes caps full-state replies in flight per node. A
// thundering herd of requesters (mass join, partition heal) is served in
// rounds — the dropped requesters simply re-request on the next heartbeat —
// instead of flooding the medium until every reply misses its ARQ budget
// (congestion collapse).
const maxConcurrentSyncServes = 4

func (n *Node) handleSyncReq(from transport.NodeID, f *protocol.Frame) {
	req, err := naming.DecodeSyncRequest(f.Payload)
	if err != nil {
		uerr.Note(n.metrics, codeDiscoMalformed, err, "sync request decode")
		return
	}
	if from == n.id {
		return
	}
	n.live.Touch(from, n.clk.Now())
	// A requester only slightly behind in the current epoch gets a
	// compact catch-up delta from the log history — O(gap) wire bytes —
	// instead of the full chunked catalog. This keeps anti-entropy cheap
	// under registration churn, when version gaps are routine.
	if req.KnownEpoch == n.epoch {
		if added, withdrawn, to, ok := n.log.DeltaSince(req.KnownVersion); ok &&
			len(added)+len(withdrawn) <= syncDeltaMaxRecords {
			if to == req.KnownVersion {
				return // requester already current (racing digest)
			}
			payload, err := naming.EncodeDelta(&naming.Delta{
				Node: n.id, Epoch: n.epoch, From: req.KnownVersion, To: to,
				Load: n.defaultLoad(), Added: added, Withdrawn: withdrawn,
			})
			if err != nil {
				uerr.Note(n.metrics, codeSyncRepEncode, err, "encode catch-up delta")
				return
			}
			frame := &protocol.Frame{
				Type:     protocol.MTAnnounceDelta,
				Priority: qos.PriorityHigh,
				Seq:      n.NextSeq(),
				Payload:  payload,
			}
			n.SendReliable(from, frame, qos.ReliableARQ, func(err error) {
				uerr.Note(n.metrics, codeSyncRepSend, err, "deliver catch-up delta")
			})
			n.disco.syncReqsServed.Inc()
			n.disco.syncDeltaReplies.Inc()
			return
		}
	}
	if n.syncServing.Add(1) > maxConcurrentSyncServes {
		// At capacity: drop; the requester retries on its next heartbeat.
		n.syncServing.Add(-1)
		uerr.Newf(n.metrics, codeSyncShed, "serve cap %d reached, dropping request from %s",
			maxConcurrentSyncServes, from)
		return
	}
	recs, version := n.log.Snapshot()
	ann := &naming.Announcement{
		Node: n.id, Epoch: n.epoch, Version: version,
		Load: n.defaultLoad(), Records: recs,
	}
	chunks, err := naming.EncodeSyncChunks(ann, n.mtu-syncFrameOverhead)
	if err != nil {
		n.syncServing.Add(-1)
		uerr.Note(n.metrics, codeSyncRepEncode, err, "encode sync chunks")
		return
	}
	var outstanding atomic.Int64
	outstanding.Store(int64(len(chunks)))
	for _, chunk := range chunks {
		frame := &protocol.Frame{
			Type:     protocol.MTSyncRep,
			Priority: qos.PriorityHigh,
			Seq:      n.NextSeq(),
			Payload:  chunk,
		}
		n.SendReliable(from, frame, qos.ReliableARQ, func(err error) {
			uerr.Note(n.metrics, codeSyncRepSend, err, "deliver sync chunk")
			if outstanding.Add(-1) == 0 {
				n.syncServing.Add(-1)
			}
		})
	}
	n.disco.syncReqsServed.Inc()
	n.disco.syncChunksSent.Add(uint64(len(chunks)))
}

func (n *Node) handleSyncRep(from transport.NodeID, f *protocol.Frame) {
	c, err := naming.DecodeSyncChunk(f.Payload)
	if err != nil {
		uerr.Note(n.metrics, codeDiscoMalformed, err, "sync chunk decode")
		return
	}
	if c.Node != from {
		uerr.Newf(n.metrics, codeNodeMismatch, "sync chunk from %s claims node %s", from, c.Node)
		return
	}
	if from == n.id {
		return
	}
	n.syncMu.Lock()
	ann := n.syncAsm.Offer(c)
	n.syncMu.Unlock()
	if ann == nil {
		return
	}
	now := n.clk.Now()
	n.live.Touch(from, now)
	n.dir.Apply(ann, now)
	n.applyBearerOffer(from, ann.Records)
	n.disco.syncApplied.Inc()
}

func (n *Node) handleBye(from transport.NodeID) {
	if from == n.id {
		return
	}
	n.live.Forget(from)
	n.peerGone(from)
}

// --- bearer plane ---

// The bearer plane routes each egress frame onto one of the node's
// datalinks. Policy (qos.LinkPolicy, precomputed per class at
// construction) supplies the static preference order; the per-bearer link
// monitors supply dynamic health; discovery-advertised KindBearer records
// plus per-bearer receive history supply peer reachability. Selection runs
// per enqueue, so an ARQ retransmission re-selects — a frame stranded on a
// bearer that blacks out follows its class's failover order on the next
// retry, and bearerSweep additionally reroutes whole queues the moment a
// monitor declares a bearer down.

// bearerSelector adapts the node to egress.Selector without exporting the
// selection methods on Node.
type bearerSelector struct{ n *Node }

func (s bearerSelector) Unicast(to transport.NodeID, pr qos.Priority) string {
	return s.n.selectBearer(to, pr)
}

func (s bearerSelector) Group(group string, pr qos.Priority) []string {
	return s.n.selectGroupBearers(group, pr)
}

// classBearerOrder returns the policy order for a priority (defaulting
// out-of-range priorities to PriorityNormal, mirroring the egress plane).
func (n *Node) classBearerOrder(pr qos.Priority) []string {
	i := pr.Index()
	if i < 0 {
		i = qos.PriorityNormal.Index()
	}
	return n.classOrder[i]
}

// selectBearer picks the bearer for one unicast frame: the first bearer in
// the class's policy order that is both healthy and believed able to reach
// the destination; failing that, the first that can reach it (a link the
// monitor calls down but the peer is known on beats a healthy link the
// peer was never seen on — sending into a maybe-down link can succeed,
// sending to a transport that has no address for the peer cannot);
// failing that, the first healthy bearer; failing everything, the class's
// primary.
func (n *Node) selectBearer(to transport.NodeID, pr qos.Priority) string {
	order := n.classBearerOrder(pr)
	now := n.clk.Now()
	firstReach, firstHealthy := "", ""
	for _, name := range order {
		br := n.bearerByName[name]
		if br == nil {
			continue
		}
		healthy := br.mon.Healthy(now)
		reach := br.mon.PeerHeard(to, now) || n.peerAdvertises(to, name)
		switch {
		case healthy && reach:
			return name
		case reach && firstReach == "":
			firstReach = name
		case healthy && firstHealthy == "":
			firstHealthy = name
		}
	}
	if firstReach != "" {
		return firstReach
	}
	if firstHealthy != "" {
		return firstHealthy
	}
	return order[0]
}

// selectGroupBearers picks the bearers for one group frame. Discovery
// rides every bearer — digests are constant-size, receivers dedup the
// copies, and a heartbeat on each link is what keeps every link monitor
// fed for free — while data groups ride the class's preferred healthy
// bearer only.
func (n *Node) selectGroupBearers(group string, pr qos.Priority) []string {
	if group == fabric.DiscoveryGroup {
		names := make([]string, len(n.bearers))
		for i, br := range n.bearers {
			names[i] = br.name
		}
		return names
	}
	order := n.classBearerOrder(pr)
	now := n.clk.Now()
	for _, name := range order {
		if br := n.bearerByName[name]; br != nil && br.mon.Healthy(now) {
			return []string{name}
		}
	}
	return order[:1]
}

// peerAdvertises reports whether the peer's discovered offer includes the
// named bearer.
func (n *Node) peerAdvertises(peer transport.NodeID, bearer string) bool {
	n.reachMu.RLock()
	defer n.reachMu.RUnlock()
	return n.reach[peer][bearer]
}

// applyBearerOffer replaces the cached bearer set for a peer from a full
// offer (announce or assembled sync), and keeps PeerBook transports'
// address books in step with the advertised per-bearer addresses.
func (n *Node) applyBearerOffer(peer transport.NodeID, recs []naming.Record) {
	if peer == n.id {
		return
	}
	set := make(map[string]string)
	for _, rec := range recs {
		if rec.Kind == naming.KindBearer {
			set[rec.Name] = rec.Service // Service carries the dialable address
		}
	}
	n.reachMu.Lock()
	old := n.reach[peer]
	if len(set) == 0 {
		delete(n.reach, peer)
	} else {
		m := make(map[string]bool, len(set))
		for name := range set {
			m[name] = true
		}
		n.reach[peer] = m
	}
	n.reachMu.Unlock()
	for name, addr := range set {
		n.addBearerPeer(name, peer, addr)
	}
	for name := range old {
		if _, still := set[name]; !still {
			n.removeBearerPeer(name, peer)
		}
	}
}

// applyBearerDelta updates the cached bearer set from an incremental
// offer delta.
func (n *Node) applyBearerDelta(peer transport.NodeID, added []naming.Record, withdrawn []naming.RecordKey) {
	if peer == n.id {
		return
	}
	for _, rec := range added {
		if rec.Kind != naming.KindBearer {
			continue
		}
		n.reachMu.Lock()
		m := n.reach[peer]
		if m == nil {
			m = make(map[string]bool)
			n.reach[peer] = m
		}
		m[rec.Name] = true
		n.reachMu.Unlock()
		n.addBearerPeer(rec.Name, peer, rec.Service)
	}
	for _, key := range withdrawn {
		if key.Kind != naming.KindBearer {
			continue
		}
		n.reachMu.Lock()
		delete(n.reach[peer], key.Name)
		if len(n.reach[peer]) == 0 {
			delete(n.reach, peer)
		}
		n.reachMu.Unlock()
		n.removeBearerPeer(key.Name, peer)
	}
}

// addBearerPeer installs a peer's advertised address into the matching
// local bearer's address book, when that bearer's transport has one.
func (n *Node) addBearerPeer(bearer string, peer transport.NodeID, addr string) {
	br := n.bearerByName[bearer]
	if br == nil || addr == "" || peer == n.id {
		return
	}
	if pb, ok := br.tr.(transport.PeerBook); ok {
		_ = pb.AddPeer(peer, addr)
	}
}

// removeBearerPeer drops a departed peer from the matching local bearer's
// address book.
func (n *Node) removeBearerPeer(bearer string, peer transport.NodeID) {
	br := n.bearerByName[bearer]
	if br == nil {
		return
	}
	if pb, ok := br.tr.(transport.PeerBook); ok {
		pb.RemovePeer(peer)
	}
}

// handleProbe answers a link-monitor probe: echo the payload back on the
// bearer it arrived on. The probe rides PriorityHigh so a congested bulk
// lane cannot make a live link look dead.
func (n *Node) handleProbe(bearer string, from transport.NodeID, f *protocol.Frame) {
	if from == n.id {
		return
	}
	echo := &protocol.Frame{
		Type:     protocol.MTProbeEcho,
		Priority: qos.PriorityHigh,
		Seq:      n.NextSeq(),
		Payload:  f.Payload,
	}
	uerr.Note(n.metrics, codeProbeSend, n.transmit(egress.Dest{Node: from, Bearer: bearer}, echo, nil), "enqueue probe echo")
}

// handleProbeEcho closes a probe round trip on the bearer that carried it.
func (n *Node) handleProbeEcho(bearer string, f *protocol.Frame) {
	br := n.bearerByName[bearer]
	if br == nil {
		return
	}
	r := encoding.NewReader(f.Payload)
	nonce := r.Uint64()
	if r.Err() != nil {
		return
	}
	br.mon.ProbeEchoed(nonce, n.clk.Now())
}

// bearerSweep runs once per announce period on multi-bearer nodes: it
// probes bearers that have gone quiet (a healthy bearer is never quiet —
// discovery digests ride every bearer every period — so silence means the
// link, not the fleet), and on a healthy→down transition reroutes the dead
// bearer's queued frames through the selector so failover happens within
// the failure deadline instead of waiting for per-frame retries.
func (n *Node) bearerSweep(now time.Time) {
	if len(n.bearers) <= 1 {
		return
	}
	for _, br := range n.bearers {
		if br.mon.Idle(now, n.announcePeriod) && now.Sub(br.mon.LastProbe()) >= n.announcePeriod {
			n.probeBearer(br, now)
		}
		if br.mon.Healthy(now) {
			br.wasDown.Store(false)
			continue
		}
		if !br.wasDown.Swap(true) {
			n.egress.Reroute(br.name)
		}
	}
}

// probeBearer sends one MTProbe to every live peer expected on the bearer.
// Probes keep flowing while the bearer is down, which is how its recovery
// is detected: the first echo marks it healthy again and traffic fails
// back per policy.
func (n *Node) probeBearer(br *bearerRuntime, now time.Time) {
	for _, peer := range n.live.Peers() {
		if !br.mon.PeerKnown(peer) && !n.peerAdvertises(peer, br.name) {
			continue
		}
		w := encoding.NewWriter(8)
		w.Uint64(br.mon.NextProbe(now))
		frame := &protocol.Frame{
			Type:     protocol.MTProbe,
			Priority: qos.PriorityHigh,
			Seq:      n.NextSeq(),
			Payload:  w.Bytes(),
		}
		uerr.Note(n.metrics, codeProbeSend, n.transmit(egress.Dest{Node: peer, Bearer: br.name}, frame, nil), "enqueue probe")
	}
}

// LinkStats describes one bearer's declared profile and observed state —
// one uniform shape per link whatever transport backs it.
type LinkStats struct {
	// Name is the bearer name; Profile its declared characteristics.
	Name    string
	Profile qos.BearerProfile
	// Healthy mirrors the link monitor's verdict at snapshot time.
	Healthy bool
	// Link is the monitor's quality report (last-heard, probe RTT EWMA,
	// probe loss, peers heard).
	Link link.Report
	// Transport is the bearer transport's counter snapshot.
	Transport transport.Stats
	// Egress is the bearer's egress-lane snapshot (per-class queued/sent/
	// dropped, pacer waits, reroutes).
	Egress egress.Stats
}

// LinkStats snapshots every bearer, in registration order.
func (n *Node) LinkStats() []LinkStats {
	now := n.clk.Now()
	out := make([]LinkStats, 0, len(n.bearers))
	for _, br := range n.bearers {
		es, _ := n.egress.BearerStats(br.name)
		rep := br.mon.Report(now)
		out = append(out, LinkStats{
			Name:      br.name,
			Profile:   br.profile,
			Healthy:   rep.Healthy,
			Link:      rep,
			Transport: br.tr.Stats(),
			Egress:    es,
		})
	}
	return out
}

// Bearers lists the node's bearer names in registration order.
func (n *Node) Bearers() []string {
	out := make([]string, len(n.bearers))
	for i, br := range n.bearers {
		out[i] = br.name
	}
	return out
}

// sweep detects failed peers and expired directory entries.
func (n *Node) sweep() {
	now := n.clk.Now()
	// The node's own records never expire: the old full-state announce
	// re-applied them every tick; under digest beacons they are touched
	// explicitly instead.
	n.dir.TouchNode(n.id, now)
	for _, node := range n.live.Sweep(now) {
		n.peerGone(node)
	}
	// Records of live peers never expire out from under them: freshness
	// follows liveness (any discovery frame), so a queue-delayed or
	// version-skewed digest cannot purge a healthy node's catalog. The
	// directory TTL remains as a backstop for nodes liveness has lost.
	for _, node := range n.live.Peers() {
		n.dir.TouchNode(node, now)
	}
	for _, node := range n.dir.Expire(now) {
		if node == n.id {
			continue
		}
		// TTL expiry of every record is failure-equivalent.
		n.live.Forget(node)
		n.peerGone(node)
	}
}

// peerGone clears all state tied to a failed or departed node and notifies
// the engines and registered callbacks (§3 cache clearing + §4.3 failover).
func (n *Node) peerGone(node transport.NodeID) {
	n.dir.RemoveNode(node)
	// The peer's dedup window lives on the ingress shard its traffic
	// hashes to (plus the local-bypass shard); forget it there so a
	// rejoining peer starting from seq 1 is not silently dropped.
	n.shards[n.ingress.ShardOf(node)].dedup.Forget(node)
	n.local.dedup.Forget(node)
	n.syncMu.Lock()
	n.syncAsm.Forget(node)
	delete(n.syncReqAt, node)
	n.syncMu.Unlock()
	// Bearer plane: forget the peer's advertised reachability, its
	// per-bearer presence, and any address-book entries discovery
	// installed for it.
	n.reachMu.Lock()
	delete(n.reach, node)
	n.reachMu.Unlock()
	for _, br := range n.bearers {
		br.mon.ForgetPeer(node)
		if pb, ok := br.tr.(transport.PeerBook); ok {
			pb.RemovePeer(node)
		}
	}
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
func (n *Node) AnnounceNow() { n.announceNow() }

// OfferVersion reports the node's current record-log version. Remote
// directories citing the same version for this node hold its exact offer.
func (n *Node) OfferVersion() uint64 { return n.log.Version() }

// Peers lists peers currently believed alive.
func (n *Node) Peers() []transport.NodeID { return n.live.Peers() }

// Close sends a goodbye, stops loops, services and the scheduler.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()

	// Stop services in reverse start order.
	n.stopAllServices()

	// Goodbye to the fleet. A failed goodbye is counted, not fatal: peers
	// fall back to the failure deadline.
	bye := &protocol.Frame{Type: protocol.MTBye, Priority: qos.PriorityHigh, Seq: n.NextSeq()}
	uerr.Note(n.metrics, codeByeSend, n.SendGroup(fabric.DiscoveryGroup, bye), "broadcast goodbye")

	close(n.stop)
	clock.Blocking(n.clk, n.wg.Wait)
	// Drain the receive pipeline before the ARQ and egress planes go
	// down: queued arrivals still dispatch (final acks enqueue onto a
	// live egress), then the workers stop.
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
	for _, br := range n.bearers {
		if cerr := br.tr.Close(); err == nil {
			err = cerr
		}
	}
	if n.stream != nil {
		if serr := n.stream.Close(); err == nil {
			err = serr
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

// EgressStats snapshots the egress plane counters (per-class enqueued /
// sent / dropped / coalesced, pacing waits, transport errors).
func (n *Node) EgressStats() egress.Stats { return n.egress.Stats() }

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
	for _, br := range n.bearers {
		lb := metrics.L("bearer", br.name)
		rep := br.mon.Report(now)
		healthy := int64(0)
		if rep.Healthy {
			healthy = 1
		}
		n.metrics.Gauge("link", "healthy", lb).Set(healthy)
		n.metrics.Gauge("link", "rtt_us", lb).Set(rep.RTT.Microseconds())
		n.metrics.Gauge("link", "probe_loss_ppm", lb).Set(int64(rep.ProbeLoss * 1e6))
		n.metrics.Gauge("link", "peers_heard", lb).Set(int64(rep.PeersHeard))
		ts := br.tr.Stats()
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

// SetBulkRate re-shapes the *default bearer's* PriorityBulk egress lane at
// runtime (0 turns shaping off) — for links whose capacity is discovered
// or negotiated after the node starts. On a multi-bearer node only the
// first-registered bearer is affected; use SetBearerBulkRate to re-shape a
// named bearer.
func (n *Node) SetBulkRate(bps int64) { n.egress.SetBulkRate(bps) }

// SetBearerBulkRate re-shapes one named bearer's PriorityBulk lane at
// runtime (0 turns shaping off). It reports whether the bearer exists.
func (n *Node) SetBearerBulkRate(name string, bps int64) bool {
	return n.egress.SetBearerBulkRate(name, bps)
}

// FlushEgress blocks until every frame queued on the egress plane at call
// time has been handed to the transport. Tests and experiments use it to
// line wire-level measurements up with the asynchronous drain.
func (n *Node) FlushEgress() { n.egress.Flush() }
