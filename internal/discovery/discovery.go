// Package discovery implements the container's name-management plane (§3)
// as the fifth engine over fabric.Fabric, beside variables, events, rpc and
// file transfer: it announces this node's resource offer to the fleet,
// feeds the node's naming.Directory from what peers announce, and detects
// peers that fall silent.
//
// The plane is incremental: registrations multicast a compact versioned
// MTAnnounceDelta the moment they happen (one network hop of discovery
// latency), the periodic beacon is a constant-size MTHeartbeat digest —
// O(nodes) steady-state wire cost instead of O(total records) — and
// receivers that observe a version gap, an unknown node, or a fresh epoch
// pull the full record set unicast over ARQ (MTSyncReq/MTSyncRep), chunked
// under the MTU.
package discovery

import (
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/fabric"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// Wire-path error codes: every failure the plane would otherwise drop
// silently constructs through one of these, so the registry's
// "discovery.errors" family counts it by category the moment it happens.
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
	codeMalformed      = uerr.Register("discovery.frame_malformed", uerr.CatDecode)
	codeNodeMismatch   = uerr.Register("discovery.node_mismatch", uerr.CatProtocol)
)

// Config is what the container tells its discovery engine. The funcs are
// how the plane reaches the rest of the node without importing it.
type Config struct {
	// Epoch identifies this incarnation of the node; a restarted node
	// announces a larger one and displaces its previous offer.
	Epoch uint64
	// Period is the announce/heartbeat period. It also throttles sync
	// requests: at most one per peer per period.
	Period time.Duration
	// FailureDeadline is how long a silent peer survives.
	FailureDeadline time.Duration
	// MTU bounds each full-sync chunk so it rides in one datagram.
	MTU int
	// Offer assembles the node's current record set.
	Offer func() []naming.Record
	// Load reports the node's load figure carried in every beacon.
	Load func() float64
	// OfferApplied runs after the directory took a peer's announce, delta
	// or assembled sync: whatever the container derives from a peer's
	// records, it re-derives from the directory then. It may also run
	// for a duplicate delta the directory ignored, so the derivation must
	// read the directory, not the frame.
	OfferApplied func(peer transport.NodeID)
	// PeerGone runs after a failed or departed peer has been purged from
	// the directory and this engine (§3 cache clearing + §4.3 failover).
	PeerGone func(peer transport.NodeID)
	// Tick runs on the beacon goroutine after each period's beacon and
	// sweep, for the container's other per-period work.
	Tick func()
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

// counters holds the plane's pre-resolved handles in the node registry
// ("discovery" component). Failure counts have no handles here — they live
// in the "discovery.errors" family, fed by uerr construction.
type counters struct {
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

func newCounters(reg *metrics.Registry) counters {
	c := func(name string) *metrics.Counter { return reg.Counter("discovery", name) }
	return counters{
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

// Engine is the per-container discovery runtime.
type Engine struct {
	f    fabric.Fabric
	cfg  Config
	self transport.NodeID
	clk  clock.Clock
	reg  *metrics.Registry
	dir  *naming.Directory
	live *naming.Liveness
	ctr  counters

	// log is the versioned record of this node's own offer.
	log        *naming.Log
	announceMu sync.Mutex    // orders log updates with their broadcasts
	introduced bool          // a full-state announce has gone out (guarded by announceMu)
	offerDirty clock.Trigger // coalesces OfferChanged signals

	syncMu      sync.Mutex
	syncAsm     *naming.SyncAssembler
	syncReqAt   map[transport.NodeID]time.Time // per-peer request throttle
	syncServing atomic.Int64                   // full-state replies currently in flight

	stop chan struct{}
	wg   *clock.WaitGroup
}

// New builds the engine for a container; Start sets it beaconing.
func New(f fabric.Fabric, cfg Config) *Engine {
	clk := fabric.ClockOf(f)
	reg := fabric.MetricsOf(f)
	return &Engine{
		f:          f,
		cfg:        cfg,
		self:       f.Self(),
		clk:        clk,
		reg:        reg,
		dir:        f.Directory(),
		live:       naming.NewLiveness(cfg.FailureDeadline),
		ctr:        newCounters(reg),
		log:        naming.NewLog(),
		offerDirty: clock.NewTrigger(clk),
		syncAsm:    naming.NewSyncAssembler(),
		syncReqAt:  make(map[transport.NodeID]time.Time),
		stop:       make(chan struct{}),
		wg:         clock.NewWaitGroup(clk),
	}
}

// Start launches the beacon and offer-flush loops on the engine's clock.
func (e *Engine) Start() {
	e.wg.Add(2)
	clock.Go(e.clk, e.beaconLoop)
	clock.Go(e.clk, e.offerFlushLoop)
}

// Close stops both loops and returns once they have exited.
func (e *Engine) Close() {
	close(e.stop)
	e.wg.Wait()
}

// OfferVersion reports the node's current record-log version. Remote
// directories citing the same version for this node hold its exact offer.
func (e *Engine) OfferVersion() uint64 { return e.log.Version() }

// Peers lists peers currently believed alive, sorted.
func (e *Engine) Peers() []transport.NodeID { return e.live.Peers() }

// beaconLoop beacons this node's digest and sweeps dead peers.
func (e *Engine) beaconLoop() {
	defer e.wg.Done()
	ticker := e.clk.NewTicker(e.cfg.Period)
	defer ticker.Stop()
	for ticker.Wait(e.stop) {
		// Introduce the node with one full-state announcement; from then
		// on the beacon is the constant-size digest. Introduction rides
		// the first tick (or an earlier explicit AnnounceNow) rather than
		// the loop's spawn: the container's constructor returns into the
		// caller's registration burst, and announcing concurrently with it
		// would race the record log against flushOffer — the full announce
		// and the first delta would split the offer nondeterministically.
		e.announceMu.Lock()
		introduced := e.introduced
		e.announceMu.Unlock()
		if introduced {
			e.heartbeat()
		} else {
			e.AnnounceNow()
		}
		e.sweep()
		e.cfg.Tick()
	}
}

// AnnounceNow broadcasts the node's full offer and applies it locally so
// local lookups resolve without a network round trip. The record log is
// synchronized first so the announcement carries the right version.
// Registration paths announce incrementally on their own (OfferChanged);
// this is the introduction, and a full refresh on request.
func (e *Engine) AnnounceNow() {
	e.announceMu.Lock()
	defer e.announceMu.Unlock()
	e.introduced = true
	recs := e.cfg.Offer()
	// Update returns the current version whether or not anything changed.
	_, _, _, version, _ := e.log.Update(recs)
	ann := &naming.Announcement{
		Node:    e.self,
		Epoch:   e.cfg.Epoch,
		Version: version,
		Load:    e.cfg.Load(),
		Records: recs,
	}
	e.dir.Apply(ann, e.clk.Now())
	payload, err := naming.EncodeAnnouncement(ann)
	e.broadcast(protocol.MTAnnounce, payload, err, codeAnnounceEncode, codeAnnounceSend, e.ctr.fullSent)
}

// broadcast multicasts one encoded discovery payload to the fleet and
// counts it sent — or counts, under the matching code, why it was not:
// encodeErr is what encoding the payload returned.
func (e *Engine) broadcast(t protocol.MsgType, payload []byte, encodeErr error, encode, send uerr.Code, sent *metrics.Counter) {
	if encodeErr != nil {
		uerr.Wrap(e.reg, encode, encodeErr, "encode beacon")
		return
	}
	frame := &protocol.Frame{Type: t, Priority: qos.PriorityNormal, Payload: payload}
	if err := e.f.SendGroup(fabric.DiscoveryGroup, frame); err != nil {
		uerr.Wrap(e.reg, send, err, "broadcast beacon")
		return
	}
	sent.Inc()
}

// OfferChanged signals the flush loop, which diffs the offer against the
// versioned record log and multicasts the delta — new resources become
// resolvable fleet-wide after one network hop instead of one announce
// period. The trigger coalesces, so a burst of registrations (a service
// bringing up hundreds of resources in a loop) collapses into a handful of
// batched deltas instead of one frame each: total wire cost stays
// O(records registered), and the bounded catch-up history in the log
// covers far larger version gaps.
func (e *Engine) OfferChanged() { e.offerDirty.Signal() }

// offerFlushLoop turns OfferChanged signals into delta broadcasts.
func (e *Engine) offerFlushLoop() {
	defer e.wg.Done()
	for e.offerDirty.Wait(-1, e.stop) {
		e.flushOffer()
	}
}

// flushOffer diffs the current offer against the record log and multicasts
// one delta covering everything that changed since the previous flush.
func (e *Engine) flushOffer() {
	e.announceMu.Lock()
	defer e.announceMu.Unlock()
	// Before the introduction announce there is no delta to send: peers
	// hold no prior version to diff against, and the registrations
	// accumulated so far ride the full-state announce that introduces the
	// node. Leaving the log untouched here is what makes bootstrap
	// deterministic — whichever of flushOffer and the first announce runs
	// first, the whole offer goes out in the announce, never split with a
	// racing version-zero delta.
	if !e.introduced {
		return
	}
	recs := e.cfg.Offer()
	added, withdrawn, from, to, changed := e.log.Update(recs)
	if !changed {
		return
	}
	load := e.cfg.Load()
	// Local lookups must resolve without waiting for the multicast.
	e.dir.Apply(&naming.Announcement{
		Node: e.self, Epoch: e.cfg.Epoch, Version: to, Load: load, Records: recs,
	}, e.clk.Now())
	payload, err := naming.EncodeDelta(&naming.Delta{
		Node: e.self, Epoch: e.cfg.Epoch, From: from, To: to, Load: load,
		Added: added, Withdrawn: withdrawn,
	})
	e.broadcast(protocol.MTAnnounceDelta, payload, err, codeDeltaEncode, codeDeltaSend, e.ctr.deltasSent)
}

// heartbeat multicasts the constant-size liveness digest.
func (e *Engine) heartbeat() {
	payload, err := naming.EncodeDigest(&naming.Digest{
		Node:        e.self,
		Epoch:       e.cfg.Epoch,
		Version:     e.log.Version(),
		Load:        e.cfg.Load(),
		RecordCount: uint32(e.log.Count()),
	})
	e.broadcast(protocol.MTHeartbeat, payload, err, codeHeartbeatEnc, codeHeartbeatSend, e.ctr.heartbeatsSent)
}

// fromPeer reports whether a discovery frame whose payload names claimed
// as its origin is worth applying: a frame claiming another node than the
// one that sent it is counted as a protocol violation, and the node's own
// multicast copies are ignored.
func (e *Engine) fromPeer(from, claimed transport.NodeID, what string) bool {
	if claimed != from {
		uerr.Newf(e.reg, codeNodeMismatch, "%s from %s claims node %s", what, from, claimed)
		return false
	}
	return from != e.self
}

// HandleAnnounce ingests a peer's full-state MTAnnounce.
func (e *Engine) HandleAnnounce(from transport.NodeID, f *protocol.Frame) {
	ann, err := naming.DecodeAnnouncement(f.Payload)
	if err != nil {
		uerr.Note(e.reg, codeMalformed, err, "announce decode")
		return
	}
	if !e.fromPeer(from, ann.Node, "announce") {
		return
	}
	e.applyFull(from, ann)
}

// applyFull installs a peer's full record set — announced or assembled
// from sync chunks — unless the directory holds a newer one.
func (e *Engine) applyFull(from transport.NodeID, ann *naming.Announcement) {
	now := e.clk.Now()
	e.live.Touch(from, now)
	if e.dir.Apply(ann, now) {
		e.cfg.OfferApplied(from)
	}
}

// HandleHeartbeat ingests a peer's MTHeartbeat digest.
func (e *Engine) HandleHeartbeat(from transport.NodeID, f *protocol.Frame) {
	g, err := naming.DecodeDigest(f.Payload)
	if err != nil {
		uerr.Note(e.reg, codeMalformed, err, "digest decode")
		return
	}
	if !e.fromPeer(from, g.Node, "digest") {
		return
	}
	e.ctr.heartbeatsRecv.Inc()
	now := e.clk.Now()
	e.live.Touch(from, now)
	if e.dir.ApplyDigest(g, now) {
		e.requestSync(from)
	}
}

// HandleAnnounceDelta ingests a peer's incremental MTAnnounceDelta.
func (e *Engine) HandleAnnounceDelta(from transport.NodeID, f *protocol.Frame) {
	d, err := naming.DecodeDelta(f.Payload)
	if err != nil {
		uerr.Note(e.reg, codeMalformed, err, "delta decode")
		return
	}
	if !e.fromPeer(from, d.Node, "delta") {
		return
	}
	e.ctr.deltasRecv.Inc()
	now := e.clk.Now()
	e.live.Touch(from, now)
	if e.dir.ApplyDelta(d, now) {
		e.requestSync(from)
		return
	}
	e.cfg.OfferApplied(from)
}

// requestSync asks a peer for its full record set, at most once per
// announce period per peer: if the request or its reply is lost, the next
// heartbeat re-detects the gap and retries.
func (e *Engine) requestSync(to transport.NodeID) {
	e.ctr.syncsTriggered.Inc()
	now := e.clk.Now()
	e.syncMu.Lock()
	if at, ok := e.syncReqAt[to]; ok && now.Sub(at) < e.cfg.Period {
		e.syncMu.Unlock()
		return
	}
	e.syncReqAt[to] = now
	e.syncMu.Unlock()
	epoch, version, _ := e.dir.NodeVersion(to)
	frame := &protocol.Frame{
		Type:     protocol.MTSyncReq,
		Priority: qos.PriorityHigh,
		Payload:  naming.EncodeSyncRequest(&naming.SyncRequest{KnownEpoch: epoch, KnownVersion: version}),
	}
	if err := e.f.SendBestEffort(to, frame); err != nil {
		uerr.Note(e.reg, codeSyncReqSend, err, "send sync request")
		return
	}
	e.ctr.syncReqsSent.Inc()
}

// HandleSyncReq answers a peer's MTSyncReq from the record log.
func (e *Engine) HandleSyncReq(from transport.NodeID, f *protocol.Frame) {
	req, err := naming.DecodeSyncRequest(f.Payload)
	if err != nil {
		uerr.Note(e.reg, codeMalformed, err, "sync request decode")
		return
	}
	if from == e.self {
		return
	}
	e.live.Touch(from, e.clk.Now())
	// A requester only slightly behind in the current epoch gets a
	// compact catch-up delta from the log history — O(gap) wire bytes —
	// instead of the full chunked catalog. This keeps anti-entropy cheap
	// under registration churn, when version gaps are routine.
	if req.KnownEpoch == e.cfg.Epoch {
		if added, withdrawn, to, ok := e.log.DeltaSince(req.KnownVersion); ok &&
			len(added)+len(withdrawn) <= syncDeltaMaxRecords {
			if to == req.KnownVersion {
				return // requester already current (racing digest)
			}
			payload, err := naming.EncodeDelta(&naming.Delta{
				Node: e.self, Epoch: e.cfg.Epoch, From: req.KnownVersion, To: to,
				Load: e.cfg.Load(), Added: added, Withdrawn: withdrawn,
			})
			if err != nil {
				uerr.Note(e.reg, codeSyncRepEncode, err, "encode catch-up delta")
				return
			}
			e.sendReply(from, protocol.MTAnnounceDelta, payload, func(err error) {
				uerr.Note(e.reg, codeSyncRepSend, err, "deliver catch-up delta")
			})
			e.ctr.syncReqsServed.Inc()
			e.ctr.syncDeltaReplies.Inc()
			return
		}
	}
	if e.syncServing.Add(1) > maxConcurrentSyncServes {
		// At capacity: drop; the requester retries on its next heartbeat.
		e.syncServing.Add(-1)
		uerr.Newf(e.reg, codeSyncShed, "serve cap %d reached, dropping request from %s",
			maxConcurrentSyncServes, from)
		return
	}
	recs, version := e.log.Snapshot()
	chunks, err := naming.EncodeSyncChunks(&naming.Announcement{
		Node: e.self, Epoch: e.cfg.Epoch, Version: version,
		Load: e.cfg.Load(), Records: recs,
	}, e.cfg.MTU-syncFrameOverhead)
	if err != nil {
		e.syncServing.Add(-1)
		uerr.Note(e.reg, codeSyncRepEncode, err, "encode sync chunks")
		return
	}
	var outstanding atomic.Int64
	outstanding.Store(int64(len(chunks)))
	for _, chunk := range chunks {
		e.sendReply(from, protocol.MTSyncRep, chunk, func(err error) {
			uerr.Note(e.reg, codeSyncRepSend, err, "deliver sync chunk")
			if outstanding.Add(-1) == 0 {
				e.syncServing.Add(-1)
			}
		})
	}
	e.ctr.syncReqsServed.Inc()
	e.ctr.syncChunksSent.Add(uint64(len(chunks)))
}

// sendReply sends one sync answer frame to the requester over ARQ.
func (e *Engine) sendReply(to transport.NodeID, t protocol.MsgType, payload []byte, done func(error)) {
	e.f.SendReliable(to, &protocol.Frame{
		Type:     t,
		Priority: qos.PriorityHigh,
		Payload:  payload,
	}, qos.ReliableARQ, done)
}

// HandleSyncRep ingests one MTSyncRep chunk and installs the snapshot once
// its last chunk has arrived.
func (e *Engine) HandleSyncRep(from transport.NodeID, f *protocol.Frame) {
	c, err := naming.DecodeSyncChunk(f.Payload)
	if err != nil {
		uerr.Note(e.reg, codeMalformed, err, "sync chunk decode")
		return
	}
	if !e.fromPeer(from, c.Node, "sync chunk") {
		return
	}
	e.syncMu.Lock()
	ann := e.syncAsm.Offer(c)
	e.syncMu.Unlock()
	if ann == nil {
		return
	}
	e.applyFull(from, ann)
	e.ctr.syncApplied.Inc()
}

// HandleBye retires a peer that said goodbye (MTBye).
func (e *Engine) HandleBye(from transport.NodeID) {
	if from == e.self {
		return
	}
	e.live.Forget(from)
	e.peerGone(from)
}

// sweep detects failed peers and expired directory entries.
func (e *Engine) sweep() {
	now := e.clk.Now()
	// The node's own records never expire: under digest beacons nothing
	// re-applies them, so they are touched explicitly instead.
	e.dir.TouchNode(e.self, now)
	for _, node := range e.live.Sweep(now) {
		e.peerGone(node)
	}
	// Records of live peers never expire out from under them: freshness
	// follows liveness (any discovery frame), so a queue-delayed or
	// version-skewed digest cannot purge a healthy node's catalog. The
	// directory TTL remains as a backstop for nodes liveness has lost.
	e.live.Each(func(node transport.NodeID) { e.dir.TouchNode(node, now) })
	for _, node := range e.dir.Expire(now) {
		if node == e.self {
			continue
		}
		// TTL expiry of every record is failure-equivalent.
		e.live.Forget(node)
		e.peerGone(node)
	}
}

// peerGone clears all discovery state tied to a failed or departed node,
// then lets the container clear its own.
func (e *Engine) peerGone(node transport.NodeID) {
	e.dir.RemoveNode(node)
	e.syncMu.Lock()
	e.syncAsm.Forget(node)
	delete(e.syncReqAt, node)
	e.syncMu.Unlock()
	e.cfg.PeerGone(node)
}
