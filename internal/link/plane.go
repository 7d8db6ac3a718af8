package link

import (
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// Bearer is one datalink a node transmits over: the transport, its
// declared profile, and the monitor estimating its health.
type Bearer struct {
	// Name is fleet-wide vocabulary: peers advertise their bearers by name
	// and a node matches them against its own set.
	Name      string
	Transport transport.Transport
	Profile   qos.BearerProfile
	// Monitor is set by NewPlane; the container feeds it every arrival.
	Monitor *Monitor
	// wasDown latches the last health state Sweep observed, so a
	// healthy→down transition triggers exactly one egress reroute.
	wasDown atomic.Bool
}

// PlaneConfig wires a Plane to its container.
type PlaneConfig struct {
	Self  transport.NodeID
	Clock clock.Clock
	// Directory is where peers' advertised bearers (KindBearer records)
	// are read from; the plane keeps no second copy of what a peer offers
	// beyond what selection needs per frame.
	Directory *naming.Directory
	// Deadline is how long a bearer may stay silent before its monitor
	// reports it unhealthy; Period is how long before it is probed.
	Deadline, Period time.Duration
	// Send transmits one frame to a peer pinned to the named bearer.
	Send func(bearer string, to transport.NodeID, f *protocol.Frame)
	// Reroute moves the named bearer's queued frames back through
	// selection.
	Reroute func(bearer string)
}

// Plane is a node's bearer plane: it routes each egress frame onto one of
// the node's datalinks. The bearer profiles (qos.BearerOrder, precomputed
// per class at construction) supply the static preference order; the
// per-bearer monitors supply dynamic health; peers' directory-accepted KindBearer
// records plus per-bearer receive history supply reachability. Selection
// runs per enqueue, so an ARQ retransmission re-selects — a frame stranded
// on a bearer that blacks out follows its class's failover order on the
// next retry, and Sweep additionally reroutes whole queues the moment a
// monitor declares a bearer down.
//
// Unicast and Group are the egress plane's Selector.
type Plane struct {
	cfg     PlaneConfig
	bearers []*Bearer
	byName  map[string]*Bearer
	names   []string
	// order is the profile-derived bearer preference per qos.Priority index.
	order [][]string

	// reach caches which local bearers each peer advertises, so the
	// per-frame selector never takes the directory lock. PeerChanged
	// rebuilds a peer's entry from the directory.
	mu    sync.RWMutex
	reach map[transport.NodeID]map[string]bool
}

// NewPlane builds the plane over bearers (registration order; the first is
// the default) and gives each its monitor.
func NewPlane(cfg PlaneConfig, bearers []*Bearer) *Plane {
	p := &Plane{
		cfg:     cfg,
		bearers: bearers,
		byName:  make(map[string]*Bearer, len(bearers)),
		reach:   make(map[transport.NodeID]map[string]bool),
	}
	profiles := make(map[string]qos.BearerProfile, len(bearers))
	for _, b := range bearers {
		b.Monitor = NewMonitor(b.Name, cfg.Deadline, cfg.Clock)
		p.byName[b.Name] = b
		p.names = append(p.names, b.Name)
		profiles[b.Name] = b.Profile
	}
	for _, pr := range qos.Levels() {
		p.order = append(p.order, qos.BearerOrder(pr, profiles))
	}
	return p
}

// Bearers returns the node's bearers in registration order.
func (p *Plane) Bearers() []*Bearer { return p.bearers }

// Names lists the bearer names in registration order.
func (p *Plane) Names() []string { return append([]string(nil), p.names...) }

// Records is this node's reachability offer: one KindBearer record per
// datalink so peers learn which bearers can reach it (and at what address,
// on transports with a dialable one). It rides the ordinary offer log and
// so propagates through the same deltas, digests and anti-entropy syncs as
// every other record.
func (p *Plane) Records() []naming.Record {
	recs := make([]naming.Record, 0, len(p.bearers))
	for _, b := range p.bearers {
		rec := naming.Record{Kind: naming.KindBearer, Name: b.Name, Node: p.cfg.Self}
		if a, ok := b.Transport.(transport.Addressable); ok {
			rec.Service = a.LocalAddr() // Service carries the dialable address
		}
		recs = append(recs, rec)
	}
	return recs
}

// Reports snapshots every bearer's monitor, in registration order.
func (p *Plane) Reports() []Report {
	now := p.cfg.Clock.Now()
	out := make([]Report, len(p.bearers))
	for i, b := range p.bearers {
		out[i] = b.Monitor.Report(now)
	}
	return out
}

// classOrder returns the policy order for a priority (defaulting
// out-of-range priorities to PriorityNormal, mirroring the egress plane).
func (p *Plane) classOrder(pr qos.Priority) []string {
	i := pr.Index()
	if i < 0 {
		i = qos.PriorityNormal.Index()
	}
	return p.order[i]
}

// Unicast picks the bearer for one unicast frame: the first bearer in the
// class's policy order that is both healthy and believed able to reach the
// destination; failing that, the first that can reach it (a link the
// monitor calls down but the peer is known on beats a healthy link the
// peer was never seen on — sending into a maybe-down link can succeed,
// sending to a transport that has no address for the peer cannot);
// failing that, the first healthy bearer; failing everything, the class's
// primary.
func (p *Plane) Unicast(to transport.NodeID, pr qos.Priority) string {
	order := p.classOrder(pr)
	now := p.cfg.Clock.Now()
	firstReach, firstHealthy := "", ""
	for _, name := range order {
		b := p.byName[name]
		healthy := b.Monitor.Healthy(now)
		reach := b.Monitor.PeerHeard(to, now) || p.advertises(to, name)
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

// Group picks the bearers for one group frame. Discovery rides every
// bearer — digests are constant-size, receivers dedup the copies, and a
// heartbeat on each link is what keeps every monitor fed for free — while
// data groups ride the class's preferred healthy bearer only.
func (p *Plane) Group(group string, pr qos.Priority) []string {
	if group == fabric.DiscoveryGroup {
		return p.names
	}
	order := p.classOrder(pr)
	now := p.cfg.Clock.Now()
	for i, name := range order {
		if p.byName[name].Monitor.Healthy(now) {
			return order[i : i+1]
		}
	}
	return order[:1]
}

// advertises reports whether the peer's accepted offer includes the named
// bearer.
func (p *Plane) advertises(peer transport.NodeID, bearer string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.reach[peer][bearer]
}

// PeerChanged re-derives what the directory's accepted state says about
// reaching peer: which local bearers it advertises, and — on transports
// with an address book — at what address. The container calls it after
// the directory took an offer from the peer. An offer the directory
// rejected (a stale epoch, a reordered older delta) is never read here:
// calling this after one changes nothing.
func (p *Plane) PeerChanged(peer transport.NodeID) {
	if peer == p.cfg.Self {
		return
	}
	advertised := make(map[string]bool, len(p.bearers))
	for _, b := range p.bearers {
		rec, ok := p.cfg.Directory.Record(naming.KindBearer, b.Name, peer)
		if !ok {
			continue
		}
		advertised[b.Name] = true
		if pb, isBook := b.Transport.(transport.PeerBook); isBook && rec.Service != "" {
			// Idempotent; a re-advertised address updates the entry.
			_ = pb.AddPeer(peer, rec.Service)
		}
	}
	p.mu.Lock()
	old := p.reach[peer]
	if len(advertised) == 0 {
		delete(p.reach, peer)
	} else {
		p.reach[peer] = advertised
	}
	p.mu.Unlock()
	for name := range old {
		if pb, isBook := p.byName[name].Transport.(transport.PeerBook); isBook && !advertised[name] {
			pb.RemovePeer(peer)
		}
	}
}

// PeerGone forgets a failed or departed peer: its advertised reachability,
// its per-bearer presence, and its address-book entries, so frames to it
// fail fast instead of dialing a stale address.
func (p *Plane) PeerGone(peer transport.NodeID) {
	p.mu.Lock()
	delete(p.reach, peer)
	p.mu.Unlock()
	for _, b := range p.bearers {
		b.Monitor.ForgetPeer(peer)
		if pb, ok := b.Transport.(transport.PeerBook); ok {
			pb.RemovePeer(peer)
		}
	}
}

// probeSize is a probe's payload, and its echo's: the u64 nonce alone.
const probeSize = 8

// HandleProbe answers a peer's MTProbe: echo the nonce back on the bearer
// it arrived on. A payload that is not exactly a nonce is not a probe and
// gets no echo. The echo rides PriorityHigh so a congested bulk lane cannot
// make a live link look dead.
func (p *Plane) HandleProbe(bearer string, from transport.NodeID, f *protocol.Frame) {
	if from == p.cfg.Self || len(f.Payload) != probeSize {
		return
	}
	p.cfg.Send(bearer, from, &protocol.Frame{
		Type:     protocol.MTProbeEcho,
		Priority: qos.PriorityHigh,
		Payload:  f.Payload,
	})
}

// HandleProbeEcho closes a probe round trip on the bearer that carried it;
// an echo that is not exactly a nonce is dropped.
func (p *Plane) HandleProbeEcho(bearer string, f *protocol.Frame) {
	b := p.byName[bearer]
	if b == nil || len(f.Payload) != probeSize {
		return
	}
	b.Monitor.ProbeEchoed(encoding.NewReader(f.Payload).Uint64(), p.cfg.Clock.Now())
}

// Sweep runs once per announce period on multi-bearer nodes: it probes
// bearers that have gone quiet (a healthy bearer is never quiet —
// discovery digests ride every bearer every period — so silence means the
// link, not the fleet), and on a healthy→down transition reroutes the dead
// bearer's queued frames through selection so failover happens within the
// failure deadline instead of waiting for per-frame retries. peers lists
// the peers currently believed alive.
func (p *Plane) Sweep(peers func() []transport.NodeID) {
	if len(p.bearers) <= 1 {
		return
	}
	now := p.cfg.Clock.Now()
	for _, b := range p.bearers {
		if b.Monitor.Idle(now, p.cfg.Period) && now.Sub(b.Monitor.LastProbe()) >= p.cfg.Period {
			p.probe(b, now, peers())
		}
		if b.Monitor.Healthy(now) {
			b.wasDown.Store(false)
			continue
		}
		if !b.wasDown.Swap(true) {
			p.cfg.Reroute(b.Name)
		}
	}
}

// probe sends one MTProbe to every live peer expected on the bearer.
// Probes keep flowing while the bearer is down, which is how its recovery
// is detected: the first echo marks it healthy again and traffic fails
// back per policy.
func (p *Plane) probe(b *Bearer, now time.Time, peers []transport.NodeID) {
	for _, peer := range peers {
		if !b.Monitor.PeerKnown(peer) && !p.advertises(peer, b.Name) {
			continue
		}
		w := encoding.NewWriter(probeSize)
		w.Uint64(b.Monitor.NextProbe(now))
		p.cfg.Send(b.Name, peer, &protocol.Frame{
			Type:     protocol.MTProbe,
			Priority: qos.PriorityHigh,
			Payload:  w.Bytes(),
		})
	}
}
