// Package link implements per-bearer link quality monitoring for nodes
// that transmit over several dissimilar datalinks at once (WiFi, radio
// modem, satcom). The paper's container owns all network access on a node
// (§3); when that access spans redundant bearers, the container needs to
// know — per bearer — whether the link is alive, how far away the peer is
// (RTT), and how lossy the path has been, so the link policy (qos.BearerOrder)
// can route each traffic class onto the right datalink and fail classes
// over when their bearer blacks out.
//
// A Monitor observes one bearer passively: every received packet refreshes
// the bearer's last-heard instant and the sending peer's per-bearer
// presence. Passive observation is free because discovery digests ride
// every bearer each announce period — a healthy bearer is never silent for
// long. When a bearer *is* silent past its probe threshold, the container
// sends a lightweight MTProbe (a u64 nonce) to known peers and the echo
// closes the loop: liveness proof, an RTT sample, and — because probes keep
// flowing on a dead bearer — automatic detection of the link coming back.
//
// A Plane holds a node's bearers and their monitors and does what the
// monitors' verdicts are for: it picks the bearer for every egress frame
// (policy order × health × peer reachability), probes the quiet ones, and
// reroutes a bearer's queue the moment it is declared down.
package link

import (
	"sync"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/transport"
)

// maxOutstandingProbes bounds the nonce table so an unanswered bearer
// cannot grow it without limit; the oldest nonce is evicted (and counted
// lost) when a new probe would exceed it. Sized for one probe per peer on
// a large fleet's sweep — a cap near the fleet size would evict a sweep's
// own just-sent nonces before their echoes could return, reporting
// phantom loss on a healthy link.
const maxOutstandingProbes = 1024

// probeExpiry is how long an unanswered nonce stays matchable. Probes
// older than this are retired (counted lost) on the next NextProbe, so a
// long-dead bearer's table stays small without evicting fresh nonces.
const probeExpiry = 10 * time.Second

// rttAlpha is the EWMA weight of each new RTT sample.
const rttAlpha = 0.25

// Monitor tracks one bearer's health. All methods are safe for concurrent
// use; observation instants flow in via arguments, and callers take them
// from the same injected clock the monitor was built against — one time
// source for birth, probe cadence and health windows, wall or virtual.
type Monitor struct {
	name     string
	deadline time.Duration

	mu        sync.Mutex
	birth     time.Time
	lastRx    time.Time
	peers     map[transport.NodeID]time.Time // last heard per peer on this bearer
	probes    map[uint64]time.Time           // outstanding probe nonces
	probeSeq  []uint64                       // nonce FIFO for eviction
	nonce     uint64
	rtt       time.Duration // EWMA; zero until the first echo
	sent      uint64
	echoed    uint64
	evicted   uint64 // probes dropped from the outstanding table unanswered
	lastProbe time.Time
}

// NewMonitor builds a monitor for the named bearer against the given
// clock (nil means the wall clock); birth is the clock's current instant.
// deadline is how long the bearer may stay silent before it is reported
// unhealthy — the same failure-deadline vocabulary the container uses for
// peer liveness, applied per link.
func NewMonitor(name string, deadline time.Duration, clk clock.Clock) *Monitor {
	return &Monitor{
		name:     name,
		deadline: deadline,
		birth:    clock.Or(clk).Now(),
		peers:    make(map[transport.NodeID]time.Time),
		probes:   make(map[uint64]time.Time),
	}
}

// SawRx records one received packet from a peer on this bearer.
func (m *Monitor) SawRx(from transport.NodeID, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now.After(m.lastRx) {
		m.lastRx = now
	}
	if from != "" {
		if at, ok := m.peers[from]; !ok || now.After(at) {
			m.peers[from] = now
		}
	}
}

// Healthy reports whether the bearer has been heard from within the
// failure deadline. A fresh bearer is optimistically healthy until one full
// deadline elapses with no traffic at all, so startup does not begin in
// failover.
func (m *Monitor) Healthy(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ref := m.lastRx
	if m.birth.After(ref) {
		ref = m.birth
	}
	return now.Sub(ref) <= m.deadline
}

// Idle reports whether nothing has been heard on the bearer for at least d
// (measured from the later of last receive and monitor birth). The
// container probes idle bearers.
func (m *Monitor) Idle(now time.Time, d time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ref := m.lastRx
	if m.birth.After(ref) {
		ref = m.birth
	}
	return now.Sub(ref) >= d
}

// PeerHeard reports whether the peer has been heard on this bearer within
// the failure deadline.
func (m *Monitor) PeerHeard(peer transport.NodeID, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.peers[peer]
	return ok && now.Sub(at) <= m.deadline
}

// PeerKnown reports whether the peer has ever been heard on this bearer.
func (m *Monitor) PeerKnown(peer transport.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.peers[peer]
	return ok
}

// ForgetPeer drops a departed peer's per-bearer presence.
func (m *Monitor) ForgetPeer(peer transport.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.peers, peer)
}

// NextProbe allocates a probe nonce and records it outstanding. The caller
// puts the nonce on the wire as an MTProbe payload.
func (m *Monitor) NextProbe(now time.Time) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Retire expired nonces first (answered ones are already gone from
	// the map; their seq entries just fall off here).
	for len(m.probeSeq) > 0 {
		oldest := m.probeSeq[0]
		at, outstanding := m.probes[oldest]
		if outstanding && now.Sub(at) < probeExpiry {
			break
		}
		m.probeSeq = m.probeSeq[1:]
		if outstanding {
			delete(m.probes, oldest)
			m.evicted++
		}
	}
	m.nonce++
	n := m.nonce
	if len(m.probeSeq) >= maxOutstandingProbes {
		oldest := m.probeSeq[0]
		m.probeSeq = m.probeSeq[1:]
		if _, ok := m.probes[oldest]; ok {
			delete(m.probes, oldest)
			m.evicted++
		}
	}
	m.probes[n] = now
	m.probeSeq = append(m.probeSeq, n)
	m.sent++
	m.lastProbe = now
	return n
}

// LastProbe returns when the most recent probe was sent (zero if never).
func (m *Monitor) LastProbe() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastProbe
}

// ProbeEchoed matches an echoed nonce to its outstanding probe, folds the
// round trip into the RTT estimate, and reports the sample. Unknown (or
// already-answered) nonces return ok=false.
func (m *Monitor) ProbeEchoed(nonce uint64, now time.Time) (rtt time.Duration, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, found := m.probes[nonce]
	if !found {
		return 0, false
	}
	delete(m.probes, nonce)
	m.echoed++
	rtt = now.Sub(at)
	if rtt < 0 {
		rtt = 0
	}
	if m.rtt == 0 {
		m.rtt = rtt
	} else {
		m.rtt = time.Duration((1-rttAlpha)*float64(m.rtt) + rttAlpha*float64(rtt))
	}
	return rtt, true
}

// Report is a snapshot of one bearer's observed quality.
type Report struct {
	// Name is the bearer name.
	Name string
	// Healthy mirrors Monitor.Healthy at snapshot time.
	Healthy bool
	// LastRx is the bearer's last-heard instant (zero if never heard).
	LastRx time.Time
	// RTT is the probe-derived round-trip EWMA (zero until the first echo).
	RTT time.Duration
	// ProbesSent / ProbesEchoed count probe activity; their gap, plus
	// ProbesEvicted, is the probe loss so far.
	ProbesSent, ProbesEchoed uint64
	// ProbesEvicted counts probes evicted from the outstanding table
	// unanswered.
	ProbesEvicted uint64
	// ProbeLoss is the fraction of concluded probes (echoed or evicted,
	// plus those still outstanding past eviction pressure) that never
	// echoed, in [0,1]. Zero when no probes were sent.
	ProbeLoss float64
	// PeersHeard counts peers ever heard on this bearer.
	PeersHeard int
}

// Report snapshots the monitor.
func (m *Monitor) Report(now time.Time) Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	ref := m.lastRx
	if m.birth.After(ref) {
		ref = m.birth
	}
	r := Report{
		Name:          m.name,
		Healthy:       now.Sub(ref) <= m.deadline,
		LastRx:        m.lastRx,
		RTT:           m.rtt,
		ProbesSent:    m.sent,
		ProbesEchoed:  m.echoed,
		ProbesEvicted: m.evicted,
		PeersHeard:    len(m.peers),
	}
	if m.sent > 0 {
		r.ProbeLoss = float64(m.sent-m.echoed) / float64(m.sent)
	}
	return r
}
