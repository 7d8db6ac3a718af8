// Package qos defines the quality-of-service vocabulary shared by the
// middleware communication primitives.
//
// The paper (§4) attaches QoS to each primitive: variables carry a validity
// (how long a sample may be served after it was produced) and a publication
// rate; events carry a latency-oriented priority and acknowledged delivery;
// remote invocations carry deadlines and binding policies. The paper lets
// reliable traffic ride TCP or "UDP plus retransmission at the middleware
// level" (§4.3); this stack implements only the second. Measured with
// sequential echo calls between two loopback nodes, 5,000 per caller, TCP
// was within noise of it with one caller (35.9k–39.2k vs 34.6k–38.0k
// calls/s), 4–9% faster with four, and allocated about 1.6× as many objects
// per call (11.0 vs 6.9) — a second reliable path no workload selected.
// Retransmission timing is not a policy here: the ARQ measures each peer's
// round trip and derives its timeout from it. This package holds only the
// policy types; enforcement lives in each primitive's engine.
package qos

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Priority orders work inside the container scheduler. The paper's prototype
// uses "a simple thread pool with fixed priorities for each named primitive"
// (§6); these are those named levels. Higher value = more urgent.
type Priority uint8

// Priority levels, lowest to highest. They start at 1 so the zero value is
// detectably "unset" and can be defaulted by the container.
const (
	PriorityBulk     Priority = iota + 1 // file-transfer chunks, background
	PriorityLow                          // non-critical telemetry
	PriorityNormal                       // variables, ordinary calls
	PriorityHigh                         // events
	PriorityCritical                     // alarms, emergency procedures
)

// numPriorities is the count of defined levels (for table sizing).
const numPriorities = 5

// Levels returns all priorities from lowest to highest.
func Levels() []Priority {
	return []Priority{PriorityBulk, PriorityLow, PriorityNormal, PriorityHigh, PriorityCritical}
}

// NumLevels reports how many priority levels exist.
func NumLevels() int { return numPriorities }

// Valid reports whether p is one of the defined levels.
func (p Priority) Valid() bool { return p >= PriorityBulk && p <= PriorityCritical }

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityBulk:
		return "bulk"
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	case PriorityCritical:
		return "critical"
	default:
		return fmt.Sprintf("priority(%d)", uint8(p))
	}
}

// Index returns a dense 0-based index for table lookups, or -1 if invalid.
func (p Priority) Index() int {
	if !p.Valid() {
		return -1
	}
	return int(p - PriorityBulk)
}

// Reliability selects how a primitive's messages reach subscribers.
type Reliability uint8

const (
	// BestEffort sends once with no acknowledgment; receivers tolerate
	// loss. Variables default to this (§4.1).
	BestEffort Reliability = iota + 1
	// ReliableARQ sends over an unreliable transport with application-level
	// acknowledgment and retransmission, the scheme §4.2 argues is "more
	// efficient for event messages than the generic case provided by the
	// TCP stack". It is the only reliable class: events and calls both
	// ride it.
	ReliableARQ
)

// String implements fmt.Stringer.
func (r Reliability) String() string {
	switch r {
	case BestEffort:
		return "best-effort"
	case ReliableARQ:
		return "reliable-arq"
	default:
		return fmt.Sprintf("reliability(%d)", uint8(r))
	}
}

// Delivery selects how an event publisher fans an occurrence out to its
// remote subscribers.
type Delivery uint8

const (
	// DeliverUnicast sends one reliable copy per subscriber (the paper's
	// baseline event mapping). Cost grows O(N·payload) with the audience.
	DeliverUnicast Delivery = iota + 1
	// DeliverMulticast sends one group-addressed frame per occurrence
	// ("one packet sent can arrive to multiple nodes", §4.1) carrying a
	// per-topic sequence number; subscribers detect gaps and repair them
	// with NACK-triggered unicast retransmissions over the ARQ engine.
	DeliverMulticast
)

// String implements fmt.Stringer.
func (d Delivery) String() string {
	switch d {
	case DeliverUnicast:
		return "unicast"
	case DeliverMulticast:
		return "multicast"
	default:
		return fmt.Sprintf("delivery(%d)", uint8(d))
	}
}

// Valid reports whether d is one of the defined modes.
func (d Delivery) Valid() bool { return d >= DeliverUnicast && d <= DeliverMulticast }

// Binding selects how a remote-invocation client is bound to a provider
// (§4.3: "the middleware ... can also redirect remote calls to server
// services statically or dynamically").
type Binding uint8

const (
	// BindDynamic re-resolves the provider on demand and load-balances
	// across equivalent providers.
	BindDynamic Binding = iota + 1
	// BindStatic pins the provider at subscription time; "useful in
	// critical services where resources ... are pre-allocated" (§4.3).
	// Failover still applies if the pinned provider dies.
	BindStatic
)

// String implements fmt.Stringer.
func (b Binding) String() string {
	switch b {
	case BindDynamic:
		return "dynamic"
	case BindStatic:
		return "static"
	default:
		return fmt.Sprintf("binding(%d)", uint8(b))
	}
}

// VariableQoS is the contract between a variable publisher and its
// subscribers (§4.1).
type VariableQoS struct {
	// Validity is how long a published sample remains servable after its
	// publication instant. While a fresher sample is missing, the cache
	// serves the previous one as long as it is still valid. Zero means
	// samples never expire.
	Validity time.Duration
	// Period is the nominal publication interval. The container uses it to
	// detect publisher silence: after DeadlineFactor*Period without a
	// sample, subscribers get a timeout warning (§4.1 "the service
	// container will warn of this timeout circumstance").
	Period time.Duration
	// DeadlineFactor scales Period into the silence deadline. Zero
	// defaults to 3.
	DeadlineFactor int
	// OnChangeOnly suppresses retransmission of unchanged values between
	// periodic refreshes ("sent at regular intervals or each time a
	// substantial change in its value occurs").
	OnChangeOnly bool
	// Priority for handler scheduling. Zero defaults to PriorityNormal.
	Priority Priority
}

// SilenceDeadline returns the duration after which a publisher is considered
// silent. Zero Period disables silence detection.
func (q VariableQoS) SilenceDeadline() time.Duration {
	if q.Period <= 0 {
		return 0
	}
	f := q.DeadlineFactor
	if f <= 0 {
		f = 3
	}
	return time.Duration(f) * q.Period
}

// Normalize fills defaulted fields, returning the effective policy.
func (q VariableQoS) Normalize() VariableQoS {
	if q.DeadlineFactor <= 0 {
		q.DeadlineFactor = 3
	}
	if !q.Priority.Valid() {
		q.Priority = PriorityNormal
	}
	return q
}

// Validate reports whether the policy is self-consistent.
func (q VariableQoS) Validate() error {
	if q.Validity < 0 {
		return fmt.Errorf("qos: negative validity %v: %w", q.Validity, ErrInvalidPolicy)
	}
	if q.Period < 0 {
		return fmt.Errorf("qos: negative period %v: %w", q.Period, ErrInvalidPolicy)
	}
	if q.Priority != 0 && !q.Priority.Valid() {
		return fmt.Errorf("qos: priority %d out of range: %w", q.Priority, ErrInvalidPolicy)
	}
	return nil
}

// EventQoS is the contract for the event primitive (§4.2).
type EventQoS struct {
	// Reliability is zero or ReliableARQ, the one reliable class; zero
	// defaults to it. BestEffort is rejected: events "guarantee the
	// reception of the sent information to all the subscribed services".
	Reliability Reliability
	// Priority defaults to PriorityHigh; events are latency-sensitive.
	Priority Priority
	// Delivery chooses unicast fan-out (default) or group-addressed
	// multicast with NACK-based gap repair; repairs reuse the datagram ARQ
	// machinery.
	Delivery Delivery
}

// Normalize fills defaulted fields, returning the effective policy.
func (q EventQoS) Normalize() EventQoS {
	if q.Reliability == 0 {
		q.Reliability = ReliableARQ
	}
	if !q.Priority.Valid() {
		q.Priority = PriorityHigh
	}
	if q.Delivery == 0 {
		q.Delivery = DeliverUnicast
	}
	return q
}

// Validate reports whether the policy is usable for events.
func (q EventQoS) Validate() error {
	if q.Reliability == BestEffort {
		return fmt.Errorf("qos: events require guaranteed delivery: %w", ErrInvalidPolicy)
	}
	if q.Reliability != 0 && q.Reliability != ReliableARQ {
		return fmt.Errorf("qos: reliability %d out of range: %w", q.Reliability, ErrInvalidPolicy)
	}
	if q.Delivery != 0 && !q.Delivery.Valid() {
		return fmt.Errorf("qos: delivery %d out of range: %w", q.Delivery, ErrInvalidPolicy)
	}
	return nil
}

// CallQoS is the contract for remote invocation (§4.3).
type CallQoS struct {
	// Deadline bounds the whole invocation including failover retries.
	// Zero defaults to the engine default.
	Deadline time.Duration
	// Binding chooses static pinning or dynamic (load-balanced) provider
	// selection. Zero defaults to BindDynamic.
	Binding Binding
	// Retries is the number of *additional* providers tried after the
	// first fails (redundancy failover). Zero defaults to trying every
	// known provider once.
	Retries int
	// HedgeAfter enables hedged failover: the fraction of the deadline
	// (0 < HedgeAfter < 1) to wait for the current provider's reply
	// before speculatively dispatching the same call to the next untried
	// provider and taking whichever answers first. Zero disables hedging.
	// Hedging can execute the function on more than one provider, so it
	// is only safe for idempotent functions.
	HedgeAfter float64
	// Priority defaults to PriorityNormal.
	Priority Priority
}

// Normalize fills defaulted fields, returning the effective policy.
func (q CallQoS) Normalize() CallQoS {
	if q.Binding == 0 {
		q.Binding = BindDynamic
	}
	if !q.Priority.Valid() {
		q.Priority = PriorityNormal
	}
	return q
}

// Validate reports whether the policy is usable for calls.
func (q CallQoS) Validate() error {
	if q.Deadline < 0 {
		return fmt.Errorf("qos: negative deadline %v: %w", q.Deadline, ErrInvalidPolicy)
	}
	if q.Retries < 0 {
		return fmt.Errorf("qos: negative retries %d: %w", q.Retries, ErrInvalidPolicy)
	}
	if q.HedgeAfter < 0 || q.HedgeAfter >= 1 {
		return fmt.Errorf("qos: hedge fraction %v outside [0,1): %w", q.HedgeAfter, ErrInvalidPolicy)
	}
	return nil
}

// TransferQoS is the contract for file-based transmission (§4.4). It has no
// rate: the egress lane of its Priority class makes the publisher wait when
// full, and a bulk rate is set on the bearer that lane drains into
// (BearerProfile.BulkRateBPS).
type TransferQoS struct {
	// ChunkSize is the payload bytes per multicast chunk. Zero defaults to
	// the engine default.
	ChunkSize int
	// Priority defaults to PriorityBulk so transfers never starve events.
	Priority Priority
}

// Normalize fills defaulted fields, returning the effective policy.
func (q TransferQoS) Normalize() TransferQoS {
	if !q.Priority.Valid() {
		q.Priority = PriorityBulk
	}
	return q
}

// Validate reports whether the policy is usable for transfers.
func (q TransferQoS) Validate() error {
	if q.ChunkSize < 0 {
		return fmt.Errorf("qos: negative chunk size %d: %w", q.ChunkSize, ErrInvalidPolicy)
	}
	return nil
}

// BearerProfile describes the static characteristics of one datalink
// (bearer) a node transmits over. A UAV typically carries several dissimilar
// bearers at once — short-range high-bandwidth WiFi, a long-range low-rate
// radio modem, satcom — and the middleware chooses per traffic class which
// one carries each frame (see BearerOrder). The profile alone sets the
// class→bearer ordering and the bearer's bulk shaping; the link monitor
// supplies the dynamic half (liveness, observed RTT and loss).
type BearerProfile struct {
	// RateBPS is the nominal link capacity in wire bytes/second. Bulk
	// classes prefer the highest-rate healthy bearer. Zero means unknown.
	RateBPS int64
	// Latency is the nominal one-way latency; latency-sensitive classes
	// tie-break toward the lowest.
	Latency time.Duration
	// Robustness ranks how dependable the link is across the mission
	// envelope (range, weather, occlusion): higher is more dependable.
	// Critical classes pin to the most robust healthy bearer.
	Robustness int
	// BulkRateBPS token-bucket-shapes the PriorityBulk egress lane of this
	// bearer (see package egress). Set it at or just below RateBPS so bulk
	// never fills the link queue critical frames would wait behind. Zero
	// leaves bulk unshaped.
	BulkRateBPS int64
	// BulkBurst is the bulk token bucket's capacity in bytes (zero means
	// egress.DefaultBulkBurst). It bounds how far ahead of BulkRateBPS a
	// bulk burst may run, and so how much bulk can sit in front of an
	// urgent frame at the link: keep it near one datagram on tightly
	// constrained links.
	BulkBurst int
}

// BearerOrder returns the bearer preference order for class p over the
// given bearer set — the order a class fails over in when its preferred
// bearer is unhealthy. It follows from the profiles alone and encodes the
// multi-bearer doctrine: bulk rides the fattest pipe, critical pins to the
// most robust link, and interactive classes chase latency.
func BearerOrder(p Priority, bearers map[string]BearerProfile) []string {
	out := make([]string, 0, len(bearers))
	for name := range bearers {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool {
		return bearerLess(p, out[i], out[j], bearers)
	})
	return out
}

// bearerLess orders bearers a, b for class p by profile, with the bearer
// name as the final deterministic tie-break.
func bearerLess(p Priority, a, b string, bearers map[string]BearerProfile) bool {
	pa, pb := bearers[a], bearers[b]
	type cmp struct{ x, y int64 }
	var keys []cmp
	switch {
	case p <= PriorityLow:
		// Bulk and low telemetry: fattest pipe first, dependability next.
		keys = []cmp{{pa.RateBPS, pb.RateBPS}, {int64(pa.Robustness), int64(pb.Robustness)}}
	case p >= PriorityHigh:
		// Events, alarms, emergencies: most robust link first, then the
		// lowest-latency among equally robust ones.
		keys = []cmp{{int64(pa.Robustness), int64(pb.Robustness)}, {int64(pb.Latency), int64(pa.Latency)}}
	default:
		// Interactive traffic (variables, ordinary calls): lowest latency
		// first, then capacity.
		keys = []cmp{{int64(pb.Latency), int64(pa.Latency)}, {pa.RateBPS, pb.RateBPS}}
	}
	for _, k := range keys {
		if k.x != k.y {
			return k.x > k.y
		}
	}
	return a < b
}

// ErrInvalidPolicy tags every validation failure in this package.
var ErrInvalidPolicy = errors.New("invalid QoS policy")
