// Package rpc implements the paper's §4.3 communication primitive: remote
// invocation of named functions with typed parameters and an optional
// return value. Binding is static (pinned provider, pre-allocated
// resources) or dynamic (load-balanced); on provider failure the middleware
// "will detect the situation and redirect requests to the redundant
// service", letting the mission continue "perhaps in a degraded mode". At
// startup, services "check that all the functions they need ... are
// provided" — the DependencyCheck API.
//
// The engine is built for concurrent callers: the pending-call table is
// sharded by call id so unrelated calls never contend on one lock, and a
// call's remaining deadline travels on the wire (protocol.Frame.Budget) so
// providers can shed requests whose budget is already spent instead of
// wasting work on replies nobody can use. Two mechanisms bound latency
// under provider trouble:
//
//   - hedged failover (qos.CallQoS.HedgeAfter): after a configurable
//     fraction of the deadline with no reply, the call is speculatively
//     dispatched to the next untried provider and the first answer wins;
//   - server-side admission control (SetInflightLimit): a provider at its
//     concurrency limit answers MTBusy immediately, so the caller fails
//     over to a redundant provider instead of queueing blind.
//
// A reply names its call, not the function: MTReturn, MTError and MTBusy
// lead their payload with the call id and leave the frame's channel empty
// (one a peer sets anyway is ignored). The caller names the function from
// its own call record wherever an error needs the name.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/freelist"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// Wire-path error codes: admission sheds, malformed replies and protocol
// violations land in the registry's "rpc.errors" family by category.
var (
	codeBusyShed        = uerr.Register("rpc.busy_shed", uerr.CatAdmission)
	codeUnknownFunction = uerr.Register("rpc.unknown_function", uerr.CatProtocol)
	codeReplyDecode     = uerr.Register("rpc.reply_decode", uerr.CatDecode)
	codeArgsDecode      = uerr.Register("rpc.args_decode", uerr.CatDecode)
)

// Errors.
var (
	// ErrNoProvider reports a call to a function nobody offers — the
	// condition that must trigger "the programmed emergency procedure".
	ErrNoProvider = errors.New("no provider for function")
	// ErrAllProvidersFailed reports failover exhaustion.
	ErrAllProvidersFailed = errors.New("all providers failed")
	// ErrDuplicateName reports a second registration of a function name
	// in one node.
	ErrDuplicateName = errors.New("function already registered")
	// ErrBadSignature reports caller/provider type disagreement.
	ErrBadSignature = errors.New("function signature mismatch")
	// ErrDeadline reports a call that exceeded its QoS deadline.
	ErrDeadline = errors.New("call deadline exceeded")
	// ErrBusy reports a provider that shed the request (admission
	// control); the engine treats it as an infrastructure failure and
	// fails over.
	ErrBusy = errors.New("provider busy")
	// ErrDependency reports unmet startup dependencies (E12).
	ErrDependency = errors.New("unmet function dependencies")
)

// AppError is a remote application-level failure: the function executed and
// returned an error. App errors do not trigger failover — the call
// succeeded at the middleware level.
type AppError struct {
	Name    string // function name
	Message string
}

// Error implements error.
func (e *AppError) Error() string {
	return fmt.Sprintf("rpc: %s: remote error: %s", e.Name, e.Message)
}

// Handler executes one invocation. args is canonical for the registered
// argument type (nil when the function takes no arguments). A returned
// error travels to the caller as an AppError.
type Handler func(args any) (any, error)

// DefaultCallDeadline bounds a call (including failover) when the QoS does
// not set one.
const DefaultCallDeadline = 2 * time.Second

// argsSizeHint is the initial capacity of a call's encoded arguments; the
// paper's invocations carry short structured parameters.
const argsSizeHint = 64

// numPendingShards partitions the pending-attempt table so concurrent
// callers on unrelated calls never contend on one mutex. Must be a power of
// two.
const numPendingShards = 16

// pendingShard maps the ids of undecided attempts that hash onto it to the
// call each belongs to. An entry leaves with the attempt's first outcome, or
// when its Call returns.
type pendingShard struct {
	mu    sync.Mutex
	calls map[uint64]*call
}

// localAttempt marks the ids of attempts served by a local registration.
// They come from the engine's own counter, so a bypass call consumes no wire
// sequence number, and the bit keeps them clear of the fabric's NextSeq ids
// that remote attempts carry on the wire.
const localAttempt = 1 << 63

// recordFreeCap bounds each of the engine's free lists of records.
const recordFreeCap = 64

// Engine is the per-container remote-invocation runtime.
type Engine struct {
	f   fabric.Fabric
	clk clock.Clock
	enc encoding.ValueEncoder

	regMu     sync.Mutex
	functions map[string]*registration

	pinMu sync.Mutex
	pins  map[string]transport.NodeID // static-binding pins per function

	pending  [numPendingShards]pendingShard
	localSeq atomic.Uint64 // local attempt ids, below the localAttempt bit

	// Recycled records: calls in progress, handler invocations queued on
	// the scheduler, and remote attempts' reliable-send completions.
	calls  *freelist.List[call]
	serves *freelist.List[serve]
	sends  *freelist.List[sent]

	// inflightLimit caps concurrently executing remote-call handlers
	// (0 = unlimited); excess requests are answered MTBusy.
	inflightLimit atomic.Int64
	inflight      atomic.Int64

	// Registry handles, resolved once at construction. busyRejects is the
	// pre-resolved "rpc.errors" admission series (a shed is a per-request
	// event with no error value to hand anyone); hedges is an ordinary
	// counter family.
	reg         *metrics.Registry
	busyRejects *metrics.Counter
	hedges      *metrics.Counter
}

type registration struct {
	name    string
	service string
	argType *presentation.Type // nil = no args
	retType *presentation.Type // nil = no return value
	handler Handler
	q       qos.CallQoS
	calls   *metrics.Counter // "rpc.calls" series labeled by function
}

// call is one Call in progress: the race loop's state, and the queue its
// attempts' outcomes arrive on. Records are recycled through the engine's
// free list together with their trigger and slices, so a call that neither
// fails over nor hedges allocates no bookkeeping.
//
// Replies, reliable-send failures and local handler results reach a call
// only by attempt id, through deliver, under the pending shard's lock. Call
// takes its ids out of the table before the record is recycled, so whatever
// arrives later finds no entry and is dropped; it cannot touch the call that
// reuses the record.
type call struct {
	// trig wakes the race loop. Signalling it is clock-managed: under a
	// Virtual clock the wake-up is accounted inside the clock lock, so
	// virtual time cannot advance past a just-delivered outcome (a raw
	// channel send would leave the caller invisible to the clock while it
	// is runnable, letting time jump to the deadline underneath it).
	trig clock.Trigger

	mu       sync.Mutex
	outcomes []outcome // delivered, not yet settled

	// Everything below belongs to the calling goroutine.
	drained  []outcome // the batch being settled; its array is the next queue
	name     string
	argType  *presentation.Type
	retType  *presentation.Type
	q        qos.CallQoS
	args     []byte // encoded arguments, pooled; every attempt sends from it
	dlAt     time.Time
	attempts []attempt // in launch order
	// maxAttempts caps launches: failover and hedging share the budget.
	maxAttempts int
	inflight    int // attempts without a settled outcome
	// hedgeDelay > 0 while the call hedges: a launch arms hedgeAt that far
	// ahead, and at that edge with no reply the next untried provider is
	// dispatched speculatively — so a string of slow providers keeps
	// cascading until providers or the deadline run out.
	hedgeDelay time.Duration
	hedgeAt    time.Time
	lastErr    error // last infrastructure failure
	appErr     error // first application error; held until the race settles
}

// attempt is one dispatch of a call to one provider.
type attempt struct {
	id       uint64
	provider transport.NodeID
}

// outcome is one attempt's answer in the failover/hedging race: a value,
// an application error (the function ran; settle names it), or an
// infrastructure failure.
type outcome struct {
	id     uint64
	body   []byte // remote return value, still encoded, in a pooled buffer
	value  any    // local handler's return value, coerced
	appErr *AppError
	err    error
}

func (c *call) tried(node transport.NodeID) bool {
	for _, at := range c.attempts {
		if at.provider == node {
			return true
		}
	}
	return false
}

// drain takes the outcomes delivered since the last drain.
func (c *call) drain() []outcome {
	c.mu.Lock()
	c.drained, c.outcomes = c.outcomes, c.drained[:0]
	c.mu.Unlock()
	return c.drained
}

// New builds the engine for a container.
func New(f fabric.Fabric) *Engine {
	reg := fabric.MetricsOf(f)
	e := &Engine{
		f:           f,
		clk:         fabric.ClockOf(f),
		enc:         encoding.NewValueEncoder(f.Encoding()),
		functions:   make(map[string]*registration),
		pins:        make(map[string]transport.NodeID),
		reg:         reg,
		busyRejects: uerr.Handle(reg, codeBusyShed),
		hedges:      reg.Counter("rpc", "hedges"),
	}
	for i := range e.pending {
		e.pending[i].calls = make(map[uint64]*call)
	}
	e.calls = freelist.New(recordFreeCap, func() *call { return &call{trig: clock.NewTrigger(e.clk)} })
	e.serves = freelist.New(recordFreeCap, func() *serve {
		s := &serve{e: e}
		s.run = s.exec
		return s
	})
	e.sends = freelist.New(recordFreeCap, func() *sent {
		s := &sent{e: e}
		s.done = s.complete
		return s
	})
	return e
}

// SetInflightLimit caps how many remote-call handlers may execute
// concurrently on this provider; requests beyond the cap are answered
// MTBusy so callers fail over instead of queueing blind. Zero (the
// default) removes the cap.
func (e *Engine) SetInflightLimit(n int) {
	if n < 0 {
		n = 0
	}
	e.inflightLimit.Store(int64(n))
}

// Register exposes a function. argType/retType may be nil for void.
func (e *Engine) Register(name, service string, argType, retType *presentation.Type, q qos.CallQoS, h Handler) error {
	if h == nil {
		return fmt.Errorf("rpc: nil handler for %q: %w", name, ErrBadSignature)
	}
	if argType != nil {
		if err := argType.Validate(); err != nil {
			return err
		}
	}
	if retType != nil {
		if err := retType.Validate(); err != nil {
			return err
		}
	}
	if err := q.Validate(); err != nil {
		return err
	}
	e.regMu.Lock()
	if _, dup := e.functions[name]; dup {
		e.regMu.Unlock()
		return fmt.Errorf("rpc: %q: %w", name, ErrDuplicateName)
	}
	e.functions[name] = &registration{
		name:    name,
		service: service,
		argType: argType,
		retType: retType,
		handler: h,
		q:       q.Normalize(),
		calls:   e.reg.Counter("rpc", "calls", metrics.L("function", name)),
	}
	e.regMu.Unlock()
	e.f.OfferChanged()
	return nil
}

// Unregister withdraws a function. It is idempotent and also clears any
// static-binding pin recorded under the same name, so a later re-resolve
// starts fresh.
func (e *Engine) Unregister(name string) {
	e.regMu.Lock()
	_, had := e.functions[name]
	delete(e.functions, name)
	e.regMu.Unlock()
	e.pinMu.Lock()
	delete(e.pins, name)
	e.pinMu.Unlock()
	if had {
		e.f.OfferChanged()
	}
}

func sigOf(t *presentation.Type) string {
	if t == nil {
		return ""
	}
	return t.String()
}

// pendingFor returns the shard owning an attempt id.
func (e *Engine) pendingFor(id uint64) *pendingShard {
	return &e.pending[id&(numPendingShards-1)]
}

// putCall ends a call: its attempts leave the pending table — after which no
// deliverer can reach the record — its pooled buffers are released, and the
// record goes back on the free list.
func (e *Engine) putCall(c *call) {
	for _, at := range c.attempts {
		sh := e.pendingFor(at.id)
		sh.mu.Lock()
		delete(sh.calls, at.id)
		sh.mu.Unlock()
	}
	for _, out := range c.outcomes {
		bufpool.Put(out.body)
	}
	bufpool.Put(c.args)
	clear(c.outcomes)
	clear(c.drained)
	*c = call{trig: c.trig, outcomes: c.outcomes[:0], drained: c.drained[:0], attempts: c.attempts[:0]}
	e.calls.Put(c)
}

// deliver hands attempt id's outcome to the call waiting on it and wakes
// that call's race loop. Only an attempt's first outcome counts (a busy shed
// racing a late success, say), and one for an attempt nobody waits on any
// more — the call returned on its deadline, took another provider's answer,
// or was cancelled — is dropped. out.body may alias the caller's receive
// buffer; it is copied here.
func (e *Engine) deliver(id uint64, out outcome) {
	sh := e.pendingFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.calls[id]
	if c == nil {
		return
	}
	delete(sh.calls, id)
	out.id = id
	if out.body != nil {
		out.body = bufpool.Clone(out.body)
	}
	c.mu.Lock()
	c.outcomes = append(c.outcomes, out)
	c.mu.Unlock()
	c.trig.Signal()
}

// Call invokes name with args under the caller's QoS. It coerces args to
// the provider's argument type, resolves a provider per the binding policy,
// and fails over across redundant providers on infrastructure errors
// (including MTBusy sheds). With q.HedgeAfter > 0 the failover is hedged:
// after that fraction of the deadline with no reply, the call is
// speculatively dispatched to the next untried provider and the first
// successful answer wins.
//
// The whole call runs on the caller's goroutine: attempts are dispatched
// from it and their outcomes come back through deliver, so a call costs no
// goroutine, context or timer of its own.
func (e *Engine) Call(ctx context.Context, name string, args any, argType, retType *presentation.Type, q qos.CallQoS) (any, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.Normalize()
	deadline := q.Deadline
	if deadline <= 0 {
		deadline = DefaultCallDeadline
	}
	c := e.calls.Get()
	defer e.putCall(c)
	c.name, c.argType, c.retType, c.q = name, argType, retType, q
	if err := e.encodeArgs(c, args); err != nil {
		return nil, err
	}
	c.maxAttempts = q.Retries + 1
	if q.Retries == 0 {
		c.maxAttempts = 1 + e.f.Directory().ProviderCount(naming.KindFunction, name)
		if e.hasLocal(name) {
			c.maxAttempts++
		}
	}
	if q.HedgeAfter > 0 {
		c.hedgeDelay = time.Duration(q.HedgeAfter * float64(deadline))
	}
	// The deadline rides the injected clock (not context.WithTimeout, which
	// only knows wall time), so virtual-time runs see the same deadline
	// behaviour as real ones.
	c.dlAt = e.clk.Now().Add(deadline)

	return e.race(ctx, c)
}

// encodeArgs coerces and encodes a call's arguments once, in one walk, into
// the pooled buffer every attempt sends from.
func (e *Engine) encodeArgs(c *call, args any) error {
	if c.argType == nil {
		if args != nil {
			return fmt.Errorf("rpc: %q takes no arguments: %w", c.name, ErrBadSignature)
		}
		return nil
	}
	var err error
	c.args, err = e.enc.Append(bufpool.Get(argsSizeHint), c.argType, args)
	return err
}

// race is the call's event loop: launch, then settle outcomes as they
// arrive, hedge at the hedge edge, and give up at the deadline or when the
// caller's context ends — one managed wait covers all three.
func (e *Engine) race(ctx context.Context, c *call) (any, error) {
	if err := e.launch(c); err != nil {
		return nil, err
	}
	for {
		// Outcomes first: a winner that landed in the same scheduling
		// window as the deadline must not be reported as a deadline miss.
		for _, out := range c.drain() {
			if v, err, done := e.settle(ctx, c, out); done {
				return v, err
			}
		}
		now := e.clk.Now()
		if e.expired(ctx, c, now) {
			if c.appErr != nil {
				return nil, c.appErr
			}
			return nil, e.deadlineMiss(c)
		}
		wait := c.dlAt.Sub(now)
		if c.hedgeDelay > 0 && c.appErr == nil {
			if !now.Before(c.hedgeAt) {
				if len(c.attempts) < c.maxAttempts && e.launch(c) == nil {
					e.hedges.Inc()
				} else {
					c.hedgeDelay = 0 // no untried provider left; stop hedging
				}
				continue
			}
			wait = min(wait, c.hedgeAt.Sub(now))
		}
		c.trig.WaitContext(ctx, wait)
	}
}

// expired reports whether the call's deadline has passed or its caller has
// given up.
func (e *Engine) expired(ctx context.Context, c *call, now time.Time) bool {
	return !now.Before(c.dlAt) || ctx.Err() != nil
}

// deadlineMiss is the error of a call that ran out of time. A provider that
// burned the whole deadline without answering must not keep its static pin,
// or the next call would re-dial the stalled node.
func (e *Engine) deadlineMiss(c *call) error {
	e.pinMu.Lock()
	if c.tried(e.pins[c.name]) {
		delete(e.pins, c.name)
	}
	e.pinMu.Unlock()
	if c.lastErr != nil {
		return fmt.Errorf("rpc: %s: %w (last: %v)", c.name, ErrDeadline, c.lastErr)
	}
	return fmt.Errorf("rpc: %s: %w", c.name, ErrDeadline)
}

// settle consumes one attempt outcome. It returns (value, err, true) when
// the call is decided; (_, _, false) while the race continues.
func (e *Engine) settle(ctx context.Context, c *call, out outcome) (any, error, bool) {
	c.inflight--
	var provider transport.NodeID
	for _, at := range c.attempts {
		if at.id == out.id {
			provider = at.provider
		}
	}
	if out.err == nil && out.appErr == nil && out.id&localAttempt == 0 && c.retType != nil {
		out.value, out.err = e.f.Encoding().Unmarshal(c.retType, out.body)
	}
	bufpool.Put(out.body)
	switch {
	case out.err == nil && out.appErr == nil:
		// First successful answer wins; the static pin follows the winner,
		// not the speculative dispatch.
		if c.q.Binding == qos.BindStatic && provider != e.f.Self() {
			e.setPin(c.name, provider)
		}
		return out.value, nil, true
	case out.err == nil:
		// Application error: the function executed, so no new attempts are
		// warranted (no failover on app errors) — but a hedged sibling
		// already in flight may still win with a success, so hold the
		// error until the race settles.
		if c.appErr == nil {
			out.appErr.Name = c.name
			c.appErr = out.appErr
		}
	default:
		// Infrastructure failure: fail over to the next provider — unless
		// the function already executed somewhere or the deadline has
		// passed (no point launching dead-on-arrival attempts).
		c.lastErr = fmt.Errorf("rpc: %s to %q: %w", c.name, provider, out.err)
		e.unpin(c.name, provider)
		if c.appErr == nil && !e.expired(ctx, c, e.clk.Now()) &&
			len(c.attempts) < c.maxAttempts && e.launch(c) == nil {
			return nil, nil, false
		}
	}
	switch {
	case c.inflight > 0:
		return nil, nil, false
	case c.appErr != nil:
		return nil, c.appErr, true
	case e.expired(ctx, c, e.clk.Now()):
		return nil, e.deadlineMiss(c), true
	}
	return nil, fmt.Errorf("rpc: %s after %d attempts: %w (last: %v)",
		c.name, len(c.attempts), ErrAllProvidersFailed, c.lastErr), true
}

// launch dispatches one attempt against the next untried provider, on the
// caller's goroutine; it reports the selection error when none remains. A
// dispatch that fails is that attempt's outcome, not launch's error, so the
// race fails over from it like from any other infrastructure failure.
func (e *Engine) launch(c *call) error {
	provider, local, err := e.selectProvider(c)
	if err != nil {
		return err
	}
	var id uint64
	if local {
		id = localAttempt | e.localSeq.Add(1)
	} else {
		id = e.f.NextSeq()
	}
	c.attempts = append(c.attempts, attempt{id: id, provider: provider})
	c.inflight++
	sh := e.pendingFor(id)
	sh.mu.Lock()
	sh.calls[id] = c
	sh.mu.Unlock()
	if c.hedgeDelay > 0 {
		c.hedgeAt = e.clk.Now().Add(c.hedgeDelay)
	}
	if local {
		err = e.dispatchLocal(c, id)
	} else {
		err = e.dispatchRemote(c, id, provider)
	}
	if err != nil {
		e.deliver(id, outcome{err: err})
	}
	return nil
}

func (e *Engine) hasLocal(name string) bool {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	_, ok := e.functions[name]
	return ok
}

// selectProvider resolves the next untried provider, preferring the local
// registration (bypass) and honoring static pins.
func (e *Engine) selectProvider(c *call) (transport.NodeID, bool, error) {
	self := e.f.Self()
	if e.hasLocal(c.name) && !c.tried(self) {
		return self, true, nil
	}
	e.pinMu.Lock()
	pinned := e.pins[c.name]
	e.pinMu.Unlock()

	dir := e.f.Directory()
	// First choice goes through Select, which applies the binding policy
	// (pin liveness for static, load-balancing for dynamic).
	rec, err := dir.Select(naming.KindFunction, c.name, c.q.Binding, pinned)
	if err == nil && c.tried(rec.Node) {
		// Failover attempt: walk the full provider list for an untried
		// node instead.
		err = ErrNoProvider
		for _, alt := range dir.Lookup(naming.KindFunction, c.name) {
			if !c.tried(alt.Node) {
				rec, err = alt, nil
				break
			}
		}
	}
	if err != nil {
		return "", false, fmt.Errorf("rpc: %s: %w", c.name, ErrNoProvider)
	}
	if err := checkSignature(rec, c.argType, c.retType); err != nil {
		return "", false, err
	}
	// Static pins are NOT written here: a speculative hedge dispatch must
	// not move the pin. settle pins the provider that actually wins the
	// race.
	return rec.Node, false, nil
}

func checkSignature(rec naming.Record, argType, retType *presentation.Type) error {
	if rec.ArgSig != sigOf(argType) {
		return fmt.Errorf("rpc: %s: provider args %q, caller %q: %w",
			rec.Name, rec.ArgSig, sigOf(argType), ErrBadSignature)
	}
	if rec.TypeSig != sigOf(retType) {
		return fmt.Errorf("rpc: %s: provider returns %q, caller wants %q: %w",
			rec.Name, rec.TypeSig, sigOf(retType), ErrBadSignature)
	}
	return nil
}

func (e *Engine) setPin(name string, node transport.NodeID) {
	e.pinMu.Lock()
	e.pins[name] = node
	e.pinMu.Unlock()
}

func (e *Engine) unpin(name string, node transport.NodeID) {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	if e.pins[name] == node {
		delete(e.pins, name)
	}
}

// dispatchLocal runs a local registration through the scheduler (bypass
// path: no encode/decode of the return value, but arguments were already
// encoded once for uniformity — decode them back). The handler's result is
// delivered like a reply.
func (e *Engine) dispatchLocal(c *call, id uint64) error {
	e.regMu.Lock()
	reg := e.functions[c.name]
	e.regMu.Unlock()
	if reg == nil {
		return ErrNoProvider
	}
	if sigOf(reg.argType) != sigOf(c.argType) || sigOf(reg.retType) != sigOf(c.retType) {
		return ErrBadSignature
	}
	var args any
	if reg.argType != nil {
		decoded, err := e.f.Encoding().Unmarshal(reg.argType, c.args)
		if err != nil {
			return err
		}
		args = decoded
	}
	s := e.serves.Get()
	s.reg, s.args, s.local, s.id = reg, args, true, id
	if err := e.f.Schedule(c.q.Priority, s.run); err != nil {
		s.recycle()
		return err
	}
	return nil
}

// serve is one handler invocation queued on the scheduler: an MTCall from
// a peer, answered with a reply frame, or a local bypass attempt, answered
// through deliver. Records come off the engine's free list with their job
// bound once, so queueing one allocates nothing.
type serve struct {
	e    *Engine
	run  func() // s.exec, bound once
	reg  *registration
	args any
	// local marks a bypass attempt; id is then its attempt id, else the
	// caller's call id.
	local bool
	id    uint64
	// Remote calls only. The fabric pools decoded frames, so everything the
	// reply needs is copied out of the MTCall here.
	from    transport.NodeID
	pr      qos.Priority // the handler's class; the reply rides it
	rawPr   qos.Priority // the class as it arrived; sheds and errors echo it
	arrival time.Time
	budget  time.Duration
}

// recycle clears the record and gives it back.
func (s *serve) recycle() {
	*s = serve{e: s.e, run: s.run}
	s.e.serves.Put(s)
}

// exec is the queued job. The record is recycled before the handler runs,
// so a handler that re-enters the engine (on an inline scheduler, say) may
// take it for its own call.
func (s *serve) exec() {
	sv := *s
	s.recycle()
	if sv.local {
		sv.serveLocal()
	} else {
		sv.serveRemote()
	}
}

// serveLocal runs a bypass attempt and delivers its result like a reply.
func (s *serve) serveLocal() {
	reg := s.reg
	v, err := reg.handler(s.args)
	reg.calls.Inc()
	var out outcome
	if err == nil && reg.retType != nil {
		out.value, err = presentation.Coerce(reg.retType, v)
	}
	if err != nil {
		out.appErr = &AppError{Message: err.Error()}
	}
	s.e.deliver(s.id, out)
}

// serveRemote runs an MTCall's handler and replies.
func (s *serve) serveRemote() {
	e, reg := s.e, s.reg
	defer e.inflight.Add(-1)
	if s.budget > 0 && e.clk.Since(s.arrival) >= s.budget {
		// Provider-side queueing alone has consumed the caller's whole
		// budget, so the reply cannot arrive in time: shed instead of
		// wasting work. (Network transit before arrival is not counted — the
		// two nodes' clocks are not assumed synchronized — so this catches
		// queueing delay, the dominant term on an overloaded provider, not
		// every spent budget.)
		e.replyBusy(s.from, s.id, s.rawPr)
		return
	}
	v, err := reg.handler(s.args)
	reg.calls.Inc()
	if err != nil {
		e.replyAppError(s.from, s.id, s.rawPr, err.Error())
		return
	}
	// The return value is coerced and encoded in one walk straight behind
	// the call id in the pooled reply payload.
	payload := replyPayload(s.id, 0)
	if reg.retType != nil {
		var cerr error
		if payload, cerr = e.enc.Append(payload, reg.retType, v); cerr != nil {
			bufpool.Put(payload)
			e.replyAppError(s.from, s.id, s.rawPr, cerr.Error())
			return
		}
	}
	e.sendReply(s.from, protocol.MTReturn, 0, e.enc.ID(), s.pr, payload)
}

// sent is a remote attempt's reliable-send completion: a failed send
// becomes the attempt's outcome, by id. Records come off the engine's free
// list with the completion bound once. The fabric fires a completion
// exactly once, so the record goes back on that one call.
type sent struct {
	e    *Engine
	id   uint64
	done func(error) // s.complete, bound once
}

func (s *sent) complete(err error) {
	e, id := s.e, s.id
	e.sends.Put(s)
	if err != nil {
		e.deliver(id, outcome{err: err})
	}
}

// dispatchRemote sends one remote attempt from a pooled frame. The caller's
// remaining deadline is stamped onto the MTCall frame so the provider can
// shed the request if the budget is spent before a handler runs.
func (e *Engine) dispatchRemote(c *call, id uint64, provider transport.NodeID) error {
	budget := c.dlAt.Sub(e.clk.Now())
	if budget <= 0 {
		return ErrDeadline
	}
	// The call's QoS priority selects both the remote handler's scheduler
	// class and the local egress lane the request drains from, so an
	// urgent call overtakes queued bulk on its way out too.
	frame := protocol.GetFrame()
	*frame = protocol.Frame{
		Type:     protocol.MTCall,
		Encoding: e.f.Encoding().ID(),
		Priority: c.q.Priority,
		Channel:  c.name,
		Seq:      id,
		Budget:   budget,
		Payload:  c.args,
	}
	s := e.sends.Get()
	s.id = id
	e.f.SendReliable(provider, frame, qos.ReliableARQ, s.done)
	protocol.PutFrame(frame)
	return nil
}

// HandleCall executes an incoming MTCall and replies. Admission control
// runs before any work: a provider at its concurrency limit, or one whose
// scheduler rejects the job, or a request whose wire-propagated deadline
// budget is already spent by the time the handler would run, all answer
// MTBusy so the caller fails over immediately.
func (e *Engine) HandleCall(from transport.NodeID, fr *protocol.Frame) {
	e.regMu.Lock()
	reg := e.functions[fr.Channel]
	e.regMu.Unlock()
	callID, rawPr := fr.Seq, fr.Priority
	if reg == nil {
		e.sendReply(from, protocol.MTError, 0, 0, rawPr, replyPayload(callID, 0))
		return
	}
	// Concurrency limit: strict reserve-then-check so the cap holds under
	// concurrent arrivals.
	limit := e.inflightLimit.Load()
	if e.inflight.Add(1) > limit && limit > 0 {
		e.inflight.Add(-1)
		e.replyBusy(from, callID, rawPr)
		return
	}
	arrival := e.clk.Now()
	var args any
	if reg.argType != nil {
		decoded, err := e.f.Encoding().Unmarshal(reg.argType, fr.Payload)
		if err != nil {
			e.inflight.Add(-1)
			uerr.Wrapf(e.reg, codeArgsDecode, err, "%s from %q", reg.name, from)
			e.replyAppError(from, callID, rawPr, fmt.Sprintf("bad arguments: %v", err))
			return
		}
		args = decoded
	}
	pr := rawPr
	if !pr.Valid() {
		pr = reg.q.Priority
	}
	s := e.serves.Get()
	s.reg, s.args, s.id = reg, args, callID
	s.from, s.pr, s.rawPr, s.arrival, s.budget = from, pr, rawPr, arrival, fr.Budget
	if err := e.f.Schedule(pr, s.run); err != nil {
		// Scheduler saturated: shed so the caller fails over rather than
		// treating local overload as an application error.
		s.recycle()
		e.inflight.Add(-1)
		e.replyBusy(from, callID, rawPr)
	}
}

// replyPayload starts a reply payload in a pooled buffer with room for n
// more bytes: the call id the reply answers, then the body.
func replyPayload(callID uint64, n int) []byte {
	return binary.AppendUvarint(bufpool.Get(encoding.UvarintLen(callID)+n), callID)
}

// sendReply sends one reply frame (MTReturn / MTError / MTBusy) carrying a
// payload started by replyPayload. Frame and payload are pooled and both
// are recycled once SendReliable returns (the fabric encodes synchronously
// and retains neither).
//
// It then yields the processor. The send only queued the reply: the egress
// drainer it woke needs a processor to put it on the wire, and a scheduler
// worker with handlers queued behind this one goes straight into the next
// without parking — on a busy or single-core node the reply would sit in
// its lane for as long as that handler runs, and leave in one datagram with
// the next reply, which brings every caller back at the same instant.
func (e *Engine) sendReply(to transport.NodeID, mt protocol.MsgType, flags, enc uint8, pr qos.Priority, payload []byte) {
	reply := protocol.GetFrame()
	*reply = protocol.Frame{
		Type:     mt,
		Flags:    flags,
		Encoding: enc,
		Priority: pr,
		Payload:  payload,
	}
	e.f.SendReliable(to, reply, qos.ReliableARQ, nil)
	protocol.PutFrame(reply)
	bufpool.Put(payload)
	runtime.Gosched()
}

// replyBusy sheds one request with an explicit MTBusy (§4.3 admission
// control); the caller treats it as an infrastructure failure and fails
// over.
func (e *Engine) replyBusy(to transport.NodeID, callID uint64, pr qos.Priority) {
	e.busyRejects.Inc()
	e.sendReply(to, protocol.MTBusy, 0, 0, pr, replyPayload(callID, 0))
}

func (e *Engine) replyAppError(to transport.NodeID, callID uint64, pr qos.Priority, msg string) {
	buf := appendAppError(replyPayload(callID, 4+len(msg)), msg)
	e.sendReply(to, protocol.MTError, protocol.FlagAppError, 0, pr, buf)
}

// appendAppError appends an MTError's application message to a reply
// payload: a u32 length, then the bytes.
func appendAppError(dst []byte, msg string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...)
}

// decodeAppError reads the application message appendAppError wrote at
// the start of an MTError's body.
func decodeAppError(body []byte) (string, bool) {
	r := encoding.NewReader(body)
	msg := r.String()
	return msg, r.Err() == nil
}

// Replies must not reuse the caller-allocated call id as their wire
// sequence number: frame seq spaces (ARQ pending state, receive-side
// dedup) are per sender, so a reply frame squatting a number from the
// caller's space can collide with an unrelated frame the provider sends
// later under its own numbering — and be silently dropped as a duplicate.
// The call id therefore travels as a canonical uvarint prefix of the reply
// payload (an overlong form is rejected, as in frame seqs) and the reply's
// Seq is provider-allocated (SendReliable fills it).

// decodeReply splits a reply payload into call id and body.
func decodeReply(payload []byte) (callID uint64, body []byte, ok bool) {
	r := encoding.NewReader(payload)
	callID = r.Uvarint()
	if r.Err() != nil {
		return 0, nil, false
	}
	return callID, r.Raw(r.Remaining()), true
}

// ReplyCallID reports the call id an MTReturn, MTError or MTBusy payload
// answers. A remote call's frame seq is its call id, so the id also names
// the call's reliable send: the container settles that send when the reply
// arrives, and drops the call's held acknowledgment when the reply leaves.
func ReplyCallID(payload []byte) (uint64, bool) {
	callID, _, ok := decodeReply(payload)
	return callID, ok
}

// HandleReturn completes a pending attempt with a success reply.
func (e *Engine) HandleReturn(from transport.NodeID, fr *protocol.Frame) {
	callID, body, ok := decodeReply(fr.Payload)
	if !ok {
		uerr.Newf(e.reg, codeReplyDecode, "return from %q", from)
		return
	}
	e.deliver(callID, outcome{body: body})
}

// HandleBusy completes a pending attempt with a provider shed; the call
// fails over to the next provider.
func (e *Engine) HandleBusy(from transport.NodeID, fr *protocol.Frame) {
	callID, _, ok := decodeReply(fr.Payload)
	if !ok {
		uerr.Newf(e.reg, codeReplyDecode, "busy from %q", from)
		return
	}
	e.deliver(callID, outcome{err: ErrBusy})
}

// HandleError completes a pending attempt with a failure reply. Neither
// error it delivers names the function: settle wraps or names it.
func (e *Engine) HandleError(from transport.NodeID, fr *protocol.Frame) {
	callID, body, ok := decodeReply(fr.Payload)
	if !ok {
		uerr.Newf(e.reg, codeReplyDecode, "error reply from %q", from)
		return
	}
	if fr.Flags&protocol.FlagAppError == 0 {
		e.deliver(callID, outcome{err: uerr.New(e.reg, codeUnknownFunction, "no such function")})
		return
	}
	msg, ok := decodeAppError(body)
	if !ok {
		msg = "remote error"
	}
	e.deliver(callID, outcome{appErr: &AppError{Message: msg}})
}

// DependencyCheck verifies every named function has at least one provider,
// locally or in the directory (§4.3 startup behaviour, experiment E12).
// The returned error lists every missing name.
func (e *Engine) DependencyCheck(names ...string) error {
	var missing []string
	for _, name := range names {
		if e.hasLocal(name) {
			continue
		}
		if e.f.Directory().ProviderCount(naming.KindFunction, name) > 0 {
			continue
		}
		missing = append(missing, name)
	}
	if len(missing) > 0 {
		return fmt.Errorf("rpc: missing %s: %w", strings.Join(missing, ", "), ErrDependency)
	}
	return nil
}

// Records lists this node's registered functions for announcements.
func (e *Engine) Records() []naming.Record {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	out := make([]naming.Record, 0, len(e.functions))
	for _, reg := range e.functions {
		out = append(out, naming.Record{
			Kind:    naming.KindFunction,
			Name:    reg.name,
			Service: reg.service,
			Node:    e.f.Self(),
			TypeSig: sigOf(reg.retType),
			ArgSig:  sigOf(reg.argType),
		})
	}
	return out
}

// Calls reports how many times a local function has executed.
func (e *Engine) Calls(name string) uint64 {
	e.regMu.Lock()
	reg := e.functions[name]
	e.regMu.Unlock()
	if reg != nil {
		return reg.calls.Value()
	}
	return 0
}
