// Package filetransfer implements the paper's §4.4 communication primitive:
// reliable distribution of long file-structured resources from one node to
// many, via a protocol "loosely based on Starburst MFTP".
//
// Three phases, which may overlap across subscribers:
//
//	announce   — the publisher multicasts resource metadata (revision,
//	             chunk geometry); interested services subscribe.
//	transfer   — the publisher multicasts numbered chunks; receivers
//	             reconstruct regardless of loss or reordering.
//	completion — the publisher queries status; receivers reply ACK (done)
//	             or a compressed NACK listing missing chunks, and the
//	             publisher re-multicasts exactly those, iterating "until
//	             the subscribers list is empty".
//
// Late subscribers join mid-transfer and collect whatever chunks remain,
// recovering the rest through the completion phase. Revisions identify
// versions; subscribers are notified when the resource changes. Transfers
// between services of the same container never touch the network — "the
// transfer is bypassed by the container as direct access to the resource".
package filetransfer

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// File-transfer wire-path error codes. Chunk-round sends are repaired by
// the NACK cycle, but every failure is counted, never discarded.
var (
	codeFileAnnounce = uerr.Register("filetransfer.announce", uerr.CatSend)
	codeFileChunk    = uerr.Register("filetransfer.chunk_send", uerr.CatSend)
	codeFileQuery    = uerr.Register("filetransfer.query_send", uerr.CatSend)
	codeFileLeave    = uerr.Register("filetransfer.leave_group", uerr.CatResource)
)

// Errors.
var (
	// ErrDuplicateName reports a second offer of a resource name.
	ErrDuplicateName = errors.New("file already offered")
	// ErrNoProvider reports a fetch of a resource nobody offers.
	ErrNoProvider = errors.New("no provider for file")
	// ErrClosed reports use of a closed handle.
	ErrClosed = errors.New("file handle closed")
	// ErrEmpty reports an offer with no data.
	ErrEmpty = errors.New("empty file")
	// ErrTooLarge reports an offer whose chunks exceed MaxFileBytes.
	ErrTooLarge = errors.New("file too large")
)

// Tunables.
const (
	// DefaultChunkSize fits a chunk frame within the datagram MTU.
	DefaultChunkSize = 1200
	// DefaultQueryWindow is the shortest wait for the answers a completion
	// query is owed. The wait is at least twice the slowest answer to the
	// last answered query, and doubles for every consecutive round that
	// ends with answers still owed; it ends early once nothing is owed.
	DefaultQueryWindow = 40 * time.Millisecond
	// DefaultMaxStrikes drops a subscriber once it has left more than this
	// many queries in a row unanswered.
	DefaultMaxStrikes = 5
	// MaxFileBytes bounds chunks × chunk size of one resource: it is what
	// geometry a peer put on the wire can make a receiver allocate, and
	// Offer refuses what no receiver would accept.
	MaxFileBytes = 256 << 20
)

// Engine is the per-container file-transfer runtime.
type Engine struct {
	f   fabric.Fabric
	clk clock.Clock
	reg *metrics.Registry

	maxFile int // MaxFileBytes; tests lower it

	// ctx ends with the engine: every Fetch and Watch waits on it too.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	offers   map[string]*Offer
	fetches  map[string]*fetchState
	watchers map[string][]*watcher
	joins    map[string]int  // multicast group refcounts, by group name
	wakes    []clock.Trigger // idle fetch wake-ups, reused by later fetches
}

// New builds the engine for a container. The engine paces its transfer
// rounds on the fabric's clock when the fabric exposes one
// (fabric.Clocked), so virtual-time containers carry file-transfer timing
// with them.
func New(f fabric.Fabric) *Engine {
	e := &Engine{
		f:        f,
		clk:      fabric.ClockOf(f),
		reg:      fabric.MetricsOf(f),
		maxFile:  MaxFileBytes,
		offers:   make(map[string]*Offer),
		fetches:  make(map[string]*fetchState),
		watchers: make(map[string][]*watcher),
		joins:    make(map[string]int),
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	return e
}

// Close ends the engine with its node. Every offer closes without an
// OfferChanged of its own, because the node's goodbye withdraws them all;
// in-flight and later Fetch and Watch calls return ErrClosed, and so do
// later Offers. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	offers := make([]*Offer, 0, len(e.offers))
	for _, o := range e.offers {
		offers = append(offers, o)
	}
	e.mu.Unlock()
	e.cancel()
	for _, o := range offers {
		o.close()
	}
}

// bind returns ctx, also canceled with cause ErrClosed when the engine
// closes, and the function that releases it.
func (e *Engine) bind(ctx context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(ctx)
	stop := context.AfterFunc(e.ctx, func() { cancel(ErrClosed) })
	return ctx, func() {
		stop()
		cancel(nil)
	}
}

// Offer publishes a resource. The initial revision is 1; Update bumps it.
func (e *Engine) Offer(name, service string, data []byte, q qos.TransferQoS) (*Offer, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("filetransfer: %q: %w", name, ErrEmpty)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.Normalize()
	if q.ChunkSize <= 0 {
		q.ChunkSize = DefaultChunkSize
	}
	if err := e.checkSize(name, len(data), q.ChunkSize); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("filetransfer: %q: %w", name, ErrClosed)
	}
	if _, dup := e.offers[name]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("filetransfer: %q: %w", name, ErrDuplicateName)
	}
	o := &Offer{
		engine:      e,
		name:        name,
		group:       fabric.FileGroup(name),
		service:     service,
		q:           q,
		revision:    1,
		data:        data,
		subscribers: make(map[transport.NodeID]*subState),
		wake:        clock.NewTrigger(e.clk),
		stop:        make(chan struct{}),
	}
	e.offers[name] = o
	e.mu.Unlock()
	e.f.OfferChanged()
	return o, nil
}

// checkSize refuses content whose chunks no receiver would make room for.
func (e *Engine) checkSize(name string, size, chunkSize int) error {
	if chunkCount(size, chunkSize)*chunkSize > e.maxFile {
		return fmt.Errorf("filetransfer: %q: %d bytes: %w", name, size, ErrTooLarge)
	}
	return nil
}

// Offer is the publisher-side handle of one resource.
type Offer struct {
	engine  *Engine
	name    string
	group   string // fabric.FileGroup(name)
	service string
	q       qos.TransferQoS

	mu          sync.Mutex
	revision    uint64
	data        []byte
	subscribers map[transport.NodeID]*subState
	active      bool
	closed      bool
	rounds      uint64 // total transfer rounds run (diagnostics/E4)

	// The completion phase waits for the answers its query is owed.
	owed     int           // subscribers whose owed flag is set
	queried  time.Time     // when the current query was queued
	answered bool          // the current query has had an answer
	slowest  time.Duration // the slowest answer to the last answered query
	wake     clock.Trigger // signalled when the last owed answer settles

	stop chan struct{} // closed by Close; aborts the transfer loop
}

type subState struct {
	// token names the fetch that subscribed, and only an ack carrying it
	// ends the subscription. Zero (adopted from a NACK) accepts any ack.
	token   uint64
	strikes int    // queries in a row left unanswered
	missing []bool // by chunk index; nil until the first NACK: needs everything
	// owed is set when a query is queued and cleared, once, by the first of
	// its ACK or NACK, a restart (new token or Update) or its removal.
	owed bool
}

// settle clears st's owed answer, if it has one; answered says an ACK or
// NACK settled it, whose delay sizes the next round's wait. The last
// settlement wakes the waiting round. Caller holds o.mu.
func (o *Offer) settle(st *subState, answered bool) {
	if !st.owed {
		return
	}
	st.owed = false
	o.owed--
	if answered {
		if d := o.engine.clk.Since(o.queried); !o.answered || d > o.slowest {
			o.slowest, o.answered = d, true
		}
	}
	if o.owed == 0 {
		o.wake.Signal()
	}
}

// drop ends node's subscription, settling what it owed. Caller holds o.mu.
func (o *Offer) drop(node transport.NodeID, st *subState) {
	o.settle(st, false)
	delete(o.subscribers, node)
}

// chunkCount is the number of chunkSize-byte chunks size bytes split into.
func chunkCount(size, chunkSize int) int { return (size + chunkSize - 1) / chunkSize }

// chunkAt is chunk i of data: chunkSize bytes, fewer for the last.
func chunkAt(data []byte, chunkSize, i int) []byte {
	return data[i*chunkSize : min((i+1)*chunkSize, len(data))]
}

// Revision returns the current revision.
func (o *Offer) Revision() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.revision
}

// Rounds reports completed transfer rounds (diagnostics).
func (o *Offer) Rounds() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rounds
}

// Update replaces the resource content, bumping the revision and notifying
// subscribers (§4.4 revision change notification).
func (o *Offer) Update(data []byte) (uint64, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("filetransfer: %q: %w", o.name, ErrEmpty)
	}
	if err := o.engine.checkSize(o.name, len(data), o.q.ChunkSize); err != nil {
		return 0, err
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return 0, fmt.Errorf("filetransfer: %q: %w", o.name, ErrClosed)
	}
	o.revision++
	o.data = data
	rev := o.revision
	// Every subscriber restarts against the new revision, so nothing the
	// old one's query asked is owed.
	for _, st := range o.subscribers {
		o.settle(st, false)
		st.missing = nil
		st.strikes = 0
	}
	o.mu.Unlock()

	o.engine.notifyWatchers(o.name, rev)
	o.announce()
	return rev, nil
}

// Data returns the current content (shared; callers must not mutate) —
// the local-bypass access path.
func (o *Offer) Data() ([]byte, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.data, o.revision
}

// Record returns the naming record for announcements.
func (o *Offer) Record() naming.Record {
	return naming.Record{
		Kind:    naming.KindFile,
		Name:    o.name,
		Service: o.service,
		Node:    o.engine.f.Self(),
	}
}

// Close withdraws the offer and stops its transfer loop: the loop checks
// for it before every chunk and its wait for answers aborts on it, so a
// withdrawn offer stops feeding its lane at once.
func (o *Offer) Close() {
	if o.close() {
		o.engine.f.OfferChanged()
	}
}

// close is Close without the announcement; it reports whether this call
// closed the offer.
func (o *Offer) close() bool {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return false
	}
	o.closed = true
	o.mu.Unlock()
	close(o.stop)
	o.engine.mu.Lock()
	delete(o.engine.offers, o.name)
	o.engine.mu.Unlock()
	return true
}

// announce multicasts resource metadata (phase 1).
func (o *Offer) announce() {
	o.mu.Lock()
	revision, size := o.revision, len(o.data)
	o.mu.Unlock()
	payload := appendFileMeta(bufpool.Get(fileMetaSize), revision, uint64(size),
		uint32(o.q.ChunkSize), uint32(chunkCount(size, o.q.ChunkSize)))
	frame := protocol.GetFrame()
	*frame = protocol.Frame{
		Type:     protocol.MTFileAnnounce,
		Priority: o.q.Priority,
		Channel:  o.name,
		Payload:  payload,
	}
	if err := o.engine.f.SendGroup(o.group, frame); err != nil {
		uerr.Wrapf(o.engine.reg, codeFileAnnounce, err, "announce %s", o.name)
	}
	protocol.PutFrame(frame)
	bufpool.Put(payload)
}

// addSubscriber registers a receiver's fetch and ensures the transfer loop
// runs. A new token is a new fetch, which has received nothing yet and owes
// nothing to a query the old one was asked.
func (o *Offer) addSubscriber(node transport.NodeID, token uint64) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	st := o.subscribers[node]
	if st == nil {
		st = &subState{}
		o.subscribers[node] = st
	}
	if st.token != token {
		o.settle(st, false)
		st.token, st.missing, st.strikes = token, nil, 0
	}
	start := !o.active
	o.active = true
	o.mu.Unlock()
	if start {
		clock.Go(o.engine.clk, o.transferLoop)
	}
}

// transferLoop runs phases 2 and 3 until no subscribers remain. It has no
// pacer of its own: SendGroup waits while the egress lane holds its bulk
// window (and, on the in-process bus, while the receivers still hold the
// bearer's bulk credit), so the loop runs at the rate its lane drains — the
// bearer's bulk rate on a shaped link — or its slowest receiver dispatches.
//
// A round ends on its last owed answer. Its wait is a backstop for answers
// that do not come, sized from the answers that did: twice the slowest
// answer to the last answered query, at least DefaultQueryWindow, doubled
// for every round in a row that ended with answers owed.
func (o *Offer) transferLoop() {
	e := o.engine
	chunkSize := o.q.ChunkSize
	// One frame and one payload buffer serve every send of every round:
	// the fabric has encoded a frame by the time SendGroup returns.
	frame := protocol.GetFrame()
	defer protocol.PutFrame(frame)
	payload := bufpool.Get(chunkHeaderSize + chunkSize) // never outgrown
	defer bufpool.Put(payload)
	var pending []bool // by chunk index: some subscriber lacks it
	misses := 0        // rounds in a row that ended with answers owed
rounds:
	for {
		o.mu.Lock()
		if o.closed || len(o.subscribers) == 0 {
			o.active = false
			o.mu.Unlock()
			return
		}
		revision, data := o.revision, o.data
		total := chunkCount(len(data), chunkSize)
		// Pending = union of subscriber needs; a subscriber with no
		// recorded NACK yet needs everything. One that still owes an answer
		// is left out: its needs are unknown until it answers, and sending
		// on speculation repeats whole rounds on a slow link.
		pending = append(pending[:0], make([]bool, total)...)
		for _, st := range o.subscribers {
			if st.owed {
				continue
			}
			for i := range pending {
				pending[i] = pending[i] || st.missing == nil || st.missing[i]
			}
		}
		o.mu.Unlock()

		// Phase 1 refresher for late joiners.
		o.announce()

		// Phase 2: multicast pending chunks in index order, each sliced
		// out of data straight into the round's payload buffer.
		for i, need := range pending {
			if !need {
				continue
			}
			select {
			case <-o.stop:
				continue rounds // the loop head exits
			default:
			}
			*frame = protocol.Frame{Type: protocol.MTFileChunk, Priority: o.q.Priority, Channel: o.name,
				Payload: appendChunk(payload[:0], revision, uint32(i), uint32(total), chunkAt(data, chunkSize, i))}
			uerr.Note(e.reg, codeFileChunk, e.f.SendGroup(o.group, frame), "chunk round")
		}

		// Phase 3: query and collect. Every subscriber owes the query an
		// answer from before it is queued: on the in-process bus the answer
		// can arrive inside SendGroup. The query rides the transfer's own
		// class so it trails the round's chunks through the egress lane;
		// overtaking them would solicit NACKs for chunks still in flight.
		o.mu.Lock()
		wait := max(DefaultQueryWindow, 2*o.slowest) << min(misses, DefaultMaxStrikes)
		o.queried, o.answered = e.clk.Now(), false
		for _, st := range o.subscribers {
			if !st.owed {
				st.owed = true
				o.owed++
			}
		}
		o.mu.Unlock()
		*frame = protocol.Frame{Type: protocol.MTFileQuery, Priority: o.q.Priority, Channel: o.name,
			Payload: appendFileMeta(payload[:0], revision, 0, uint32(chunkSize), uint32(total))}
		uerr.Note(e.reg, codeFileQuery, e.f.SendGroup(o.group, frame), "completion query")
		deadline := e.clk.Now().Add(wait)
		for {
			o.mu.Lock()
			owed := o.owed
			o.mu.Unlock()
			left := deadline.Sub(e.clk.Now())
			if owed == 0 || left <= 0 {
				break
			}
			if !o.wake.Wait(left, o.stop) {
				continue rounds // closed; the loop head exits
			}
		}

		o.mu.Lock()
		o.rounds++
		if o.owed == 0 {
			misses = 0
		} else {
			misses++
		}
		for node, st := range o.subscribers {
			if !st.owed {
				st.strikes = 0
				continue
			}
			st.strikes++
			if st.strikes > DefaultMaxStrikes {
				o.drop(node, st)
			}
		}
		o.mu.Unlock()
	}
}

// --- wire payload codecs ---

const (
	fileMetaSize    = 24 // revision u64, size u64, chunkSize u32, chunks u32
	chunkHeaderSize = 16 // revision u64, index u32, total u32
)

// appendFileMeta appends the announce and query payload: revision u64,
// size u64, chunkSize u32, chunks u32.
func appendFileMeta(dst []byte, revision, size uint64, chunkSize, chunks uint32) []byte {
	dst = binary.BigEndian.AppendUint64(dst, revision)
	dst = binary.BigEndian.AppendUint64(dst, size)
	dst = binary.BigEndian.AppendUint32(dst, chunkSize)
	return binary.BigEndian.AppendUint32(dst, chunks)
}

func decodeFileMeta(payload []byte) (revision, size uint64, chunkSize, chunks uint32, err error) {
	r := encoding.NewReader(payload)
	revision = r.Uint64()
	size = r.Uint64()
	chunkSize = r.Uint32()
	chunks = r.Uint32()
	return revision, size, chunkSize, chunks, r.Err()
}

// appendChunk appends the chunk payload: revision u64, index u32, total
// u32, raw data.
func appendChunk(dst []byte, revision uint64, index, total uint32, data []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, revision)
	dst = binary.BigEndian.AppendUint32(dst, index)
	dst = binary.BigEndian.AppendUint32(dst, total)
	return append(dst, data...)
}

func decodeChunk(payload []byte) (revision uint64, index, total uint32, data []byte, err error) {
	r := encoding.NewReader(payload)
	revision = r.Uint64()
	index = r.Uint32()
	total = r.Uint32()
	if err := r.Err(); err != nil {
		return 0, 0, 0, nil, err
	}
	return revision, index, total, r.Raw(r.Remaining()), nil
}

// appendAck appends the ack payload: revision u64, then the token u64 of the
// fetch that completed. A NACK is the revision followed by RLE ranges; a
// subscribe is the token alone.
func appendAck(dst []byte, revision, token uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, revision)
	return binary.BigEndian.AppendUint64(dst, token)
}

// --- receiver side ---

// fetchState reassembles one resource for the Fetch calls waiting on it,
// from the frames of provider, the node it subscribed to, and nobody else's.
type fetchState struct {
	name  string
	token uint64 // names this fetch in its subscribe and its acks

	mu        sync.Mutex
	provider  transport.NodeID
	revision  uint64
	chunkSize int    // adopted geometry; zero until buf exists
	buf       []byte // total × chunkSize; chunk i lands at i × chunkSize
	have      []bool // by chunk index
	received  int
	size      int             // file length: announced, else known with the last chunk
	data      []byte          // the complete file, buf[:size]; nil until then
	wakes     []clock.Trigger // one per waiting Fetch, signalled on completion
	refs      int
}

// watcher is one Watch waiting for a newer revision than it delivered.
type watcher struct {
	wake   clock.Trigger
	newest uint64 // highest revision announced since it registered (guarded by Engine.mu)
}

// FetchOptions tune a fetch; today there is nothing to tune.
type FetchOptions struct{}

// Fetch retrieves the named resource, blocking until complete, ctx ends or
// the engine closes (ErrClosed). A locally offered resource is returned by
// direct access without touching the network (§4.4 bypass, experiment E5).
func (e *Engine) Fetch(ctx context.Context, name string, opts FetchOptions) ([]byte, uint64, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, 0, fmt.Errorf("filetransfer: fetch %q: %w", name, ErrClosed)
	}
	// Local bypass.
	if o, local := e.offers[name]; local {
		e.mu.Unlock()
		data, rev := o.Data()
		//wirepath:alloc snapshot copy returned to the caller, which retains it
		out := make([]byte, len(data))
		copy(out, data)
		return out, rev, nil
	}
	st := e.fetches[name]
	if st == nil {
		st = &fetchState{name: name, token: e.f.NextSeq()}
		e.fetches[name] = st
	}
	st.refs++
	var wake clock.Trigger
	if n := len(e.wakes); n > 0 {
		wake, e.wakes = e.wakes[n-1], e.wakes[:n-1]
	} else {
		wake = clock.NewTrigger(e.clk)
	}
	e.mu.Unlock()
	ctx, release := e.bind(ctx)
	defer release()

	group := fabric.FileGroup(name)
	defer func() {
		st.mu.Lock()
		st.wakes = slices.DeleteFunc(st.wakes, func(w clock.Trigger) bool { return w == wake })
		st.mu.Unlock()
		e.mu.Lock()
		st.refs--
		if st.refs == 0 {
			delete(e.fetches, name)
		}
		e.wakes = append(e.wakes, wake)
		e.mu.Unlock()
		e.leaveGroup(group)
	}()

	if err := e.joinGroup(group); err != nil {
		return nil, 0, err
	}

	// Subscribe to the provider (phase 1). Retry resolution while the
	// directory has no provider yet.
	if err := e.subscribeToProvider(ctx, st); err != nil {
		return nil, 0, err
	}

	// Completion arrives from the network and signals wake.
	st.mu.Lock()
	st.wakes = append(st.wakes, wake)
	for st.data == nil {
		st.mu.Unlock()
		if !wake.Wait(-1, ctx.Done()) {
			return nil, 0, fmt.Errorf("filetransfer: fetch %q: %w", name, context.Cause(ctx))
		}
		st.mu.Lock()
	}
	defer st.mu.Unlock()
	return st.data, st.revision, nil
}

func (e *Engine) subscribeToProvider(ctx context.Context, st *fetchState) error {
	for {
		rec, err := e.f.Directory().Select(naming.KindFile, st.name, qos.BindDynamic, "")
		if err == nil {
			st.mu.Lock()
			st.provider = rec.Node
			st.mu.Unlock()
			e.sendControl(rec.Node, protocol.MTFileSubscribe, st.name, binary.BigEndian.AppendUint64(bufpool.Get(8), st.token))
			return nil
		}
		if !clock.SleepStop(e.clk, 10*time.Millisecond, ctx.Done()) {
			if cause := context.Cause(ctx); errors.Is(cause, ErrClosed) {
				return fmt.Errorf("filetransfer: fetch %q: %w", st.name, cause)
			}
			return fmt.Errorf("filetransfer: fetch %q: %w", st.name, ErrNoProvider)
		}
	}
}

// Watch delivers the resource now and again on every revision change, until
// ctx ends (nil) or the engine closes (ErrClosed). Deliveries run on the
// caller's goroutine discipline: cb is invoked from a dedicated watch
// goroutine.
func (e *Engine) Watch(ctx context.Context, name string, opts FetchOptions, cb func(data []byte, revision uint64)) error {
	ctx, release := e.bind(ctx)
	defer release()
	w := &watcher{wake: clock.NewTrigger(e.clk)}
	// Hold group membership for the whole watch so revision announces
	// keep arriving between fetches.
	group := fabric.FileGroup(name)
	if err := e.joinGroup(group); err != nil {
		return err
	}
	defer e.leaveGroup(group)
	e.mu.Lock()
	e.watchers[name] = append(e.watchers[name], w)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.watchers[name] = slices.DeleteFunc(e.watchers[name], func(x *watcher) bool { return x == w })
		e.mu.Unlock()
	}()

	var have uint64
	for {
		data, rev, err := e.Fetch(ctx, name, opts)
		if err != nil {
			return err
		}
		if rev > have {
			have = rev
			cb(data, rev)
		}
		// Wait for a newer revision.
		for e.newest(w) <= have {
			if !w.wake.Wait(-1, ctx.Done()) {
				if cause := context.Cause(ctx); errors.Is(cause, ErrClosed) {
					return fmt.Errorf("filetransfer: watch %q: %w", name, cause)
				}
				return nil
			}
		}
	}
}

// newest is the highest revision announced to w.
func (e *Engine) newest(w *watcher) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return w.newest
}

// joinGroup reference-counts multicast membership of a resource's group
// (fabric.FileGroup) so overlapping fetches and watches share one Join.
func (e *Engine) joinGroup(group string) error {
	e.mu.Lock()
	e.joins[group]++
	first := e.joins[group] == 1
	e.mu.Unlock()
	if !first {
		return nil
	}
	if err := e.f.Join(group); err != nil {
		e.mu.Lock()
		e.joins[group]--
		e.mu.Unlock()
		return err
	}
	return nil
}

func (e *Engine) leaveGroup(group string) {
	e.mu.Lock()
	e.joins[group]--
	last := e.joins[group] <= 0
	if last {
		delete(e.joins, group)
	}
	e.mu.Unlock()
	if last {
		if err := e.f.Leave(group); err != nil {
			uerr.Wrapf(e.reg, codeFileLeave, err, "leave %s", group)
		}
	}
}

func (e *Engine) notifyWatchers(name string, revision uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.watchers[name] {
		w.newest = max(w.newest, revision)
		w.wake.Signal()
	}
}

// --- frame handlers (wired by the container) ---

// HandleSubscribe processes a receiver's MTFileSubscribe.
func (e *Engine) HandleSubscribe(from transport.NodeID, fr *protocol.Frame) {
	e.mu.Lock()
	o := e.offers[fr.Channel]
	e.mu.Unlock()
	if o != nil {
		// A peer that sent no token reads as zero, which names no fetch.
		o.addSubscriber(from, encoding.NewReader(fr.Payload).Uint64())
	}
}

// fetchFrom returns the fetch of name in progress, locked, when from is the
// provider it subscribed to; nil otherwise.
func (e *Engine) fetchFrom(name string, from transport.NodeID) *fetchState {
	e.mu.Lock()
	st := e.fetches[name]
	e.mu.Unlock()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	if st.provider != from {
		st.mu.Unlock()
		return nil
	}
	return st
}

// HandleAnnounce processes resource metadata (group or unicast).
func (e *Engine) HandleAnnounce(from transport.NodeID, fr *protocol.Frame) {
	revision, size, chunkSize, chunks, err := decodeFileMeta(fr.Payload)
	if err != nil {
		return
	}
	e.notifyWatchers(fr.Channel, revision)
	st := e.fetchFrom(fr.Channel, from)
	if st == nil {
		return
	}
	defer st.mu.Unlock()
	// The announced size must be one the geometry can hold: its last byte
	// falls in the last chunk.
	span := uint64(chunks) * uint64(chunkSize)
	if size > span || size+uint64(chunkSize) <= span {
		return
	}
	if st.adopt(revision, chunks, chunkSize, e.maxFile) && int(chunkSize) == st.chunkSize && st.size == 0 {
		st.size = int(size)
	}
}

// adopt reports whether a frame of revision counting total chunks belongs
// to the transfer in progress. It restarts on a newer revision and sizes the
// reassembly buffer from the first geometry it hears — a peer's word, so not
// for a zero count, a zero chunk size (the frame does not say) or more than
// limit bytes. Caller holds st.mu.
func (st *fetchState) adopt(revision uint64, total, chunkSize uint32, limit int) bool {
	if revision < st.revision || st.data != nil {
		return false // older revision, or already complete
	}
	if revision > st.revision {
		st.revision = revision
		st.buf, st.have = nil, nil
		st.chunkSize, st.received, st.size = 0, 0, 0
	}
	if st.buf == nil {
		if total == 0 || chunkSize == 0 || uint64(total)*uint64(chunkSize) > uint64(limit) {
			return false
		}
		st.chunkSize = int(chunkSize)
		//wirepath:alloc the reassembly buffer is the file handed to the caller, which retains it
		st.buf = make([]byte, int(total)*int(chunkSize))
		st.have = make([]bool, total)
	}
	return int(total) == len(st.have)
}

// HandleChunk places one multicast chunk at its offset in the file.
func (e *Engine) HandleChunk(from transport.NodeID, fr *protocol.Frame) {
	revision, index, total, data, err := decodeChunk(fr.Payload)
	if err != nil || index >= total || len(data) == 0 {
		return
	}
	st := e.fetchFrom(fr.Channel, from)
	if st == nil {
		return
	}
	// Every chunk but the last is one chunk size long, which is how a fetch
	// that missed the announce learns the geometry. The last chunk of a
	// multi-chunk file teaches nothing: heard first it cannot be placed, is
	// dropped here and comes back with the next NACK round.
	last := index == total-1
	var teaches uint32
	if !last || total == 1 {
		teaches = uint32(len(data))
	}
	if !st.adopt(revision, total, teaches, e.maxFile) || st.have[index] ||
		len(data) > st.chunkSize || (!last && len(data) != st.chunkSize) {
		st.mu.Unlock()
		return
	}
	if last {
		size := int(index)*st.chunkSize + len(data)
		if st.size != 0 && st.size != size {
			st.mu.Unlock()
			return // disagrees with the announced size
		}
		st.size = size
	}
	copy(st.buf[int(index)*st.chunkSize:], data)
	st.have[index] = true
	st.received++
	complete := st.received == len(st.have)
	if complete {
		st.data = st.buf[:st.size]
		for _, w := range st.wakes {
			w.Signal()
		}
	}
	st.mu.Unlock()

	if complete {
		// Proactive ACK: don't wait for the query round.
		e.sendControl(from, protocol.MTFileAck, fr.Channel, appendAck(bufpool.Get(16), revision, st.token))
	}
}

// sendControl sends a subscribe, ack or NACK. Control frames ride
// PriorityNormal, not the bulk lane: joining or completing a transfer must
// not queue behind a chunk backlog, the node's own or one flowing the other
// way through a shared medium. payload is a bufpool buffer; it and the
// pooled frame are recycled once SendReliable returns (the fabric has
// encoded both by then).
func (e *Engine) sendControl(to transport.NodeID, t protocol.MsgType, name string, payload []byte) {
	frame := protocol.GetFrame()
	*frame = protocol.Frame{Type: t, Priority: qos.PriorityNormal, Channel: name, Payload: payload}
	e.f.SendReliable(to, frame, qos.ReliableARQ, nil)
	protocol.PutFrame(frame)
	bufpool.Put(payload)
}

// HandleQuery answers a completion-phase query with ACK or NACK.
func (e *Engine) HandleQuery(from transport.NodeID, fr *protocol.Frame) {
	revision, _, chunkSize, chunks, err := decodeFileMeta(fr.Payload)
	if err != nil {
		return
	}
	st := e.fetchFrom(fr.Channel, from)
	if st == nil {
		return
	}
	if st.data != nil {
		complete := revision == st.revision
		st.mu.Unlock()
		if complete {
			e.sendControl(from, protocol.MTFileAck, fr.Channel, appendAck(bufpool.Get(16), revision, st.token))
		}
		return
	}
	if !st.adopt(revision, chunks, chunkSize, e.maxFile) || int(chunkSize) != st.chunkSize {
		st.mu.Unlock()
		return
	}
	// Worst case every other chunk is missing: one range per two chunks.
	payload := bufpool.Get(8 + 4 + 8*((len(st.have)+1)/2))
	payload = binary.BigEndian.AppendUint64(payload, revision)
	payload = appendMissing(payload, st.have)
	st.mu.Unlock()

	e.sendControl(from, protocol.MTFileNack, fr.Channel, payload)
}

// HandleAck processes a receiver's completion at the publisher: it ends the
// subscription of the fetch the ack names. The ack of a fetch that has
// returned can arrive after the same node's next subscribe and must leave
// that one alone.
func (e *Engine) HandleAck(from transport.NodeID, fr *protocol.Frame) {
	e.mu.Lock()
	o := e.offers[fr.Channel]
	e.mu.Unlock()
	if o == nil {
		return
	}
	r := encoding.NewReader(fr.Payload)
	revision := r.Uint64()
	if r.Err() != nil {
		return
	}
	token := r.Uint64() // zero, which names no fetch, when the peer sent none
	o.mu.Lock()
	defer o.mu.Unlock()
	st := o.subscribers[from]
	if st != nil && revision == o.revision && (st.token == 0 || st.token == token) {
		o.settle(st, true)
		delete(o.subscribers, from)
	}
}

// HandleNack records a receiver's missing list at the publisher, decoding
// its ranges against the chunk count of the revision they refer to.
func (e *Engine) HandleNack(from transport.NodeID, fr *protocol.Frame) {
	e.mu.Lock()
	o := e.offers[fr.Channel]
	e.mu.Unlock()
	if o == nil {
		return
	}
	r := encoding.NewReader(fr.Payload)
	revision := r.Uint64()
	o.mu.Lock()
	defer o.mu.Unlock()
	if r.Err() != nil || revision != o.revision {
		return // truncated, or about an old revision: the receiver will restart
	}
	missing := make([]bool, chunkCount(len(o.data), o.q.ChunkSize))
	if decodeMissing(r, missing) != nil {
		return
	}
	st := o.subscribers[from]
	if st == nil {
		// NACK from a node that never subscribed explicitly (it joined
		// the group mid-flight): adopt it.
		st = &subState{}
		o.subscribers[from] = st
	}
	o.settle(st, true)
	st.missing = missing
}

// PeerGone drops a failed node from every offer's subscriber set.
func (e *Engine) PeerGone(node transport.NodeID) {
	e.mu.Lock()
	offers := make([]*Offer, 0, len(e.offers))
	for _, o := range e.offers {
		offers = append(offers, o)
	}
	e.mu.Unlock()
	for _, o := range offers {
		o.mu.Lock()
		if st := o.subscribers[node]; st != nil {
			o.drop(node, st)
		}
		o.mu.Unlock()
	}
}

// Records lists this node's offered resources for announcements.
func (e *Engine) Records() []naming.Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]naming.Record, 0, len(e.offers))
	for _, o := range e.offers {
		out = append(out, o.Record())
	}
	return out
}
