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
	"errors"
	"fmt"
	"sync"
	"time"

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
)

// Tunables (overridable per engine for tests).
const (
	// DefaultChunkSize fits a chunk frame within the datagram MTU.
	DefaultChunkSize = 1200
	// DefaultQueryWindow is how long the publisher collects completion
	// responses each round.
	DefaultQueryWindow = 40 * time.Millisecond
	// DefaultMaxStrikes drops a subscriber after this many silent rounds.
	DefaultMaxStrikes = 5
	// chunkWireOverhead estimates frame header + chunk header bytes per
	// chunk datagram, for RateBPS pacing arithmetic.
	chunkWireOverhead = 64
)

// Engine is the per-container file-transfer runtime.
type Engine struct {
	f   fabric.Fabric
	clk clock.Clock
	reg *metrics.Registry

	queryWindow time.Duration
	maxStrikes  int

	mu       sync.Mutex
	offers   map[string]*Offer
	fetches  map[string]*fetchState
	watchers map[string][]chan uint64
	joins    map[string]int // multicast group refcounts
}

// Option customizes an engine.
type Option func(*Engine)

// WithQueryWindow sets the completion-phase collection window.
func WithQueryWindow(d time.Duration) Option {
	return func(e *Engine) {
		if d > 0 {
			e.queryWindow = d
		}
	}
}

// WithMaxStrikes sets the silent-round budget before a subscriber is
// dropped.
func WithMaxStrikes(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.maxStrikes = n
		}
	}
}

// New builds the engine for a container. The engine paces its transfer
// rounds on the fabric's clock when the fabric exposes one
// (fabric.Clocked), so virtual-time containers carry file-transfer timing
// with them.
func New(f fabric.Fabric, opts ...Option) *Engine {
	e := &Engine{
		f:           f,
		clk:         fabric.ClockOf(f),
		reg:         fabric.MetricsOf(f),
		queryWindow: DefaultQueryWindow,
		maxStrikes:  DefaultMaxStrikes,
		offers:      make(map[string]*Offer),
		fetches:     make(map[string]*fetchState),
		watchers:    make(map[string][]chan uint64),
		joins:       make(map[string]int),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
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
	e.mu.Lock()
	if _, dup := e.offers[name]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("filetransfer: %q: %w", name, ErrDuplicateName)
	}
	o := &Offer{
		engine:      e,
		name:        name,
		service:     service,
		q:           q,
		subscribers: make(map[transport.NodeID]*subState),
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	o.install(1, data)
	e.offers[name] = o
	e.mu.Unlock()
	e.f.OfferChanged()
	return o, nil
}

// Offer is the publisher-side handle of one resource.
type Offer struct {
	engine  *Engine
	name    string
	service string
	q       qos.TransferQoS

	mu          sync.Mutex
	revision    uint64
	data        []byte
	chunks      [][]byte
	subscribers map[transport.NodeID]*subState
	active      bool
	closed      bool
	roundID     uint64
	rounds      uint64 // total transfer rounds run (diagnostics/E4)

	wake chan struct{}
	stop chan struct{} // closed by Close; aborts transfer-loop sleeps
}

type subState struct {
	strikes   int
	missing   map[uint32]bool // nil until first NACK
	responded bool            // in current round
}

// install splits data into chunks under the offer lock-free constructor or
// with o.mu held by Update.
func (o *Offer) install(revision uint64, data []byte) {
	cs := o.q.ChunkSize
	n := (len(data) + cs - 1) / cs
	chunks := make([][]byte, n)
	for i := 0; i < n; i++ {
		end := min((i+1)*cs, len(data))
		chunks[i] = data[i*cs : end]
	}
	o.revision = revision
	o.data = data
	o.chunks = chunks
}

// Name returns the resource name.
func (o *Offer) Name() string { return o.name }

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
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return 0, fmt.Errorf("filetransfer: %q: %w", o.name, ErrClosed)
	}
	o.install(o.revision+1, data)
	rev := o.revision
	// Every subscriber restarts against the new revision.
	for _, st := range o.subscribers {
		st.missing = nil
		st.strikes = 0
	}
	o.mu.Unlock()

	o.engine.notifyWatchers(o.name, rev)
	o.announce()
	o.kick()
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

// Close withdraws the offer and stops its transfer loop. The loop's
// pacing, query-window and round-pause sleeps all abort on Close, so
// shutdown is prompt even mid-pause.
func (o *Offer) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	o.mu.Unlock()
	close(o.stop)
	o.kick()
	o.engine.mu.Lock()
	delete(o.engine.offers, o.name)
	o.engine.mu.Unlock()
	o.engine.f.OfferChanged()
}

func (o *Offer) kick() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// sleep pauses the transfer loop for d, returning false immediately if the
// offer closes first. Bare time.Sleep here used to pin Close behind a full
// query window or round pause.
func (o *Offer) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	return clock.SleepStop(o.engine.clk, d, o.stop)
}

// announce multicasts resource metadata (phase 1).
func (o *Offer) announce() {
	o.mu.Lock()
	payload := encodeFileMeta(o.revision, uint64(len(o.data)), uint32(o.q.ChunkSize), uint32(len(o.chunks)))
	o.mu.Unlock()
	frame := &protocol.Frame{
		Type:     protocol.MTFileAnnounce,
		Priority: o.q.Priority,
		Channel:  o.name,
		Seq:      o.engine.f.NextSeq(),
		Payload:  payload,
	}
	if err := o.engine.f.SendGroup(fabric.FileGroup(o.name), frame); err != nil {
		uerr.Wrapf(o.engine.reg, codeFileAnnounce, err, "announce %s", o.name)
	}
}

// addSubscriber registers a receiver and ensures the transfer loop runs.
func (o *Offer) addSubscriber(node transport.NodeID) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	if _, known := o.subscribers[node]; !known {
		o.subscribers[node] = &subState{}
	}
	start := !o.active
	if start {
		o.active = true
	}
	o.mu.Unlock()
	if start {
		clock.Go(o.engine.clk, o.transferLoop)
	} else {
		o.kick()
	}
}

// transferLoop runs phases 2 and 3 until no subscribers remain.
func (o *Offer) transferLoop() {
	e := o.engine
	for {
		o.mu.Lock()
		if o.closed || len(o.subscribers) == 0 {
			o.active = false
			o.mu.Unlock()
			return
		}
		revision := o.revision
		chunks := o.chunks
		// Pending = union of subscriber needs; a subscriber with no
		// recorded NACK yet needs everything.
		pending := make(map[uint32]bool)
		needAll := false
		for _, st := range o.subscribers {
			if st.missing == nil {
				needAll = true
				break
			}
			for idx := range st.missing {
				pending[idx] = true
			}
		}
		if needAll {
			for i := range chunks {
				pending[uint32(i)] = true
			}
		}
		o.roundID++
		round := o.roundID
		for _, st := range o.subscribers {
			st.responded = false
		}
		o.mu.Unlock()

		// Phase 1 refresher for late joiners.
		o.announce()

		// Phase 2: multicast pending chunks in index order. With a QoS
		// rate cap the emission is paced chunk by chunk, so a
		// bandwidth-constrained link is never handed a burst the egress
		// bulk lane would have to buffer (or drop) — the per-transfer
		// half of the bulk-shaping story; the container egress plane's
		// token bucket shapes the class as a whole.
		group := fabric.FileGroup(o.name)
		total := uint32(len(chunks))
		var nextSend time.Time
		aborted := false
		for i := uint32(0); i < total; i++ {
			if !pending[i] {
				continue
			}
			if o.q.RateBPS > 0 {
				if now := e.clk.Now(); nextSend.After(now) {
					if !o.sleep(nextSend.Sub(now)) {
						aborted = true
						break
					}
				} else if nextSend.Before(now) {
					nextSend = now // credit never accumulates across idle gaps
				}
			}
			frame := &protocol.Frame{
				Type:     protocol.MTFileChunk,
				Priority: o.q.Priority,
				Channel:  o.name,
				Seq:      e.f.NextSeq(),
				Payload:  encodeChunk(revision, i, total, chunks[i]),
			}
			if o.q.RateBPS > 0 {
				wire := len(frame.Payload) + chunkWireOverhead
				nextSend = nextSend.Add(time.Duration(float64(wire) / float64(o.q.RateBPS) * float64(time.Second)))
			}
			uerr.Note(e.reg, codeFileChunk, e.f.SendGroup(group, frame), "chunk round")
		}
		if aborted {
			continue // loop head observes closed and exits
		}

		// Phase 3: query and collect. The query rides the transfer's own
		// class so it trails the round's chunks through the egress lane;
		// overtaking them would solicit NACKs for chunks still in flight.
		query := &protocol.Frame{
			Type:     protocol.MTFileQuery,
			Priority: o.q.Priority,
			Channel:  o.name,
			Seq:      round,
			Payload:  encodeFileMeta(revision, 0, uint32(o.q.ChunkSize), total),
		}
		uerr.Note(e.reg, codeFileQuery, e.f.SendGroup(group, query), "completion query")
		if !o.sleep(e.queryWindow) {
			continue
		}

		o.mu.Lock()
		o.rounds++
		for node, st := range o.subscribers {
			if st.responded {
				st.strikes = 0
				continue
			}
			st.strikes++
			if st.strikes > e.maxStrikes {
				delete(o.subscribers, node)
			}
		}
		o.mu.Unlock()

		if o.q.RoundPause > 0 && !o.sleep(o.q.RoundPause) {
			continue // closed mid-pause; loop head exits
		}
	}
}

// handleAck processes a receiver's completion.
func (o *Offer) handleAck(from transport.NodeID, revision uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if revision == o.revision {
		delete(o.subscribers, from)
	}
}

// handleNack records a receiver's missing set.
func (o *Offer) handleNack(from transport.NodeID, revision uint64, missing []uint32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if revision != o.revision {
		return // response to an old revision; receiver will restart
	}
	st := o.subscribers[from]
	if st == nil {
		// NACK from a node that never subscribed explicitly (it joined
		// the group mid-flight): adopt it.
		st = &subState{}
		o.subscribers[from] = st
	}
	st.responded = true
	st.strikes = 0
	st.missing = make(map[uint32]bool, len(missing))
	for _, idx := range missing {
		st.missing[idx] = true
	}
}

// --- wire payload codecs ---

// file metadata payload: revision u64, size u64, chunkSize u32, chunks u32.
func encodeFileMeta(revision, size uint64, chunkSize, chunks uint32) []byte {
	w := encoding.NewWriter(24)
	w.Uint64(revision)
	w.Uint64(size)
	w.Uint32(chunkSize)
	w.Uint32(chunks)
	return w.Bytes()
}

func decodeFileMeta(payload []byte) (revision, size uint64, chunkSize, chunks uint32, err error) {
	r := encoding.NewReader(payload)
	revision = r.Uint64()
	size = r.Uint64()
	chunkSize = r.Uint32()
	chunks = r.Uint32()
	return revision, size, chunkSize, chunks, r.Err()
}

// chunk payload: revision u64, index u32, total u32, raw data.
func encodeChunk(revision uint64, index, total uint32, data []byte) []byte {
	w := encoding.NewWriter(16 + len(data))
	w.Uint64(revision)
	w.Uint32(index)
	w.Uint32(total)
	w.Raw(data)
	return w.Bytes()
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

// ack/nack payload: revision u64 [+ RLE ranges for nack].
func encodeAck(revision uint64) []byte {
	w := encoding.NewWriter(8)
	w.Uint64(revision)
	return w.Bytes()
}

// --- receiver side ---

type fetchState struct {
	name string

	mu       sync.Mutex
	revision uint64
	total    int
	parts    [][]byte
	received int
	provider transport.NodeID
	data     []byte
	done     chan struct{}
	refs     int
}

// FetchOptions tune a fetch.
type FetchOptions struct {
	// QoS carries the transfer priority.
	QoS qos.TransferQoS
}

// Fetch retrieves the named resource, blocking until complete or ctx ends.
// A locally offered resource is returned by direct access without touching
// the network (§4.4 bypass, experiment E5).
func (e *Engine) Fetch(ctx context.Context, name string, opts FetchOptions) ([]byte, uint64, error) {
	// Local bypass.
	e.mu.Lock()
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
		st = &fetchState{name: name, done: make(chan struct{})}
		e.fetches[name] = st
	}
	st.refs++
	e.mu.Unlock()

	defer func() {
		e.mu.Lock()
		st.refs--
		if st.refs == 0 {
			delete(e.fetches, name)
		}
		e.mu.Unlock()
		e.leaveGroup(name)
	}()

	if err := e.joinGroup(name); err != nil {
		return nil, 0, err
	}

	// Subscribe to the provider (phase 1). Retry resolution while the
	// directory has no provider yet.
	if err := e.subscribeToProvider(ctx, st); err != nil {
		return nil, 0, err
	}

	// Completion arrives from the network; a virtual-clock caller parks
	// through the clock so delivery time keeps advancing while it waits.
	var complete bool
	clock.Blocking(e.clk, func() {
		select {
		case <-st.done:
			complete = true
		case <-ctx.Done():
		}
	})
	if !complete {
		return nil, 0, fmt.Errorf("filetransfer: fetch %q: %w", name, ctx.Err())
	}
	st.mu.Lock()
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
			// Control frames ride PriorityNormal, not the bulk lane: a
			// subscription must not queue behind another transfer's
			// chunk backlog on the same egress plane.
			frame := &protocol.Frame{
				Type:     protocol.MTFileSubscribe,
				Priority: qos.PriorityNormal,
				Channel:  st.name,
				Seq:      e.f.NextSeq(),
			}
			e.f.SendReliable(rec.Node, frame, qos.ReliableARQ, nil)
			return nil
		}
		if !clock.SleepStop(e.clk, 10*time.Millisecond, ctx.Done()) {
			return fmt.Errorf("filetransfer: fetch %q: %w", st.name, ErrNoProvider)
		}
	}
}

// Watch delivers the resource now and again on every revision change, until
// ctx ends. Deliveries run on the caller's goroutine discipline: cb is
// invoked from a dedicated watch goroutine.
func (e *Engine) Watch(ctx context.Context, name string, opts FetchOptions, cb func(data []byte, revision uint64)) error {
	notify := make(chan uint64, 4)
	// Hold group membership for the whole watch so revision announces
	// keep arriving between fetches.
	if err := e.joinGroup(name); err != nil {
		return err
	}
	defer e.leaveGroup(name)
	e.mu.Lock()
	e.watchers[name] = append(e.watchers[name], notify)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		list := e.watchers[name]
		for i, ch := range list {
			if ch == notify {
				e.watchers[name] = append(list[:i], list[i+1:]...)
				break
			}
		}
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
		// Wait for a newer revision (parking through the clock, as above).
		var ended bool
		clock.Blocking(e.clk, func() {
			for {
				select {
				case rev := <-notify:
					if rev > have {
						return
					}
				case <-ctx.Done():
					ended = true
					return
				}
			}
		})
		if ended {
			return nil
		}
	}
}

// joinGroup reference-counts multicast membership so overlapping fetches
// and watches share one Join.
func (e *Engine) joinGroup(name string) error {
	e.mu.Lock()
	e.joins[name]++
	first := e.joins[name] == 1
	e.mu.Unlock()
	if !first {
		return nil
	}
	if err := e.f.Join(fabric.FileGroup(name)); err != nil {
		e.mu.Lock()
		e.joins[name]--
		e.mu.Unlock()
		return err
	}
	return nil
}

func (e *Engine) leaveGroup(name string) {
	e.mu.Lock()
	e.joins[name]--
	last := e.joins[name] <= 0
	if last {
		delete(e.joins, name)
	}
	e.mu.Unlock()
	if last {
		if err := e.f.Leave(fabric.FileGroup(name)); err != nil {
			uerr.Wrapf(e.reg, codeFileLeave, err, "leave %s", name)
		}
	}
}

func (e *Engine) notifyWatchers(name string, revision uint64) {
	e.mu.Lock()
	watchers := append([]chan uint64(nil), e.watchers[name]...)
	e.mu.Unlock()
	for _, ch := range watchers {
		select {
		case ch <- revision:
		default:
		}
	}
}

// --- frame handlers (wired by the container) ---

// HandleSubscribe processes a receiver's MTFileSubscribe.
func (e *Engine) HandleSubscribe(from transport.NodeID, fr *protocol.Frame) {
	e.mu.Lock()
	o := e.offers[fr.Channel]
	e.mu.Unlock()
	if o != nil {
		o.addSubscriber(from)
	}
}

// HandleAnnounce processes resource metadata (group or unicast).
func (e *Engine) HandleAnnounce(from transport.NodeID, fr *protocol.Frame) {
	revision, _, _, chunks, err := decodeFileMeta(fr.Payload)
	if err != nil {
		return
	}
	e.notifyWatchers(fr.Channel, revision)
	e.mu.Lock()
	st := e.fetches[fr.Channel]
	e.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.adoptRevision(revision, int(chunks))
}

// adoptRevision initializes or restarts the buffer. Caller holds st.mu.
func (st *fetchState) adoptRevision(revision uint64, total int) {
	if revision < st.revision || st.data != nil {
		return // older revision, or already complete
	}
	if revision > st.revision {
		st.revision = revision
		st.parts = nil
		st.received = 0
		st.total = 0
	}
	if st.parts == nil && total > 0 {
		st.total = total
		st.parts = make([][]byte, total)
	}
}

// HandleChunk stores one multicast chunk.
func (e *Engine) HandleChunk(from transport.NodeID, fr *protocol.Frame) {
	revision, index, total, data, err := decodeChunk(fr.Payload)
	if err != nil {
		return
	}
	e.mu.Lock()
	st := e.fetches[fr.Channel]
	e.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	st.adoptRevision(revision, int(total))
	if st.data != nil || revision != st.revision || st.parts == nil ||
		int(index) >= len(st.parts) || st.parts[index] != nil {
		st.mu.Unlock()
		return
	}
	//wirepath:alloc chunk copy retained by the reassembly buffer
	cp := make([]byte, len(data))
	copy(cp, data)
	st.parts[index] = cp
	st.received++
	complete := st.received == st.total
	if complete {
		size := 0
		for _, p := range st.parts {
			size += len(p)
		}
		//wirepath:alloc reassembled file handed to the store, which retains it
		buf := make([]byte, 0, size)
		for _, p := range st.parts {
			buf = append(buf, p...)
		}
		st.data = buf
		close(st.done)
	}
	provider := st.provider
	revisionNow := st.revision
	st.mu.Unlock()

	if complete {
		// Proactive ACK: don't wait for the query round.
		e.sendAck(provider, fr.Channel, revisionNow)
	}
}

func (e *Engine) sendAck(to transport.NodeID, name string, revision uint64) {
	if to == "" {
		return
	}
	// Completion control rides PriorityNormal so it cannot starve behind
	// bulk chunk traffic flowing the other way through a shared medium.
	frame := &protocol.Frame{
		Type:     protocol.MTFileAck,
		Priority: qos.PriorityNormal,
		Channel:  name,
		Seq:      e.f.NextSeq(),
		Payload:  encodeAck(revision),
	}
	e.f.SendReliable(to, frame, qos.ReliableARQ, nil)
}

// HandleQuery answers a completion-phase query with ACK or NACK.
func (e *Engine) HandleQuery(from transport.NodeID, fr *protocol.Frame) {
	revision, _, _, chunks, err := decodeFileMeta(fr.Payload)
	if err != nil {
		return
	}
	e.mu.Lock()
	st := e.fetches[fr.Channel]
	e.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	st.adoptRevision(revision, int(chunks))
	if st.data != nil && revision == st.revision {
		st.mu.Unlock()
		e.sendAck(from, fr.Channel, revision)
		return
	}
	if revision != st.revision || st.parts == nil {
		st.mu.Unlock()
		return
	}
	var missing []uint32
	for i, p := range st.parts {
		if p == nil {
			missing = append(missing, uint32(i))
		}
	}
	st.mu.Unlock()

	w := encoding.NewWriter(16 + 8*len(missing))
	w.Uint64(revision)
	w.Raw(encodeRanges(missing))
	frame := &protocol.Frame{
		Type:     protocol.MTFileNack,
		Priority: qos.PriorityNormal,
		Channel:  fr.Channel,
		Seq:      e.f.NextSeq(),
		Payload:  w.Bytes(),
	}
	e.f.SendReliable(from, frame, qos.ReliableARQ, nil)
}

// HandleAck processes a receiver's completion at the publisher.
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
	o.handleAck(from, revision)
}

// HandleNack processes a receiver's missing list at the publisher.
func (e *Engine) HandleNack(from transport.NodeID, fr *protocol.Frame) {
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
	o.mu.Lock()
	total := len(o.chunks)
	o.mu.Unlock()
	missing, err := decodeRanges(r, total)
	if err != nil {
		return
	}
	o.handleNack(from, revision, missing)
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
		delete(o.subscribers, node)
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
