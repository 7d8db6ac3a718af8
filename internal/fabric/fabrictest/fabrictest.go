// Package fabrictest is the one fabric.Fabric test double. An engine test
// runs the engine on it instead of a container. It keeps the container's
// send contract: a zero Seq is assigned from the double's own counter, as
// core.Node's transmit does, and the frame and its payload are copied
// before anything is recorded or deferred. It records every send by kind,
// destination and group, and completes reliable sends by a policy the test
// sets per destination: succeed inline (the default), fail inline, hold
// until the test releases them, or, for allocation gates, succeed with
// nothing recorded.
package fabrictest

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
)

// Kind names the Send method a frame went through.
type Kind uint8

const (
	BestEffort Kind = iota
	Group
	Reliable
	kinds
)

var (
	// ErrUnreachable completes a reliable send to a node made to Fail.
	ErrUnreachable = errors.New("fabrictest: destination unreachable")
	// ErrClosed completes a send still held when the double closes.
	ErrClosed = errors.New("fabrictest: fabric closed")
)

// Sent is one recorded send.
type Sent struct {
	Kind  Kind
	To    transport.NodeID // unicast destination; empty for a group send
	Group string
	Frame *protocol.Frame // a private copy, payload included
	Held  *Held           // a held reliable send's completion, else nil
}

// Held is the completion of a reliable send the double holds.
type Held struct {
	To    transport.NodeID
	Frame *protocol.Frame // a private copy
	fired atomic.Bool
	done  func(error)
}

// Release completes the held send with err. The first Release, or the
// double's Close, fires the completion; later ones do nothing.
func (h *Held) Release(err error) {
	if h.fired.CompareAndSwap(false, true) && h.done != nil {
		h.done(err)
	}
}

// Fabric is the test double. It implements fabric.Fabric, Clocked and
// Instrumented. Set its exported fields, and Link it, before
// building an engine on it.
type Fabric struct {
	// Clk is the clock engines and Go run on; nil is the wall clock.
	Clk clock.Clock
	// Sched runs what Schedule queues; nil runs it inline.
	Sched func(qos.Priority, scheduler.Job) error
	// Route receives the frames linked peers send to this double.
	Route func(from transport.NodeID, fr *protocol.Frame)

	self   transport.NodeID
	dir    *naming.Directory
	reg    *metrics.Registry
	seq    atomic.Uint64
	offers atomic.Int64
	counts [kinds][256]atomic.Int64
	peers  map[transport.NodeID]*Fabric

	mu      sync.Mutex
	heldc   sync.Cond // signals a new entry in held
	fail    map[transport.NodeID]bool
	hold    map[transport.NodeID]bool
	holdAll bool
	discard bool
	answer  func(transport.NodeID, *protocol.Frame)
	sent    []Sent
	held    []*Held
	next    int // the first entry of held NextHeld has not returned
	joined  map[string]int
}

// New returns a double for node self. It closes when tb's test ends.
func New(tb testing.TB, self transport.NodeID) *Fabric {
	f := &Fabric{
		self:   self,
		dir:    naming.NewDirectory(time.Minute),
		reg:    metrics.NewRegistry(),
		peers:  map[transport.NodeID]*Fabric{},
		fail:   map[transport.NodeID]bool{},
		hold:   map[transport.NodeID]bool{},
		joined: map[string]int{},
	}
	f.heldc.L = &f.mu
	tb.Cleanup(f.Close)
	return f
}

func (f *Fabric) Self() transport.NodeID       { return f.self }
func (f *Fabric) Encoding() encoding.Encoding  { return encoding.Binary{} }
func (f *Fabric) Directory() *naming.Directory { return f.dir }
func (f *Fabric) Metrics() *metrics.Registry   { return f.reg }
func (f *Fabric) Clock() clock.Clock           { return clock.Or(f.Clk) }
func (f *Fabric) NextSeq() uint64              { return f.seq.Add(1) }
func (f *Fabric) OfferChanged()                { f.offers.Add(1) }

// OfferChanges counts OfferChanged calls.
func (f *Fabric) OfferChanges() int { return int(f.offers.Load()) }

func (f *Fabric) Schedule(p qos.Priority, job func()) error {
	if f.Sched == nil {
		job()
		return nil
	}
	return f.Sched(p, job)
}

// Go runs job on a goroutine of the double's clock: Sched = f.Go makes
// Schedule asynchronous.
func (f *Fabric) Go(_ qos.Priority, job scheduler.Job) error {
	clock.Go(f.Clock(), job)
	return nil
}

// Link connects a and b: a reliable frame either sends the other is also
// delivered, as a copy, to the receiver's Route on a goroutine of its clock.
func Link(a, b *Fabric) { a.peers[b.self], b.peers[a.self] = b, a }

// Fail makes reliable sends to nodes complete at once with ErrUnreachable;
// frames sent to them do not reach a linked peer.
func (f *Fabric) Fail(nodes ...transport.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range nodes {
		f.fail[n] = true
	}
}

// Hold holds the completions of reliable sends to nodes, or to every node
// when none is named, until the test releases them or the double closes.
func (f *Fabric) Hold(nodes ...transport.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.holdAll = len(nodes) == 0
	for _, n := range nodes {
		f.hold[n] = true
	}
}

// Discard stops recording, for allocation gates: every send is dropped
// uncopied (and only counted), a reliable one completes inline with
// success, and answer, when not nil, then gets the engine's own frame.
func (f *Fabric) Discard(answer func(to transport.NodeID, fr *protocol.Frame)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.discard, f.answer = true, answer
}

// NextHeld waits for the next held completion, in send order.
func (f *Fabric) NextHeld() *Held {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.next == len(f.held) {
		f.heldc.Wait()
	}
	f.next++
	return f.held[f.next-1]
}

// Close fires every held completion not yet released with ErrClosed.
func (f *Fabric) Close() {
	f.mu.Lock()
	held := f.held
	f.mu.Unlock()
	for _, h := range held {
		h.Release(ErrClosed)
	}
}

func (f *Fabric) SendBestEffort(to transport.NodeID, fr *protocol.Frame) error {
	f.send(Sent{Kind: BestEffort, To: to}, fr, nil)
	return nil
}

func (f *Fabric) SendGroup(group string, fr *protocol.Frame) error {
	f.send(Sent{Kind: Group, Group: group}, fr, nil)
	return nil
}

func (f *Fabric) SendReliable(to transport.NodeID, fr *protocol.Frame, _ qos.Reliability, done func(error)) {
	f.send(Sent{Kind: Reliable, To: to}, fr, done)
}

// send is the one path of every Send method.
func (f *Fabric) send(s Sent, fr *protocol.Frame, done func(error)) {
	if fr.Seq == 0 && fr.Type != protocol.MTBatch {
		fr.Seq = f.NextSeq()
	}
	f.counts[s.Kind][fr.Type].Add(1)
	f.mu.Lock()
	discard, answer := f.discard, f.answer
	failed := !discard && f.fail[s.To]
	if !discard {
		s.Frame = copyFrame(fr)
		if s.Kind == Reliable && !failed && (f.holdAll || f.hold[s.To]) {
			s.Held = &Held{To: s.To, Frame: s.Frame, done: done}
			f.held = append(f.held, s.Held)
			f.heldc.Broadcast()
		}
		f.sent = append(f.sent, s)
	}
	f.mu.Unlock()
	if s.Kind != Reliable {
		return
	}
	if s.Held == nil && done != nil {
		var err error
		if failed {
			err = ErrUnreachable
		}
		done(err)
	}
	if answer != nil {
		answer(s.To, fr)
	}
	if peer := f.peers[s.To]; peer != nil && !discard && !failed && peer.Route != nil {
		cp := copyFrame(fr)
		clock.Go(peer.Clock(), func() { peer.Route(f.self, cp) })
	}
}

func copyFrame(fr *protocol.Frame) *protocol.Frame {
	cp := *fr
	cp.Payload = append([]byte(nil), fr.Payload...)
	return &cp
}

// Sent returns the sends recorded since the last Take.
func (f *Fabric) Sent() []Sent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Sent(nil), f.sent...)
}

// Take returns the sends recorded since the last Take and forgets them.
func (f *Fabric) Take() []Sent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.sent
	f.sent = nil
	return out
}

// Frames returns the recorded frames of kind k.
func (f *Fabric) Frames(k Kind) []*protocol.Frame { return f.frames(k, "") }

// GroupFrames returns the recorded frames sent to group.
func (f *Fabric) GroupFrames(group string) []*protocol.Frame { return f.frames(Group, group) }

func (f *Fabric) frames(k Kind, group string) []*protocol.Frame {
	var out []*protocol.Frame
	for _, s := range f.Sent() {
		if s.Kind == k && (group == "" || s.Group == group) {
			out = append(out, s.Frame)
		}
	}
	return out
}

// Count counts the frames of type mt sent as kind k, discarded ones
// included.
func (f *Fabric) Count(k Kind, mt protocol.MsgType) int { return int(f.counts[k][mt].Load()) }

func (f *Fabric) Join(group string) error  { f.join(group, 1); return nil }
func (f *Fabric) Leave(group string) error { f.join(group, -1); return nil }

func (f *Fabric) join(group string, d int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.joined[group] += d
}

// Joined is the count of Join minus Leave calls for group.
func (f *Fabric) Joined(group string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.joined[group]
}
