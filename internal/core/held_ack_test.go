package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/egress"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// wireLog records the unicast frames a container puts on the wire, looking
// inside egress batches, and can lose the first datagram that carries a
// frame of one type, as a lossy medium would.
type wireLog struct {
	transport.Transport
	mu        sync.Mutex
	lose      protocol.MsgType // lose the next datagram carrying one; 0: none
	lost      int
	datagrams int                           // datagrams carrying a call, reply, fragment or ack
	seqs      map[protocol.MsgType][]uint64 // frame seqs sent, by type
	acked     []uint64                      // the seqs the MTAcks and header ack blocks sent acknowledge
	carried   []uint64                      // the seqs the header ack blocks sent acknowledge
	sends     int                           // unicast datagrams
}

func newWireLog(tr transport.Transport) *wireLog {
	return &wireLog{Transport: tr, seqs: map[protocol.MsgType][]uint64{}}
}

// unbatch decodes a datagram into its frames, batch entries one by one.
func unbatch(raw []byte) []*protocol.Frame {
	f, err := protocol.DecodeFrame(raw)
	if err != nil {
		return nil
	}
	if f.Type != protocol.MTBatch {
		return []*protocol.Frame{f}
	}
	subs, err := protocol.DecodeBatch(f.Payload)
	if err != nil {
		return nil
	}
	var out []*protocol.Frame
	for _, sub := range subs {
		out = append(out, unbatch(sub)...)
	}
	return out
}

func (w *wireLog) Send(to transport.NodeID, payload []byte) error {
	frames := unbatch(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sends++
	if w.lose != 0 && slices.ContainsFunc(frames, func(f *protocol.Frame) bool { return f.Type == w.lose }) {
		w.lose = 0
		w.lost++
		return nil
	}
	counted := false
	for _, f := range frames {
		w.seqs[f.Type] = append(w.seqs[f.Type], f.Seq)
		_ = protocol.EachAckBlockRange(f, func(lo, hi uint64) {
			for seq := lo; seq <= hi; seq++ {
				w.acked = append(w.acked, seq)
				w.carried = append(w.carried, seq)
			}
		})
		switch f.Type {
		case protocol.MTAck:
			_ = protocol.EachAckRange(f, func(lo, hi uint64) {
				for seq := lo; seq <= hi; seq++ {
					w.acked = append(w.acked, seq)
				}
			})
		case protocol.MTCall, protocol.MTReturn, protocol.MTError, protocol.MTBusy, protocol.MTFragment:
		default:
			continue
		}
		counted = true
	}
	if counted {
		w.datagrams++
	}
	return w.Transport.Send(to, payload)
}

// loseNext makes the next datagram carrying a frame of type mt disappear.
func (w *wireLog) loseNext(mt protocol.MsgType) {
	w.mu.Lock()
	w.lose = mt
	w.mu.Unlock()
}

// reset forgets what was recorded so far.
func (w *wireLog) reset() {
	w.mu.Lock()
	w.datagrams, w.sends, w.acked, w.carried = 0, 0, nil, nil
	clear(w.seqs)
	w.mu.Unlock()
}

func (w *wireLog) sent(mt protocol.MsgType) []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.seqs[mt])
}

func (w *wireLog) ackedSeqs() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.acked)
}

func (w *wireLog) carriedSeqs() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.carried)
}

func (w *wireLog) unicast() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sends
}

func (w *wireLog) rpcDatagrams() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.datagrams
}

// virtualNode builds a container on tr under v. The test closes it.
func virtualNode(t *testing.T, v *clock.Virtual, tr transport.Transport, opts ...NodeOption) *Node {
	t.Helper()
	n, err := NewNode(append([]NodeOption{WithClock(v), WithDatagram(tr), WithAnnouncePeriod(20 * time.Millisecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// virtualWait sleeps on v until cond holds, for at most limit of virtual
// time, and reports whether it held.
func virtualWait(v *clock.Virtual, limit time.Duration, cond func() bool) bool {
	for end := v.Now().Add(limit); !cond(); v.Sleep(100 * time.Microsecond) {
		if !v.Now().Before(end) {
			return false
		}
	}
	return true
}

// waitProviders waits until caller's directory lists n providers of fn.
func waitProviders(t *testing.T, v *clock.Virtual, caller *Node, fn string, n int) {
	t.Helper()
	if !virtualWait(v, 5*time.Second, func() bool {
		return caller.Directory().ProviderCount(naming.KindFunction, fn) == n
	}) {
		t.Fatalf("%s never saw %d providers of %s", caller.ID(), n, fn)
	}
}

// registerIncrement offers fn on n: it returns its u32 argument plus one,
// after stall when stall is set, and counts its runs in runs.
func registerIncrement(t *testing.T, n *Node, fn string, runs *atomic.Int32, stall func()) {
	t.Helper()
	u32 := presentation.Uint32()
	if err := n.RPC().Register(fn, "svc", u32, u32, qos.CallQoS{}, func(a any) (any, error) {
		if runs != nil {
			runs.Add(1)
		}
		if stall != nil {
			stall()
		}
		return a.(uint32) + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	n.AnnounceNow()
}

// callIncrement calls fn with x and checks the answer.
func callIncrement(t *testing.T, caller *Node, fn string, x uint32) {
	t.Helper()
	u32 := presentation.Uint32()
	got, err := caller.RPC().Call(context.Background(), fn, x, u32, u32, qos.CallQoS{Deadline: 2 * time.Second})
	if err != nil {
		t.Fatalf("call %s(%d): %v", fn, x, err)
	}
	if got != x+1 {
		t.Fatalf("call %s(%d) = %v, want %d", fn, x, got, x+1)
	}
}

// TestRPCReplyAcknowledgesCall runs back-to-back calls to a handler that
// answers at once on the in-process bus: each costs exactly two datagrams,
// the call and the reply. The reply acknowledges its call, so the provider
// sends no ack of its own, and each call carries the caller's ack of the
// previous reply in its header ack block; only the last reply's ack leaves
// alone, once the hold's delay runs out. The virtual clock makes "at once"
// and "back to back" exact: no time passes between a reply and the next
// call.
func TestRPCReplyAcknowledgesCall(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		bus := transport.NewBus()
		endpoint := func(id transport.NodeID) *wireLog {
			ep, err := bus.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			return newWireLog(ep)
		}
		callerLog, providerLog := endpoint("caller"), endpoint("provider")
		caller := virtualNode(t, v, callerLog)
		defer func() { _ = caller.Close() }()
		provider := virtualNode(t, v, providerLog)
		defer func() { _ = provider.Close() }()
		registerIncrement(t, provider, "fn", nil, nil)
		waitProviders(t, v, caller, "fn", 1)
		// Let the discovery exchange's own acks leave first.
		v.Sleep(5 * maxAckDelay)
		callerLog.reset()
		providerLog.reset()

		const calls = 16
		for i := uint32(0); i < calls; i++ {
			callIncrement(t, caller, "fn", i)
		}
		if !virtualWait(v, time.Second, func() bool { return provider.arq.Pending() == 0 }) {
			t.Fatal("the replies were never all acknowledged")
		}
		if acks := providerLog.sent(protocol.MTAck); len(acks) != 0 {
			t.Errorf("provider sent %d acks for %d calls answered at once, want none: the reply is the ack", len(acks), calls)
		}
		if acks := callerLog.sent(protocol.MTAck); len(acks) != 1 {
			t.Errorf("caller sent %d acks, want one for the last reply", len(acks))
		}
		if got, want := callerLog.rpcDatagrams()+providerLog.rpcDatagrams(), 2*calls+1; got != want {
			t.Errorf("%d calls took %d datagrams, want %d", calls, got, want)
		}
		replies := providerLog.sent(protocol.MTReturn)
		if got := callerLog.ackedSeqs(); !slices.Equal(got, replies) {
			t.Errorf("caller acknowledged %v, want each reply once: %v", got, replies)
		}
		if got := len(callerLog.carriedSeqs()); got != calls-1 {
			t.Errorf("calls carried %d reply acks, want %d", got, calls-1)
		}
		if p := caller.arq.Pending(); p != 0 {
			t.Errorf("caller holds %d unacknowledged messages after every call returned", p)
		}
		for _, n := range []*Node{caller, provider} {
			if r := counter(t, n, "arq", "retransmits"); r != 0 {
				t.Errorf("%s retransmitted %d times on a clean link", n.ID(), r)
			}
		}
	})
}

// TestReplyAckLeavesAfterDelay makes one call and then falls silent: with
// no next frame to carry it, the caller's ack of the reply leaves alone in
// an MTAck once the hold's delay has run out, before the provider's first
// ARQ timeout, so the provider retransmits nothing.
func TestReplyAckLeavesAfterDelay(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 7, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		endpoint := func(id transport.NodeID) *wireLog {
			ep, err := net.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			return newWireLog(ep)
		}
		callerLog, providerLog := endpoint("caller"), endpoint("provider")
		caller := virtualNode(t, v, callerLog)
		defer func() { _ = caller.Close() }()
		provider := virtualNode(t, v, providerLog)
		defer func() { _ = provider.Close() }()
		registerIncrement(t, provider, "fn", nil, nil)
		waitProviders(t, v, caller, "fn", 1)
		v.Sleep(5 * maxAckDelay)
		callerLog.reset()
		providerLog.reset()

		callIncrement(t, caller, "fn", 1)
		answered := v.Now()
		if !virtualWait(v, time.Second, func() bool { return len(callerLog.sent(protocol.MTAck)) > 0 }) {
			t.Fatal("the reply was never acknowledged")
		}
		if waited := v.Now().Sub(answered); waited > maxAckDelay+100*time.Microsecond {
			t.Errorf("the reply's ack left %v after the reply, want within the %v hold", waited, maxAckDelay)
		}
		if !virtualWait(v, time.Second, func() bool { return provider.arq.Pending() == 0 }) {
			t.Fatal("the provider never saw the reply's ack")
		}
		v.Sleep(50 * time.Millisecond)
		replies := providerLog.sent(protocol.MTReturn)
		if len(replies) != 1 {
			t.Fatalf("provider sent %d reply frames, want 1", len(replies))
		}
		if acks := callerLog.sent(protocol.MTAck); len(acks) != 1 {
			t.Errorf("caller sent %d acks, want one", len(acks))
		}
		if got := callerLog.ackedSeqs(); !slices.Equal(got, replies) {
			t.Errorf("caller acknowledged %v, want the reply's %v", got, replies)
		}
		if r := counter(t, provider, "arq", "retransmits"); r != 0 {
			t.Errorf("provider retransmitted %d times although the reply was acknowledged after %v", r, maxAckDelay)
		}
	})
}

// TestHeldCallAckLeavesAfterDelay stalls the handler past maxAckDelay: the
// provider then acknowledges the call on its own, once, before the
// caller's first ARQ timeout, so the call is never retransmitted.
func TestHeldCallAckLeavesAfterDelay(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 3, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		endpoint := func(id transport.NodeID) *wireLog {
			ep, err := net.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			return newWireLog(ep)
		}
		callerLog, providerLog := endpoint("caller"), endpoint("provider")
		caller := virtualNode(t, v, callerLog)
		defer func() { _ = caller.Close() }()
		provider := virtualNode(t, v, providerLog)
		defer func() { _ = provider.Close() }()
		registerIncrement(t, provider, "slow", nil, func() { v.Sleep(5 * maxAckDelay) })
		waitProviders(t, v, caller, "slow", 1)
		callerLog.reset()
		providerLog.reset()

		callIncrement(t, caller, "slow", 41)
		if !virtualWait(v, time.Second, func() bool { return provider.arq.Pending() == 0 }) {
			t.Fatal("the reply was never acknowledged")
		}
		calls := callerLog.sent(protocol.MTCall)
		if len(calls) != 1 {
			t.Fatalf("caller sent %d call frames, want 1", len(calls))
		}
		if acks := providerLog.sent(protocol.MTAck); len(acks) != 1 {
			t.Errorf("provider sent %d acks, want one for the stalled call", len(acks))
		}
		if got := providerLog.ackedSeqs(); !slices.Equal(got, calls) {
			t.Errorf("provider acknowledged seqs %v, want the call's %v", got, calls)
		}
		if r := counter(t, caller, "arq", "retransmits"); r != 0 {
			t.Errorf("caller retransmitted %d times although the call was acknowledged after %v", r, maxAckDelay)
		}
	})
}

// TestRPCReplyLostOnce loses the first reply on the wire. The call's held
// ack left with that reply, so the caller retransmits the call and the
// provider acknowledges the duplicate without running the handler again;
// the provider's ARQ retransmits the reply. The call returns its value,
// the handler ran once, and neither node is left with a pending message.
func TestRPCReplyLostOnce(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 4, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		callerEP, err := net.Endpoint("caller")
		if err != nil {
			t.Fatal(err)
		}
		providerEP, err := net.Endpoint("provider")
		if err != nil {
			t.Fatal(err)
		}
		providerLog := newWireLog(providerEP)
		caller := virtualNode(t, v, callerEP)
		defer func() { _ = caller.Close() }()
		provider := virtualNode(t, v, providerLog)
		defer func() { _ = provider.Close() }()
		var runs atomic.Int32
		registerIncrement(t, provider, "fn", &runs, nil)
		waitProviders(t, v, caller, "fn", 1)

		providerLog.loseNext(protocol.MTReturn)
		callIncrement(t, caller, "fn", 7)
		if providerLog.lost != 1 {
			t.Fatal("no reply was lost")
		}
		if n := runs.Load(); n != 1 {
			t.Errorf("handler ran %d times, want once", n)
		}
		if !virtualWait(v, 2*time.Second, func() bool {
			return caller.arq.Pending() == 0 && provider.arq.Pending() == 0
		}) {
			t.Errorf("ARQ tables not empty: caller %d, provider %d", caller.arq.Pending(), provider.arq.Pending())
		}
		if r := counter(t, provider, "arq", "retransmits"); r == 0 {
			t.Error("the lost reply was not retransmitted")
		}
	})
}

// TestHedgedReplySettlesOwnAttempt hedges a call whose first provider never
// receives it: the second provider's reply settles the second attempt's
// reliable send and not the first's, which stays pending until the first
// provider, reachable again, answers its retransmission.
func TestHedgedReplySettlesOwnAttempt(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 5, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		node := func(id transport.NodeID) *Node {
			ep, err := net.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			return virtualNode(t, v, ep)
		}
		provA, provB, client := node("a-prov"), node("b-prov"), node("client")
		for _, n := range []*Node{provA, provB, client} {
			defer func(n *Node) { _ = n.Close() }(n)
		}
		var runsA, runsB atomic.Int32
		registerIncrement(t, provA, "fn", &runsA, nil)
		registerIncrement(t, provB, "fn", &runsB, nil)
		waitProviders(t, v, client, "fn", 2)

		// Static binding tries the lowest node id, a-prov, first.
		net.SetLink("client", "a-prov", transport.LinkConfig{Blocked: true})
		u32 := presentation.Uint32()
		q := qos.CallQoS{Binding: qos.BindStatic, Deadline: time.Second, HedgeAfter: 0.05}
		got, err := client.RPC().Call(context.Background(), "fn", uint32(1), u32, u32, q)
		if err != nil || got != uint32(2) {
			t.Fatalf("hedged call: %v, %v", got, err)
		}
		if h := counter(t, client, "rpc", "hedges"); h != 1 {
			t.Fatalf("%d hedges, want 1", h)
		}
		if a, b := runsA.Load(), runsB.Load(); a != 0 || b != 1 {
			t.Fatalf("handler runs: a-prov %d, b-prov %d; want 0 and 1", a, b)
		}
		if p := client.arq.Pending(); p != 1 {
			t.Errorf("client holds %d pending messages after b-prov's reply, want 1: the attempt at a-prov", p)
		}
		net.ClearLink("client", "a-prov")
		if !virtualWait(v, 2*time.Second, func() bool { return client.arq.Pending() == 0 }) {
			t.Errorf("the attempt at a-prov was never settled: %d pending", client.arq.Pending())
		}
		if a := runsA.Load(); a != 1 {
			t.Errorf("a-prov ran the retransmitted call %d times, want once", a)
		}
	})
}

// TestFragmentedCallAckedPerFragment sends a call too large for one
// datagram: each fragment is acknowledged on its own, as any reliable
// fragment is, and nothing is held for the reassembled call.
func TestFragmentedCallAckedPerFragment(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		net := transport.NewSimBus(transport.SimConfig{Seed: 6, Latency: 200 * time.Microsecond, Clock: v})
		defer net.Close()
		endpoint := func(id transport.NodeID) *wireLog {
			ep, err := net.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			return newWireLog(ep)
		}
		callerLog, providerLog := endpoint("caller"), endpoint("provider")
		caller := virtualNode(t, v, callerLog, WithMTU(256))
		defer func() { _ = caller.Close() }()
		provider := virtualNode(t, v, providerLog)
		defer func() { _ = provider.Close() }()
		str, u32 := presentation.String_(), presentation.Uint32()
		if err := provider.RPC().Register("len", "svc", str, u32, qos.CallQoS{},
			func(a any) (any, error) { return uint32(len(a.(string))), nil }); err != nil {
			t.Fatal(err)
		}
		provider.AnnounceNow()
		waitProviders(t, v, caller, "len", 1)
		callerLog.reset()
		providerLog.reset()

		arg := strings.Repeat("w", 1000)
		got, err := caller.RPC().Call(context.Background(), "len", arg, str, u32, qos.CallQoS{Deadline: 2 * time.Second})
		if err != nil || got != uint32(len(arg)) {
			t.Fatalf("fragmented call: %v, %v", got, err)
		}
		if !virtualWait(v, time.Second, func() bool {
			return caller.arq.Pending() == 0 && provider.arq.Pending() == 0
		}) {
			t.Fatalf("ARQ tables not empty: caller %d, provider %d", caller.arq.Pending(), provider.arq.Pending())
		}
		frags := callerLog.sent(protocol.MTFragment)
		if len(frags) < 2 {
			t.Fatalf("the call went out in %d fragments, want several", len(frags))
		}
		acked := providerLog.ackedSeqs()
		for _, seq := range frags {
			if !slices.Contains(acked, seq) {
				t.Errorf("fragment %d was not acknowledged (acked %v)", seq, acked)
			}
		}
		for _, sh := range provider.shards {
			sh.held.mu.Lock()
			held := len(sh.held.acks)
			sh.held.mu.Unlock()
			if held != 0 {
				t.Errorf("provider still holds %d call acks", held)
			}
		}
	})
}

// TestHeldCallAckReuse races replies cancelling held call acks against the
// shard timer flushing them, with every eighth reply coming as the hold
// runs out (run it with -race): every held ack leaves exactly one way — dropped for
// its reply or sent in an MTAck — however the held list's reused array
// shifts under the two.
func TestHeldCallAckReuse(t *testing.T) {
	sink := newWireLog(&wireSink{id: "held-race"})
	n, err := NewNode(WithDatagram(sink), WithAnnouncePeriod(time.Hour), WithIngressShards(1))
	if err != nil {
		t.Fatal(err)
	}
	h := n.shards[0].held
	const holds = 2000
	cancelled := make([]bool, holds+1)
	replies := make(chan uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := range replies {
			// Every eighth reply comes around the delay's end.
			if seq%8 == 0 {
				time.Sleep(maxAckDelay)
			}
			cancelled[seq] = h.cancel("peer", seq)
		}
	}()
	for seq := uint64(1); seq <= holds; seq++ {
		h.hold(DefaultBearer, "peer", seq, qos.PriorityNormal, false)
		replies <- seq
	}
	close(replies)
	<-done
	// Close sends what is still held and drains the egress plane.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	sent := map[uint64]int{}
	for _, seq := range sink.ackedSeqs() {
		sent[seq]++
	}
	dropped := 0
	for seq := uint64(1); seq <= holds; seq++ {
		switch {
		case cancelled[seq] && sent[seq] != 0:
			t.Fatalf("call %d: ack both cancelled by the reply and sent", seq)
		case cancelled[seq]:
			dropped++
		case sent[seq] != 1:
			t.Fatalf("call %d: ack sent %d times, want once", seq, sent[seq])
		}
	}
	t.Logf("%d of %d held acks dropped for their replies, %d sent", dropped, holds, holds-dropped)
}

// TestRPCClosedLoopPackets runs the rpc_closed shape: two callers on one
// node, each issuing its next call to its own function on a provider when
// the previous one returned, over a clean in-process bus. A call and its
// reply are the only datagrams an RPC needs: the reply acknowledges the
// call, and the next call, whichever caller issues it, acknowledges the
// replies that arrived before it. On the virtual clock no host stall can
// hold an ack past the 20 ms retransmission timeout, so the run must
// retransmit nothing. The endpoints' wire bytes per call are bounded too:
// a reply names its call by id, not its function.
func TestRPCClosedLoopPackets(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		bus := transport.NewBus()
		var eps []transport.Transport
		node := func(id transport.NodeID) (*Node, *wireLog) {
			ep, err := bus.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, ep)
			w := newWireLog(ep)
			return virtualNode(t, v, w), w
		}
		wireBytes := func() (sum uint64) {
			for _, ep := range eps {
				sum += ep.Stats().BytesWire
			}
			return sum
		}
		caller, callerLog := node("caller")
		defer func() { _ = caller.Close() }()
		provider, providerLog := node("provider")
		defer func() { _ = provider.Close() }()
		fns := []string{"nav.resolve.0", "nav.resolve.1"}
		for _, fn := range fns {
			registerIncrement(t, provider, fn, nil, nil)
		}
		for _, fn := range fns {
			waitProviders(t, v, caller, fn, 1)
		}
		v.Sleep(5 * maxAckDelay)
		callerLog.reset()
		providerLog.reset()
		bytesBefore := wireBytes()

		const calls = 5000
		done := clock.NewWaitGroup(v)
		for _, fn := range fns {
			done.Add(1)
			v.Go(func() {
				defer done.Done()
				for i := uint32(0); i < calls; i++ {
					callIncrement(t, caller, fn, i)
				}
			})
		}
		done.Wait()
		if !virtualWait(v, time.Second, func() bool { return provider.arq.Pending() == 0 }) {
			t.Fatal("the replies were never all acknowledged")
		}
		total := float64(len(fns) * calls)
		packets := float64(callerLog.unicast() + providerLog.unicast())
		perCall := float64(wireBytes()-bytesBefore) / total
		t.Logf("%.3f datagrams and %.1f wire bytes per call, %d reply acks carried, %d sent alone",
			packets/total, perCall, len(callerLog.carriedSeqs()), len(callerLog.sent(protocol.MTAck)))
		if packets/total > 2.1 {
			t.Errorf("%.0f calls took %.0f datagrams, %.3f per call, want <= 2.1", total, packets, packets/total)
		}
		// A call and its reply come to ~50 B; a reply that named its
		// function again would add the name's 13 B.
		if perCall > 56 {
			t.Errorf("%.1f wire bytes per call, want <= 56", perCall)
		}
		for _, n := range []*Node{caller, provider} {
			if r := counter(t, n, "arq", "retransmits"); r != 0 {
				t.Errorf("%s retransmitted %d times on a clean link", n.ID(), r)
			}
		}
	})
}

// TestHeldAckRidesOnlyEligibleFrames holds reply acks on a two-bearer node
// and sends the frames that must not carry them — group, bulk, loopback,
// over-MTU, too full for the block, below the acked replies' class, and on
// the other bearer — and then the frames that must: each held ack leaves
// once, in the header of a unicast frame on the bearer its reply arrived
// on, in a class no lower than the reply's.
func TestHeldAckRidesOnlyEligibleFrames(t *testing.T) {
	logA, logB := newWireLog(&wireSink{id: "n"}), newWireLog(&wireSink{id: "n"})
	n, err := NewNode(WithBearer("a", logA, qos.BearerProfile{}), WithBearer("b", logB, qos.BearerProfile{}),
		WithAnnouncePeriod(time.Hour), WithIngressShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	// The held acks run on a virtual clock nothing advances: none falls
	// due during the test.
	h := newHeldAcks(clock.NewVirtual(), n.flushAcks)
	n.shards[0].held = h
	hold := func(bearer string, pr qos.Priority, seqs ...uint64) {
		for _, seq := range seqs {
			if !h.hold(bearer, "peer", seq, pr, true) {
				t.Fatal("hold refused")
			}
		}
	}
	hold("a", qos.PriorityNormal, 10, 11, 12)
	hold("a", qos.PriorityHigh, 13)
	hold("b", qos.PriorityNormal, 14)

	send := func(d egress.Dest, pr qos.Priority, payload int) {
		t.Helper()
		f := protocol.Frame{Type: protocol.MTSample, Priority: pr, Channel: "held.ride", Payload: make([]byte, payload)}
		if err := n.transmit(d, &f, nil); err != nil {
			t.Fatal(err)
		}
		n.FlushEgress()
	}
	// The largest payload that still fits one datagram with no block.
	plain := protocol.Frame{Type: protocol.MTSample, Channel: "held.ride", Seq: n.seq.Load() + 1}
	full := n.mtu - protocol.FrameWireSize(&plain)
	for _, c := range []struct {
		name string
		d    egress.Dest
		pr   qos.Priority
		size int
	}{
		{"group", egress.Dest{Group: "g"}, qos.PriorityCritical, 8},
		{"bulk", egress.Dest{Node: "peer", Bearer: "a"}, qos.PriorityBulk, 8},
		{"loopback", egress.Dest{Node: n.ID()}, qos.PriorityCritical, 8},
		{"over the MTU", egress.Dest{Node: "peer", Bearer: "a"}, qos.PriorityCritical, 2 * n.mtu},
		{"no room for the block", egress.Dest{Node: "peer", Bearer: "a"}, qos.PriorityCritical, full},
		{"below the replies' class", egress.Dest{Node: "peer", Bearer: "a"}, qos.PriorityLow, 8},
		{"other bearer", egress.Dest{Node: "peer", Bearer: "b"}, qos.PriorityLow, 8},
	} {
		send(c.d, c.pr, c.size)
		if got := append(logA.carriedSeqs(), logB.carriedSeqs()...); len(got) != 0 {
			t.Fatalf("%s frame carried held acks %v", c.name, got)
		}
		if r := h.replies.Load(); r != 5 {
			t.Fatalf("after the %s frame %d reply acks are held, want 5", c.name, r)
		}
	}

	// A normal frame on a carries the normal acks that arrived on a; a high
	// one the rest; an unpinned one takes the selector's bearer.
	send(egress.Dest{Node: "peer", Bearer: "a"}, qos.PriorityNormal, 8)
	if got := logA.carriedSeqs(); !slices.Equal(got, []uint64{10, 11, 12}) {
		t.Errorf("normal frame on a carried %v, want [10 11 12]", got)
	}
	send(egress.Dest{Node: "peer", Bearer: "a"}, qos.PriorityHigh, 8)
	if got := logA.carriedSeqs(); !slices.Equal(got, []uint64{10, 11, 12, 13}) {
		t.Errorf("high frame on a carried %v, want 13 too", got)
	}
	sel := n.unicastBearer("peer", qos.PriorityNormal)
	hold(sel, qos.PriorityNormal, 15)
	send(egress.Dest{Node: "peer"}, qos.PriorityNormal, 8)
	want := map[string][]uint64{"a": {10, 11, 12, 13}, "b": {14, 15}}
	if sel == "a" {
		want = map[string][]uint64{"a": {10, 11, 12, 13, 15}, "b": nil}
		send(egress.Dest{Node: "peer", Bearer: "b"}, qos.PriorityNormal, 8)
		want["b"] = []uint64{14}
	}
	if got := logA.carriedSeqs(); !slices.Equal(got, want["a"]) {
		t.Errorf("bearer a carried %v, want %v", got, want["a"])
	}
	if got := logB.carriedSeqs(); !slices.Equal(got, want["b"]) {
		t.Errorf("bearer b carried %v, want %v", got, want["b"])
	}
	if r := h.replies.Load(); r != 0 {
		t.Errorf("%d reply acks still held", r)
	}
	if acks := append(logA.sent(protocol.MTAck), logB.sent(protocol.MTAck)...); len(acks) != 0 {
		t.Errorf("%d acks left alone, want none", len(acks))
	}
}

// TestHeldReplyAckReuse races frames carrying held reply acks against the
// shard timer flushing them, on a delay short enough that the two meet
// (run it with -race): every held ack leaves exactly once, in one frame's
// header or in one MTAck, however the held list's reused array shifts
// under the two.
func TestHeldReplyAckReuse(t *testing.T) {
	sink := newWireLog(&wireSink{id: "held-race"})
	n, err := NewNode(WithDatagram(sink), WithAnnouncePeriod(time.Hour), WithIngressShards(1))
	if err != nil {
		t.Fatal(err)
	}
	h := n.shards[0].held
	const holds = 2000
	held := make(chan uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := range held {
			if seq%3 != 0 {
				continue
			}
			// Every ninth frame comes around the delay's end.
			if seq%9 == 0 {
				time.Sleep(maxAckDelay)
			}
			f := protocol.Frame{Type: protocol.MTSample, Priority: qos.PriorityNormal, Channel: "held.race"}
			if err := n.SendBestEffort("peer", &f); err != nil {
				t.Error(err)
				return
			}
			// Keep the lane short of its cap: a frame dropped there would
			// take its acks with it.
			n.FlushEgress()
		}
	}()
	for seq := uint64(1); seq <= holds; seq++ {
		h.hold(DefaultBearer, "peer", seq, qos.PriorityNormal, true)
		held <- seq
	}
	close(held)
	<-done
	// Close sends what is still held and drains the egress plane.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	sent := map[uint64]int{}
	for _, seq := range sink.ackedSeqs() {
		sent[seq]++
	}
	for seq := uint64(1); seq <= holds; seq++ {
		if sent[seq] != 1 {
			t.Fatalf("reply %d: ack sent %d times, want once", seq, sent[seq])
		}
	}
	t.Logf("%d of %d held acks carried, %d sent alone", len(sink.carriedSeqs()), holds, holds-len(sink.carriedSeqs()))
}
