// Package experiments implements the measurement harnesses for every
// experiment in README "Benchmarks and experiments" (E1–E9, E11–E17) and
// registers each once in one ordered table (table.go): name, title, seed,
// full and quick parameters, the Report it prints and records, and the
// guards that pin it to a committed baseline. The uavbench command, the
// repository-root BenchmarkExperiment and TestBaselines are loops over that
// table.
//
// Every harness builds a fresh middleware deployment on an in-process or
// simulated substrate, measures, and tears down, so experiments are
// independent and repeatable (seeded simulated bus, no shared global state).
//
// The simulation-backed harnesses (E3, E11–E17) take an injected
// clock.Clock and by default run under RunVirtual on a discrete-event
// virtual clock: minutes of scenario time execute in wall milliseconds.
// A seed fixes the bus medium's draws and the event times, but the order of
// goroutines woken at the same instant is still the Go scheduler's, so
// some figures (E3 and E11 tails, E14's single-bearer losses) vary from
// run to run while others (E12's determinism test, E15 and E17) replay
// exactly; ROADMAP's executor item is what makes every run repeat. Passing
// a nil clock selects the wall clock. Goroutines inside a virtual harness
// are started with clock.Go (or run inside Virtual.Run) and park only on
// clock primitives (Sleep, clock.Trigger, clock.Cond, clock.WaitGroup); a
// result a harness waits for goes in a variable written before the
// WaitGroup's Done, not through a channel — see the clock package docs for
// the accounting rules.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/filetransfer"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// telemetryType is the payload used by the latency experiments: a realistic
// mid-size telemetry struct.
var telemetryType = presentation.MustParse(
	"{lat:f64,lon:f64,alt:f32,speed:f32,heading:f32,fix:u8,wp:u32,complete:bool}")

func telemetryValue() map[string]any {
	return map[string]any{
		"lat": 41.275, "lon": 1.987, "alt": float32(120), "speed": float32(25),
		"heading": float32(270), "fix": uint8(3), "wp": uint32(2), "complete": false,
	}
}

// pair builds two connected nodes on a fresh bus.
func pair(opts ...core.NodeOption) (a, b *core.Node, cleanup func(), err error) {
	bus := transport.NewBus()
	epA, err := bus.Endpoint("a")
	if err != nil {
		return nil, nil, nil, err
	}
	epB, err := bus.Endpoint("b")
	if err != nil {
		return nil, nil, nil, err
	}
	base := []core.NodeOption{core.WithAnnouncePeriod(20 * time.Millisecond)}
	a, err = core.NewNode(append(append([]core.NodeOption{core.WithDatagram(epA)}, base...), opts...)...)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err = core.NewNode(append(append([]core.NodeOption{core.WithDatagram(epB)}, base...), opts...)...)
	if err != nil {
		_ = a.Close()
		return nil, nil, nil, err
	}
	cleanup = func() {
		_ = a.Close()
		_ = b.Close()
	}
	return a, b, cleanup, nil
}

// simNode attaches a container to a simulated network, on clk's timeline
// (nil: the wall clock).
func simNode(clk clock.Clock, net *transport.Bus, id transport.NodeID, opts ...core.NodeOption) (*core.Node, error) {
	ep, err := net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return core.NewNode(append([]core.NodeOption{core.WithClock(clk), core.WithDatagram(ep)}, opts...)...)
}

// await polls done every step on clk until it holds or timeout has passed,
// and reports whether it held. On a Virtual clock the sleeps are what let
// scenario time advance.
func await(clk clock.Clock, timeout, step time.Duration, done func() bool) bool {
	deadline := clk.Now().Add(timeout)
	for !done() {
		if !clk.Now().Before(deadline) {
			return false
		}
		clk.Sleep(step)
	}
	return true
}

// waitProviders blocks until node sees n providers of the named resource.
func waitProviders(clk clock.Clock, node *core.Node, kind naming.Kind, name string, n int, timeout time.Duration) error {
	if !await(clk, timeout, 2*time.Millisecond, func() bool { return node.Directory().ProviderCount(kind, name) >= n }) {
		return fmt.Errorf("experiments: %s never discovered", name)
	}
	return nil
}

// E1Result compares one-way notification latency of the event primitive
// against the equivalent remote invocation (§4.3: "events seem faster than
// their function equivalent").
type E1Result struct {
	PayloadBytes int
	Event        []time.Duration // one latency per notification
	RPC          []time.Duration
}

// RunE1 measures n notifications per primitive with a payload of
// approximately payloadBytes.
func RunE1(n, payloadBytes int) (*E1Result, error) {
	pub, sub, cleanup, err := pair()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	payloadType := presentation.VectorOf(presentation.Uint8())
	boxed := make([]any, payloadBytes)
	for i := range boxed {
		boxed[i] = uint8(i)
	}

	// Event path: publisher on pub, subscriber on sub; handler signals.
	evtPub, err := pub.Events().Offer("e1.evt", "bench", payloadType, qos.EventQoS{})
	if err != nil {
		return nil, err
	}
	received := make(chan time.Time, 1)
	if _, err := sub.Events().Subscribe("e1.evt", payloadType, qos.EventQoS{},
		func(any, transport.NodeID) { received <- time.Now() }); err != nil {
		return nil, err
	}

	// RPC path: the "function equivalent" of the notification.
	if err := sub.RPC().Register("e1.notify", "bench", payloadType, nil, qos.CallQoS{},
		func(any) (any, error) { return nil, nil }); err != nil {
		return nil, err
	}
	// Registrations announce incrementally on their own; just wait for
	// the subscription handshake.
	if !await(clock.Real{}, 5*time.Second, 2*time.Millisecond, func() bool { return len(evtPub.Subscribers()) > 0 }) {
		return nil, fmt.Errorf("experiments: e1 subscriber never registered")
	}

	res := &E1Result{
		PayloadBytes: payloadBytes,
		Event:        make([]time.Duration, 0, n),
		RPC:          make([]time.Duration, 0, n),
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := evtPub.Publish(ctx, boxed); err != nil {
			return nil, fmt.Errorf("e1 event %d: %w", i, err)
		}
		at := <-received
		res.Event = append(res.Event, at.Sub(start))
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := pub.RPC().Call(ctx, "e1.notify", boxed, payloadType, nil, qos.CallQoS{}); err != nil {
			return nil, fmt.Errorf("e1 rpc %d: %w", i, err)
		}
		res.RPC = append(res.RPC, time.Since(start))
	}
	return res, nil
}

// E2Result compares per-message ARQ against a TCP-like in-order stream
// (Go-Back-N) under loss (§4.2).
type E2Result struct {
	Loss       float64
	Messages   int
	ARQTotal   time.Duration
	GBNTotal   time.Duration
	ARQPerMsg  []time.Duration // individual message completion times
	GBNPerMsg  []time.Duration
	ARQRetrans uint64
	GBNRetrans uint64
}

// RunE2 sends n independent event-sized messages under the given loss rate
// through both reliability schemes and reports completion behaviour.
func RunE2(n int, loss float64, payloadBytes int, seed int64) (*E2Result, error) {
	res := &E2Result{
		Loss:      loss,
		Messages:  n,
		ARQPerMsg: make([]time.Duration, 0, n),
		GBNPerMsg: make([]time.Duration, 0, n),
	}

	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}

	// --- ARQ over a lossy simulated bus ---
	{
		net := transport.NewSimBus(transport.SimConfig{Loss: loss, Seed: seed, Latency: 500 * time.Microsecond})
		src, err := net.Endpoint("src")
		if err != nil {
			return nil, err
		}
		dst, err := net.Endpoint("dst")
		if err != nil {
			return nil, err
		}
		dst.SetHandler(func(pkt transport.Packet) {
			var f protocol.Frame
			if err := protocol.DecodeFrameInto(&f, pkt.Payload); err != nil || f.Type == protocol.MTAck {
				return
			}
			// Ack everything with FlagAckRequired, as a node does.
			var ack protocol.Frame
			protocol.AppendAck(&ack, nil, []uint64{f.Seq}, protocol.DefaultMTU)
			raw, _ := protocol.AppendFrame(nil, &ack)
			_ = dst.Send("src", raw)
		})
		reg := metrics.NewRegistry()
		arq := protocol.NewARQ(func(to transport.NodeID, frame []byte) error {
			return src.Send(to, frame)
		}, protocol.WithMaxRetries(20), protocol.WithMetrics(reg))
		src.SetHandler(func(pkt transport.Packet) {
			var f protocol.Frame
			if err := protocol.DecodeFrameInto(&f, pkt.Payload); err != nil || f.Type != protocol.MTAck {
				return
			}
			_ = protocol.EachAckRange(&f, func(lo, hi uint64) { arq.AckRange(pkt.From, lo, hi) })
		})

		start := time.Now()
		var (
			wg = clock.NewWaitGroup(clock.Real{})
			mu sync.Mutex // guards res.ARQPerMsg against concurrent completions
		)
		starts := make([]time.Time, n)
		for i := 0; i < n; i++ {
			frame, err := protocol.AppendFrame(nil, &protocol.Frame{
				Type: protocol.MTEvent, Flags: protocol.FlagAckRequired,
				Channel: "e2", Seq: uint64(i + 1), Payload: payload,
			})
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			starts[i] = time.Now()
			i := i
			if err := arq.Send("dst", uint64(i+1), frame, func(err error) {
				if err == nil {
					took := time.Since(starts[i])
					mu.Lock()
					res.ARQPerMsg = append(res.ARQPerMsg, took)
					mu.Unlock()
				}
				wg.Done()
			}); err != nil {
				return nil, err
			}
		}
		wg.Wait()
		res.ARQTotal = time.Since(start)
		res.ARQRetrans = reg.SumCounters("arq", "retransmits")
		arq.Close()
		net.Close()
	}

	// --- Go-Back-N (TCP semantics) over the same loss ---
	{
		net := transport.NewSimBus(transport.SimConfig{Loss: loss, Seed: seed + 1, Latency: 500 * time.Microsecond})
		src, err := net.Endpoint("src")
		if err != nil {
			return nil, err
		}
		dst, err := net.Endpoint("dst")
		if err != nil {
			return nil, err
		}
		var (
			mu        sync.Mutex
			deliverAt = make([]time.Time, 0, n)
			done      = make(chan struct{})
		)
		var sender, receiver *goBackN
		sender = newGoBackN("dst", func(to transport.NodeID, frame []byte) error {
			return src.Send(to, frame)
		}, nil, protocol.DefaultARQTimeout, 32)
		receiver = newGoBackN("src", func(to transport.NodeID, frame []byte) error {
			return dst.Send(to, frame)
		}, func(msg []byte) {
			mu.Lock()
			deliverAt = append(deliverAt, time.Now())
			if len(deliverAt) == n {
				close(done)
			}
			mu.Unlock()
		}, protocol.DefaultARQTimeout, 32)
		src.SetHandler(func(pkt transport.Packet) { sender.HandlePacket(pkt.Payload) })
		dst.SetHandler(func(pkt transport.Packet) { receiver.HandlePacket(pkt.Payload) })

		start := time.Now()
		starts := make([]time.Time, n)
		for i := 0; i < n; i++ {
			starts[i] = time.Now()
			if err := sender.Send(payload); err != nil {
				return nil, err
			}
		}
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			return nil, fmt.Errorf("e2: gbn never completed (%d delivered)", len(deliverAt))
		}
		res.GBNTotal = time.Since(start)
		mu.Lock()
		for i, at := range deliverAt {
			res.GBNPerMsg = append(res.GBNPerMsg, at.Sub(starts[i]))
		}
		mu.Unlock()
		res.GBNRetrans = sender.Retransmits()
		sender.Close()
		receiver.Close()
		net.Close()
	}
	return res, nil
}

// E3Result measures wire cost of distributing event occurrences to N
// subscribers with group-addressed multicast vs unicast ARQ fan-out (§4.1
// bandwidth argument applied to the §4.2 event primitive). The counts are
// bytes-on-wire through the full middleware stack: frames, acks and
// repairs included.
type E3Result struct {
	Subscribers  int
	Samples      int
	McastPackets uint64
	McastBytes   uint64
	UcastPackets uint64
	UcastBytes   uint64
}

// RunE3 publishes occurrences through the event engine to n subscriber
// containers in both delivery modes on a fresh simulated bus and reports wire
// packet/byte counts. A nil clk runs on wall time; pass a Virtual clock
// (from inside its Run) for a discrete-event run.
func RunE3(clk clock.Clock, subscribers, samples int, seed int64) (*E3Result, error) {
	clk = clock.Or(clk)
	res := &E3Result{Subscribers: subscribers, Samples: samples}

	run := func(delivery qos.Delivery) (uint64, uint64, error) {
		net := transport.NewSimBus(transport.SimConfig{Seed: seed, Latency: 200 * time.Microsecond, Clock: clk})
		defer net.Close()
		// A long announce period keeps heartbeat chatter out of the
		// measured window; discovery itself is incremental (deltas fire
		// on registration), so no explicit announcement is needed.
		mk := func(id transport.NodeID) (*core.Node, error) {
			return simNode(clk, net, id,
				core.WithAnnouncePeriod(2*time.Second))
		}
		pub, err := mk("src")
		if err != nil {
			return 0, 0, err
		}
		defer func() { _ = pub.Close() }()
		nodes := make([]*core.Node, subscribers)
		for i := range nodes {
			if nodes[i], err = mk(transport.NodeID(fmt.Sprintf("sub%d", i))); err != nil {
				return 0, 0, err
			}
			defer func(n *core.Node) { _ = n.Close() }(nodes[i])
		}

		q := qos.EventQoS{Delivery: delivery}
		evtPub, err := pub.Events().Offer("e3.evt", "bench", telemetryType, q)
		if err != nil {
			return 0, 0, err
		}
		var delivered atomic.Int64
		for _, n := range nodes {
			if err := waitProviders(clk, n, kindEvent, "e3.evt", 1, 5*time.Second); err != nil {
				return 0, 0, err
			}
			if _, err := n.Events().Subscribe("e3.evt", telemetryType, q,
				func(any, transport.NodeID) { delivered.Add(1) }); err != nil {
				return 0, 0, err
			}
		}
		if !await(clk, 5*time.Second, time.Millisecond, func() bool { return len(evtPub.Subscribers()) >= subscribers }) {
			return 0, 0, fmt.Errorf("e3: only %d subscribers registered", len(evtPub.Subscribers()))
		}

		net.ResetWireStats()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		val := telemetryValue()
		for s := 0; s < samples; s++ {
			if err := evtPub.Publish(ctx, val); err != nil {
				return 0, 0, fmt.Errorf("e3 publish %d: %w", s, err)
			}
		}
		want := int64(samples * subscribers)
		if !await(clk, 30*time.Second, time.Millisecond, func() bool { return delivered.Load() >= want }) {
			return 0, 0, fmt.Errorf("e3: delivered %d of %d", delivered.Load(), want)
		}
		packets, bytes, _ := net.WireStats()
		return packets, bytes, nil
	}

	var err error
	if res.McastPackets, res.McastBytes, err = run(qos.DeliverMulticast); err != nil {
		return nil, err
	}
	if res.UcastPackets, res.UcastBytes, err = run(qos.DeliverUnicast); err != nil {
		return nil, err
	}
	return res, nil
}

// E4Result compares the dedicated file-transfer primitive against naive
// chunk-by-events distribution (§4.4 "huge performance benefits").
type E4Result struct {
	FileBytes    int
	Receivers    int
	Loss         float64
	MFTPTime     time.Duration
	MFTPWireKB   float64
	EventsTime   time.Duration
	EventsWireKB float64
}

// RunE4 distributes one file of fileBytes to n receivers under loss, first
// with the MFTP engine, then chunk-by-chunk over the event primitive.
func RunE4(fileBytes, receivers int, loss float64, seed int64) (*E4Result, error) {
	res := &E4Result{FileBytes: fileBytes, Receivers: receivers, Loss: loss}
	data := make([]byte, fileBytes)
	for i := range data {
		data[i] = byte(i * 13)
	}

	build := func(seed int64) (*transport.Bus, *core.Node, []*core.Node, func(), error) {
		net := transport.NewSimBus(transport.SimConfig{Loss: loss, Seed: seed, Latency: 300 * time.Microsecond})
		mk := func(id transport.NodeID) (*core.Node, error) {
			return simNode(nil, net, id,
				core.WithAnnouncePeriod(20*time.Millisecond),
				core.WithARQ(protocol.WithMaxRetries(15)))
		}
		pub, err := mk("pub")
		if err != nil {
			net.Close()
			return nil, nil, nil, nil, err
		}
		subs := make([]*core.Node, receivers)
		for i := range subs {
			if subs[i], err = mk(transport.NodeID(fmt.Sprintf("sub%d", i))); err != nil {
				net.Close()
				return nil, nil, nil, nil, err
			}
		}
		cleanup := func() {
			_ = pub.Close()
			for _, s := range subs {
				_ = s.Close()
			}
			net.Close()
		}
		return net, pub, subs, cleanup, nil
	}

	// --- MFTP ---
	{
		net, pub, subs, cleanup, err := build(seed)
		if err != nil {
			return nil, err
		}
		if _, err := pub.Files().Offer("e4.file", "bench", data, qos.TransferQoS{}); err != nil {
			cleanup()
			return nil, err
		}
		for _, s := range subs {
			if err := waitProviders(clock.Real{}, s, kindFile, "e4.file", 1, 5*time.Second); err != nil {
				cleanup()
				return nil, err
			}
		}
		net.ResetWireStats()
		start := time.Now()
		wg := clock.NewWaitGroup(clock.Real{})
		errs := make(chan error, receivers)
		for _, s := range subs {
			wg.Add(1)
			clock.Go(clock.Real{}, func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				got, _, err := s.Files().Fetch(ctx, "e4.file", filetransfer.FetchOptions{})
				if err == nil && len(got) != fileBytes {
					err = fmt.Errorf("short fetch: %d", len(got))
				}
				errs <- err
			})
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("e4 mftp: %w", err)
			}
		}
		res.MFTPTime = time.Since(start)
		_, bytes, _ := net.WireStats()
		res.MFTPWireKB = float64(bytes) / 1024
		cleanup()
	}

	// --- chunks over the event primitive (unicast reliable per receiver) ---
	{
		net, pub, subs, cleanup, err := build(seed + 100)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		chunkType := presentation.MustParse("{index:u32,total:u32,body:bytes}")
		evtPub, err := pub.Events().Offer("e4.chunks", "bench", chunkType, qos.EventQoS{})
		if err != nil {
			return nil, err
		}
		const chunk = 1200
		total := (fileBytes + chunk - 1) / chunk

		type recvState struct {
			got  atomic.Int64
			done chan struct{}
		}
		states := make([]*recvState, receivers)
		for i, s := range subs {
			st := &recvState{done: make(chan struct{})}
			states[i] = st
			if err := waitProviders(clock.Real{}, s, kindEvent, "e4.chunks", 1, 5*time.Second); err != nil {
				return nil, err
			}
			if _, err := s.Events().Subscribe("e4.chunks", chunkType, qos.EventQoS{},
				func(v any, _ transport.NodeID) {
					if st.got.Add(1) == int64(total) {
						close(st.done)
					}
				}); err != nil {
				return nil, err
			}
		}
		if !await(clock.Real{}, 5*time.Second, 2*time.Millisecond, func() bool { return len(evtPub.Subscribers()) >= receivers }) {
			return nil, fmt.Errorf("e4: only %d event subscribers", len(evtPub.Subscribers()))
		}

		net.ResetWireStats()
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		for i := 0; i < total; i++ {
			end := min((i+1)*chunk, fileBytes)
			if err := evtPub.Publish(ctx, map[string]any{
				"index": uint32(i), "total": uint32(total), "body": data[i*chunk : end],
			}); err != nil {
				return nil, fmt.Errorf("e4 events chunk %d: %w", i, err)
			}
		}
		for _, st := range states {
			select {
			case <-st.done:
			case <-time.After(2 * time.Minute):
				return nil, fmt.Errorf("e4 events: receiver stuck at %d/%d", st.got.Load(), total)
			}
		}
		res.EventsTime = time.Since(start)
		_, bytes, _ := net.WireStats()
		res.EventsWireKB = float64(bytes) / 1024
	}
	return res, nil
}

// E5Result measures the same-container bypass (§4.4, F2).
type E5Result struct {
	FileBytes   int
	LocalFetch  time.Duration // per op
	RemoteFetch time.Duration // per op
	LocalVar    time.Duration // publish->Get, same container
	RemoteVar   time.Duration // publish->handler, cross container
}

// RunE5 times local vs remote access for files and variables.
func RunE5(fileBytes, iters int) (*E5Result, error) {
	res := &E5Result{FileBytes: fileBytes}
	data := make([]byte, fileBytes)

	local, remote, cleanup, err := pair()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if _, err := local.Files().Offer("e5.file", "bench", data, qos.TransferQoS{}); err != nil {
		return nil, err
	}
	if err := waitProviders(clock.Real{}, remote, kindFile, "e5.file", 1, 5*time.Second); err != nil {
		return nil, err
	}
	ctx := context.Background()

	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := local.Files().Fetch(ctx, "e5.file", filetransfer.FetchOptions{}); err != nil {
			return nil, err
		}
	}
	res.LocalFetch = time.Since(start) / time.Duration(iters)

	remoteIters := max(1, iters/10) // network fetches are far slower
	start = time.Now()
	for i := 0; i < remoteIters; i++ {
		fetchCtx, cancel := context.WithTimeout(ctx, time.Minute)
		if _, _, err := remote.Files().Fetch(fetchCtx, "e5.file", filetransfer.FetchOptions{}); err != nil {
			cancel()
			return nil, err
		}
		cancel()
	}
	res.RemoteFetch = time.Since(start) / time.Duration(remoteIters)

	// Variables: local bypass vs cross-node delivery.
	vp, err := local.Variables().Offer("e5.var", "bench", telemetryType, qos.VariableQoS{})
	if err != nil {
		return nil, err
	}
	localSub, err := local.Variables().Subscribe("e5.var", telemetryType, variables.SubscribeOptions{})
	if err != nil {
		return nil, err
	}
	defer localSub.Close()
	val := telemetryValue()
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := vp.Publish(val); err != nil {
			return nil, err
		}
	}
	res.LocalVar = time.Since(start) / time.Duration(iters)

	got := make(chan struct{}, 1)
	remoteSub, err := remote.Variables().Subscribe("e5.var", telemetryType, variables.SubscribeOptions{
		OnSample: func(any, time.Time) {
			select {
			case got <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer remoteSub.Close()
	time.Sleep(50 * time.Millisecond) // group join settles
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := vp.Publish(val); err != nil {
			return nil, err
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("e5: remote sample %d lost", i)
		}
	}
	res.RemoteVar = time.Since(start) / time.Duration(iters)
	return res, nil
}

// E7Result measures failover: time from provider death to the first
// successful redirected call (§4.3).
type E7Result struct {
	FailureDeadline time.Duration
	Redirect        time.Duration // kill -> first success on backup
	CallsFailed     int           // calls that errored during the window
}

// RunE7 kills the active provider mid-call-stream and times redirection.
func RunE7(failureDeadline time.Duration, seed int64) (*E7Result, error) {
	net := transport.NewSimBus(transport.SimConfig{Latency: 300 * time.Microsecond, Seed: seed})
	defer net.Close()
	mk := func(id transport.NodeID) (*core.Node, error) {
		return simNode(nil, net, id,
			core.WithAnnouncePeriod(20*time.Millisecond),
			core.WithFailureDeadline(failureDeadline))
	}
	primary, err := mk("primary")
	if err != nil {
		return nil, err
	}
	defer func() { _ = primary.Close() }()
	backup, err := mk("backup")
	if err != nil {
		return nil, err
	}
	defer func() { _ = backup.Close() }()
	client, err := mk("client")
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }()

	retT := presentation.String_()
	for _, n := range []*core.Node{primary, backup} {
		id := string(n.ID())
		if err := n.RPC().Register("e7.fn", "bench", nil, retT, qos.CallQoS{},
			func(any) (any, error) { return id, nil }); err != nil {
			return nil, err
		}
	}
	if err := waitProviders(clock.Real{}, client, kindFunction, "e7.fn", 2, 5*time.Second); err != nil {
		return nil, err
	}

	ctx := context.Background()
	q := qos.CallQoS{Deadline: 250 * time.Millisecond, Binding: qos.BindStatic}
	// Warm the static pin onto some provider.
	first, err := client.RPC().Call(ctx, "e7.fn", nil, nil, retT, q)
	if err != nil {
		return nil, err
	}
	victim := transport.NodeID(first.(string))

	// Kill the pinned provider silently.
	net.Partition(victim, "client")
	net.Partition(victim, "backup")
	net.Partition(victim, "primary")
	killed := time.Now()

	res := &E7Result{FailureDeadline: failureDeadline}
	for {
		got, err := client.RPC().Call(ctx, "e7.fn", nil, nil, retT, q)
		if err != nil {
			res.CallsFailed++
			if time.Since(killed) > time.Minute {
				return nil, fmt.Errorf("e7: no recovery after 1 minute")
			}
			continue
		}
		if got != first {
			res.Redirect = time.Since(killed)
			return res, nil
		}
	}
}

// E8Result measures scheduler queue latency per priority class under load
// (§6 fixed-priority pool, soft real time).
type E8Result struct {
	Workers    int
	Load       int // queued background jobs
	Priorities map[qos.Priority]*metrics.Histogram
}

// (Implemented in scheduler_experiment.go to keep this file scannable.)

// Shorthands for the naming kinds used here.
const (
	kindEvent    = naming.KindEvent
	kindFunction = naming.KindFunction
	kindFile     = naming.KindFile
)
