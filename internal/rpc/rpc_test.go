package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/metrics"
	"uavmw/internal/metrics/metricstest"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// newFabric is a double whose scheduled work runs on goroutines of its
// own: calls block on replies, so handler work runs concurrently.
func newFabric(t *testing.T, self transport.NodeID) *fabrictest.Fabric {
	f := fabrictest.New(t, self)
	f.Sched = f.Go
	return f
}

// routed makes the frames f's linked peers send arrive at e.
func routed(f *fabrictest.Fabric, e *Engine) *Engine {
	f.Route = func(from transport.NodeID, fr *protocol.Frame) { dispatch(e, from, fr) }
	return e
}

// encodeReply prefixes a reply body with the call id it answers.
func encodeReply(callID uint64, body []byte) []byte {
	return append(binary.AppendUvarint(nil, callID), body...)
}

func dispatch(e *Engine, from transport.NodeID, fr *protocol.Frame) {
	switch fr.Type {
	case protocol.MTCall:
		e.HandleCall(from, fr)
	case protocol.MTReturn:
		e.HandleReturn(from, fr)
	case protocol.MTError:
		e.HandleError(from, fr)
	case protocol.MTBusy:
		e.HandleBusy(from, fr)
	}
}

// wire connects a client and a server engine through linked doubles.
func wire(t *testing.T) (client, server *Engine, cf, sf *fabrictest.Fabric) {
	t.Helper()
	cf, sf = newFabric(t, "client"), newFabric(t, "server")
	client, server = routed(cf, New(cf)), routed(sf, New(sf))
	fabrictest.Link(cf, sf)
	return client, server, cf, sf
}

func announce(t *testing.T, f *fabrictest.Fabric, node transport.NodeID, e *Engine) {
	t.Helper()
	f.Directory().Apply(&naming.Announcement{Node: node, Epoch: 1, Records: e.Records()})
}

var (
	addArgs = presentation.MustParse("{a:i32,b:i32}")
	i32     = presentation.Int32()
)

func registerAdd(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Register("add", "calc", addArgs, i32, qos.CallQoS{},
		func(args any) (any, error) {
			m := args.(map[string]any)
			return m["a"].(int32) + m["b"].(int32), nil
		}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterValidation(t *testing.T) {
	e := New(newFabric(t, "n"))
	if err := e.Register("f", "svc", nil, nil, qos.CallQoS{}, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if err := e.Register("f", "svc", presentation.StructOf(), nil, qos.CallQoS{},
		func(any) (any, error) { return nil, nil }); err == nil {
		t.Error("invalid arg type accepted")
	}
	if err := e.Register("f", "svc", nil, nil, qos.CallQoS{Retries: -1},
		func(any) (any, error) { return nil, nil }); err == nil {
		t.Error("invalid QoS accepted")
	}
	ok := func(any) (any, error) { return nil, nil }
	if err := e.Register("f", "svc", nil, nil, qos.CallQoS{}, ok); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("f", "svc", nil, nil, qos.CallQoS{}, ok); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate: %v", err)
	}
	e.Unregister("f")
	if err := e.Register("f", "svc", nil, nil, qos.CallQoS{}, ok); err != nil {
		t.Errorf("re-register after unregister: %v", err)
	}
}

func TestLocalCallBypass(t *testing.T) {
	e := New(newFabric(t, "n"))
	registerAdd(t, e)
	got, err := e.Call(context.Background(), "add", map[string]any{"a": 2, "b": 3}, addArgs, i32, qos.CallQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if got != int32(5) {
		t.Errorf("got %v", got)
	}
	if e.Calls("add") != 1 {
		t.Errorf("Calls = %d", e.Calls("add"))
	}
	if e.Calls("ghost") != 0 {
		t.Error("unknown function has calls")
	}
}

func TestRemoteCall(t *testing.T) {
	client, server, cf, _ := wire(t)
	registerAdd(t, server)
	announce(t, cf, "server", server)

	got, err := client.Call(context.Background(), "add",
		map[string]any{"a": 20, "b": 22}, addArgs, i32, qos.CallQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if got != int32(42) {
		t.Errorf("got %v", got)
	}
}

func TestRemoteAppError(t *testing.T) {
	client, server, cf, _ := wire(t)
	if err := server.Register("boom", "svc", nil, nil, qos.CallQoS{},
		func(any) (any, error) { return nil, errors.New("kaput") }); err != nil {
		t.Fatal(err)
	}
	announce(t, cf, "server", server)

	_, err := client.Call(context.Background(), "boom", nil, nil, nil, qos.CallQoS{})
	var appErr *AppError
	if !errors.As(err, &appErr) {
		t.Fatalf("want AppError, got %v", err)
	}
	if !strings.Contains(appErr.Error(), "kaput") {
		t.Errorf("message lost: %v", appErr)
	}
}

func TestSignatureMismatchRejected(t *testing.T) {
	client, server, cf, _ := wire(t)
	registerAdd(t, server)
	announce(t, cf, "server", server)

	_, err := client.Call(context.Background(), "add",
		map[string]any{"x": 1.5}, presentation.MustParse("{x:f64}"), i32, qos.CallQoS{})
	if !errors.Is(err, ErrBadSignature) {
		t.Errorf("want ErrBadSignature, got %v", err)
	}
	_, err = client.Call(context.Background(), "add",
		map[string]any{"a": 1, "b": 2}, addArgs, presentation.Float64(), qos.CallQoS{})
	if !errors.Is(err, ErrBadSignature) {
		t.Errorf("return mismatch: %v", err)
	}
}

func TestNoProvider(t *testing.T) {
	e := New(newFabric(t, "n"))
	_, err := e.Call(context.Background(), "ghost", nil, nil, nil, qos.CallQoS{})
	if !errors.Is(err, ErrNoProvider) {
		t.Errorf("want ErrNoProvider, got %v", err)
	}
}

func TestFailoverToSecondProvider(t *testing.T) {
	// Two providers; the first is unreachable at send time, so the call
	// must redirect within one Call invocation.
	cf, sfGood := newFabric(t, "client"), newFabric(t, "good")
	client, good := routed(cf, New(cf)), routed(sfGood, New(sfGood))
	fabrictest.Link(cf, sfGood)
	cf.Fail("bad")

	retT := presentation.String_()
	if err := good.Register("fn", "svc", nil, retT, qos.CallQoS{},
		func(any) (any, error) { return "good", nil }); err != nil {
		t.Fatal(err)
	}
	cf.Directory().Apply(&naming.Announcement{Node: "bad", Epoch: 1, Records: []naming.Record{
		{Kind: naming.KindFunction, Name: "fn", Service: "svc", Node: "bad", TypeSig: retT.String()},
	}})
	cf.Directory().Apply(&naming.Announcement{Node: "good", Epoch: 1, Records: good.Records()})

	got, err := client.Call(context.Background(), "fn", nil, nil, retT, qos.CallQoS{})
	if err != nil {
		t.Fatalf("failover call: %v", err)
	}
	if got != "good" {
		t.Errorf("served by %v", got)
	}
}

// stall is the handler of a provider that answers ret only once the test
// has ended, past any deadline the test sets, and does not outlive it.
func stall(t *testing.T, ret any) func(any) (any, error) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	return func(any) (any, error) {
		<-release
		return ret, nil
	}
}

func TestDeadlineRespected(t *testing.T) {
	client, server, cf, _ := wire(t)
	if err := server.Register("slow", "svc", nil, nil, qos.CallQoS{},
		stall(t, nil)); err != nil {
		t.Fatal(err)
	}
	announce(t, cf, "server", server)

	start := time.Now()
	_, err := client.Call(context.Background(), "slow", nil, nil, nil,
		qos.CallQoS{Deadline: 50 * time.Millisecond, Retries: 1})
	if err == nil {
		t.Fatal("deadline ignored")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("call took %v despite 50ms deadline", elapsed)
	}
}

func TestHandleCallUnknownFunction(t *testing.T) {
	client, _, cf, sf := wire(t)
	// Server with no functions: an infra error must come back, and with a
	// single provider the call fails as all-providers-failed.
	cf.Directory().Apply(&naming.Announcement{Node: "server", Epoch: 1, Records: []naming.Record{
		{Kind: naming.KindFunction, Name: "phantom", Service: "svc", Node: "server"},
	}})
	_ = sf
	_, err := client.Call(context.Background(), "phantom", nil, nil, nil,
		qos.CallQoS{Deadline: time.Second})
	if err == nil {
		t.Fatal("phantom call succeeded")
	}
	if !errors.Is(err, ErrAllProvidersFailed) && !errors.Is(err, ErrDeadline) {
		t.Errorf("unexpected failure mode: %v", err)
	}
}

func TestDependencyCheck(t *testing.T) {
	e := New(newFabric(t, "n"))
	ok := func(any) (any, error) { return nil, nil }
	if err := e.Register("have.local", "svc", nil, nil, qos.CallQoS{}, ok); err != nil {
		t.Fatal(err)
	}
	// Remote provider via directory.
	e.f.Directory().Apply(&naming.Announcement{Node: "remote", Epoch: 1, Records: []naming.Record{
		{Kind: naming.KindFunction, Name: "have.remote", Service: "svc", Node: "remote"},
	}})

	if err := e.DependencyCheck("have.local", "have.remote"); err != nil {
		t.Errorf("satisfied deps failed: %v", err)
	}
	err := e.DependencyCheck("have.local", "missing.one", "missing.two")
	if !errors.Is(err, ErrDependency) {
		t.Fatalf("want ErrDependency, got %v", err)
	}
	for _, name := range []string{"missing.one", "missing.two"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s: %v", name, err)
		}
	}
}

func TestStaticPinUnpinOnFailure(t *testing.T) {
	client, server, cf, _ := wire(t)
	registerAdd(t, server)
	announce(t, cf, "server", server)

	q := qos.CallQoS{Binding: qos.BindStatic}
	if _, err := client.Call(context.Background(), "add",
		map[string]any{"a": 1, "b": 1}, addArgs, i32, q); err != nil {
		t.Fatal(err)
	}
	client.pinMu.Lock()
	pin := client.pins["add"]
	client.pinMu.Unlock()
	if pin != "server" {
		t.Fatalf("pin = %q", pin)
	}
	// Provider becomes unreachable: call fails, pin cleared.
	cf.Fail("server")
	if _, err := client.Call(context.Background(), "add",
		map[string]any{"a": 1, "b": 1}, addArgs, i32,
		qos.CallQoS{Binding: qos.BindStatic, Deadline: 200 * time.Millisecond}); err == nil {
		t.Fatal("unreachable pinned provider succeeded")
	}
	client.pinMu.Lock()
	pin = client.pins["add"]
	client.pinMu.Unlock()
	if pin != "" {
		t.Errorf("dead pin retained: %q", pin)
	}
}

func TestLateReplyIgnored(t *testing.T) {
	e := New(newFabric(t, "n"))
	// A reply for a call id nobody is waiting on must be harmless, as
	// must a truncated reply payload with no call id at all.
	e.HandleReturn("x", &protocol.Frame{Type: protocol.MTReturn, Payload: encodeReply(999, nil)})
	e.HandleError("x", &protocol.Frame{Type: protocol.MTError, Payload: encodeReply(999, nil)})
	e.HandleBusy("x", &protocol.Frame{Type: protocol.MTBusy, Payload: encodeReply(999, nil)})
	e.HandleReturn("x", &protocol.Frame{Type: protocol.MTReturn})
	e.HandleError("x", &protocol.Frame{Type: protocol.MTError})
	e.HandleBusy("x", &protocol.Frame{Type: protocol.MTBusy})
}

// threeWay wires one client to two server engines ("a-slow" sorts before
// "b-fast", so static binding pins the slow one first).
func threeWay(t *testing.T) (client, slow, fast *Engine, cf *fabrictest.Fabric) {
	t.Helper()
	cf = newFabric(t, "client")
	sfSlow, sfFast := newFabric(t, "a-slow"), newFabric(t, "b-fast")
	client, slow, fast = routed(cf, New(cf)), routed(sfSlow, New(sfSlow)), routed(sfFast, New(sfFast))
	fabrictest.Link(cf, sfSlow)
	fabrictest.Link(cf, sfFast)
	return client, slow, fast, cf
}

func TestHedgedCallBeatsSlowProvider(t *testing.T) {
	// The pinned provider stalls past the deadline; a hedged call must
	// speculatively dispatch to the second provider and return its answer
	// well inside the deadline, where an unhedged call times out.
	client, slow, fast, cf := threeWay(t)
	retT := presentation.String_()
	if err := slow.Register("fn", "svc", nil, retT, qos.CallQoS{},
		stall(t, "slow")); err != nil {
		t.Fatal(err)
	}
	if err := fast.Register("fn", "svc", nil, retT, qos.CallQoS{},
		func(any) (any, error) { return "fast", nil }); err != nil {
		t.Fatal(err)
	}
	cf.Directory().Apply(&naming.Announcement{Node: "a-slow", Epoch: 1, Records: slow.Records()})
	cf.Directory().Apply(&naming.Announcement{Node: "b-fast", Epoch: 1, Records: fast.Records()})

	q := qos.CallQoS{Binding: qos.BindStatic, Deadline: 600 * time.Millisecond, HedgeAfter: 0.1}
	start := time.Now()
	got, err := client.Call(context.Background(), "fn", nil, nil, retT, q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged call failed: %v", err)
	}
	if got != "fast" {
		t.Errorf("served by %v, want the hedged fast provider", got)
	}
	if elapsed >= 600*time.Millisecond {
		t.Errorf("hedged call took %v, past the deadline", elapsed)
	}
	if metricstest.Counter(t, client.reg, "rpc", "hedges") == 0 {
		t.Error("no hedge recorded")
	}
	// The static pin follows the race winner, not the speculative
	// dispatch per se.
	client.pinMu.Lock()
	pin := client.pins["fn"]
	client.pinMu.Unlock()
	if pin != "b-fast" {
		t.Errorf("pin = %q after hedged win, want b-fast", pin)
	}

	// The same call without hedging burns the whole deadline on the
	// stalled pin and fails. (The hedge moved the static pin to the
	// winner; point it back at the stalled provider first.)
	client.pinMu.Lock()
	client.pins["fn"] = "a-slow"
	client.pinMu.Unlock()
	q.HedgeAfter = 0
	q.Deadline = 150 * time.Millisecond
	if _, err := client.Call(context.Background(), "fn", nil, nil, retT, q); !errors.Is(err, ErrDeadline) {
		t.Errorf("unhedged call against stalled pin: %v, want deadline", err)
	}
}

func TestBusyShedTriggersFailover(t *testing.T) {
	// Provider a-slow has a concurrency limit of 1 and is occupied; the
	// next call must receive MTBusy and fail over to b-fast — not queue,
	// not surface an app error.
	client, slow, fast, cf := threeWay(t)
	retT := presentation.String_()
	release := make(chan struct{})
	if err := slow.Register("fn", "svc", nil, retT, qos.CallQoS{},
		func(any) (any, error) {
			<-release
			return "slow", nil
		}); err != nil {
		t.Fatal(err)
	}
	if err := fast.Register("fn", "svc", nil, retT, qos.CallQoS{},
		func(any) (any, error) { return "fast", nil }); err != nil {
		t.Fatal(err)
	}
	slow.SetInflightLimit(1)
	cf.Directory().Apply(&naming.Announcement{Node: "a-slow", Epoch: 1, Records: slow.Records()})
	cf.Directory().Apply(&naming.Announcement{Node: "b-fast", Epoch: 1, Records: fast.Records()})

	q := qos.CallQoS{Binding: qos.BindStatic, Deadline: 2 * time.Second}
	firstDone := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), "fn", nil, nil, retT, q)
		firstDone <- err
	}()
	// Wait until the occupying call is actually executing on a-slow.
	deadline := time.Now().Add(time.Second)
	for slow.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("occupying call never reached the slow provider")
		}
		time.Sleep(time.Millisecond)
	}

	got, err := client.Call(context.Background(), "fn", nil, nil, retT, q)
	if err != nil {
		t.Fatalf("shed call did not fail over: %v", err)
	}
	if got != "fast" {
		t.Errorf("served by %v, want failover to fast", got)
	}
	if shed := busyShed(t, slow); shed != 1 {
		t.Errorf("busy sheds = %d, want 1", shed)
	}
	close(release)
	if err := <-firstDone; err != nil {
		t.Errorf("occupying call failed: %v", err)
	}
}

func TestServerShedsSpentBudget(t *testing.T) {
	// An MTCall whose wire budget is already spent by the time the
	// handler would run must be answered MTBusy, not executed.
	_, server, cf, sf := wire(t)
	_ = cf
	var executed atomic.Bool
	if err := server.Register("fn", "svc", nil, nil, qos.CallQoS{},
		func(any) (any, error) { executed.Store(true); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	server.HandleCall("client", &protocol.Frame{
		Type: protocol.MTCall, Channel: "fn", Seq: 77, Budget: time.Nanosecond,
	})
	deadline := time.Now().Add(time.Second)
	for {
		var busy *protocol.Frame
		for _, fr := range sf.Frames(fabrictest.Reliable) {
			if fr.Type == protocol.MTBusy {
				busy = fr
			}
		}
		if busy != nil {
			// The call id travels in the reply payload, not the frame
			// seq (replies use the provider's own seq space), and it is
			// all the reply names: the channel stays empty.
			callID, _, ok := decodeReply(busy.Payload)
			if !ok || callID != 77 || busy.Channel != "" {
				t.Fatalf("busy reply mismatched: %+v", busy)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no MTBusy reply to a spent-budget call")
		}
		time.Sleep(time.Millisecond)
	}
	if executed.Load() {
		t.Error("handler ran despite spent budget")
	}
	if shed := busyShed(t, server); shed != 1 {
		t.Errorf("busy sheds = %d, want 1", shed)
	}
	if server.Calls("fn") != 0 {
		t.Error("shed call counted as executed")
	}
}

func TestCallRemoteStampsBudget(t *testing.T) {
	// The MTCall frame must carry the caller's remaining deadline.
	client, server, cf, _ := wire(t)
	registerAdd(t, server)
	announce(t, cf, "server", server)
	if _, err := client.Call(context.Background(), "add",
		map[string]any{"a": 1, "b": 2}, addArgs, i32,
		qos.CallQoS{Deadline: 800 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var call *protocol.Frame
	for _, fr := range cf.Frames(fabrictest.Reliable) {
		if fr.Type == protocol.MTCall {
			call = fr
		}
	}
	if call == nil {
		t.Fatal("no MTCall recorded")
	}
	if call.Budget <= 0 || call.Budget > 800*time.Millisecond {
		t.Errorf("wire budget %v, want within (0, 800ms]", call.Budget)
	}
}

func TestDeadlineMissUnpinsStalledProvider(t *testing.T) {
	// A statically-pinned provider that burns the whole deadline without
	// answering must lose its pin, so the next call re-resolves instead
	// of re-dialing the stalled node forever.
	client, server, cf, _ := wire(t)
	retT := presentation.String_()
	if err := server.Register("fn", "svc", nil, retT, qos.CallQoS{},
		stall(t, "late")); err != nil {
		t.Fatal(err)
	}
	announce(t, cf, "server", server)

	client.setPin("fn", "server")
	q := qos.CallQoS{Binding: qos.BindStatic, Deadline: 100 * time.Millisecond}
	if _, err := client.Call(context.Background(), "fn", nil, nil, retT, q); !errors.Is(err, ErrDeadline) {
		t.Fatalf("stalled call: %v, want deadline", err)
	}
	client.pinMu.Lock()
	pin, pinned := client.pins["fn"]
	client.pinMu.Unlock()
	if pinned {
		t.Errorf("stalled provider kept its pin: %q", pin)
	}
}

func TestUnregisterClearsPinAndIsIdempotent(t *testing.T) {
	e := New(newFabric(t, "n"))
	if err := e.Register("f", "svc", nil, nil, qos.CallQoS{},
		func(any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	e.pinMu.Lock()
	e.pins["f"] = "stale-provider"
	e.pinMu.Unlock()
	e.Unregister("f")
	e.pinMu.Lock()
	_, pinned := e.pins["f"]
	e.pinMu.Unlock()
	if pinned {
		t.Error("Unregister left a stale pin")
	}
	e.Unregister("f") // second withdraw is a no-op
	if e.hasLocal("f") {
		t.Error("function still registered")
	}
}

func TestConcurrentCallersShardedPending(t *testing.T) {
	// Many concurrent callers through one engine: the sharded pending
	// table must keep every reply matched to its call (run with -race).
	client, server, cf, _ := wire(t)
	registerAdd(t, server)
	announce(t, cf, "server", server)

	const callers, perCaller = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, callers*perCaller)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				got, err := client.Call(context.Background(), "add",
					map[string]any{"a": c, "b": i}, addArgs, i32, qos.CallQoS{})
				if err != nil {
					errs <- err
					return
				}
				if got != int32(c+i) {
					errs <- errors.New("reply matched to the wrong call")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCallerNamesReplies(t *testing.T) {
	// Replies carry no function name: the caller words its errors from its
	// own call record, so a reply that does carry a channel (a hostile or
	// confused peer's) changes nothing.
	for _, hostile := range []bool{false, true} {
		name := "plain"
		if hostile {
			name = "hostile"
		}
		t.Run(name, func(t *testing.T) {
			client, busy, ok, cf := threeWay(t)
			if hostile {
				cf.Route = func(from transport.NodeID, fr *protocol.Frame) {
					if fr.Type != protocol.MTCall {
						fr.Channel = "decoy"
					}
					dispatch(client, from, fr)
				}
			}
			retT := presentation.String_()
			for _, e := range []*Engine{busy, ok} {
				if err := e.Register("fn", "svc", nil, retT, qos.CallQoS{},
					func(any) (any, error) { return "served", nil }); err != nil {
					t.Fatal(err)
				}
			}
			if err := ok.Register("boom", "svc", nil, nil, qos.CallQoS{},
				func(any) (any, error) { return nil, errors.New("kaput") }); err != nil {
				t.Fatal(err)
			}
			// a-slow sheds every call: its one slot is taken.
			busy.SetInflightLimit(1)
			busy.inflight.Add(1)
			cf.Directory().Apply(&naming.Announcement{Node: "a-slow", Epoch: 1, Records: append(busy.Records(),
				naming.Record{Kind: naming.KindFunction, Name: "phantom", Service: "svc", Node: "a-slow"})})
			cf.Directory().Apply(&naming.Announcement{Node: "b-fast", Epoch: 1, Records: ok.Records()})
			ctx := context.Background()

			_, err := client.Call(ctx, "phantom", nil, nil, nil, qos.CallQoS{Deadline: time.Second})
			if !errors.Is(err, ErrAllProvidersFailed) ||
				!strings.Contains(err.Error(), `rpc: phantom to "a-slow"`) ||
				!strings.Contains(err.Error(), "no such function") {
				t.Errorf("unknown function: %v", err)
			}

			_, err = client.Call(ctx, "boom", nil, nil, nil, qos.CallQoS{})
			var appErr *AppError
			if !errors.As(err, &appErr) || appErr.Name != "boom" || appErr.Message != "kaput" {
				t.Errorf("application error: %#v", err)
			}

			got, err := client.Call(ctx, "fn", nil, nil, retT, qos.CallQoS{Binding: qos.BindStatic})
			if err != nil || got != "served" || busyShed(t, busy) != 1 {
				t.Errorf("busy shed: got %v, %v after %d sheds; want a failover", got, err, busyShed(t, busy))
			}
		})
	}
}

// busyShed reads the provider's MTBusy sheds from its registry.
func busyShed(t *testing.T, e *Engine) uint64 {
	t.Helper()
	return metricstest.Counter(t, e.reg, "rpc", "errors", metrics.L("code", "busy_shed"))
}
