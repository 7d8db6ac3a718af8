package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
)

// heldCall is one MTCall a heldFabric swallowed: everything a late answer
// to it needs.
type heldCall struct {
	to   transport.NodeID
	id   uint64
	done func(error)
}

// heldFabric never answers: it hands each MTCall to the test, which decides
// what comes back and when — in particular after the Call has returned.
type heldFabric struct {
	*fakeFabric
	calls   chan heldCall
	jobDone chan struct{} // a scheduled job ran to its end, result delivered
}

func newHeldFabric() *heldFabric {
	return &heldFabric{
		fakeFabric: newFakeFabric("client"),
		calls:      make(chan heldCall, 8),
		jobDone:    make(chan struct{}, 8),
	}
}

func (f *heldFabric) SendReliable(to transport.NodeID, fr *protocol.Frame, _ qos.Reliability, done func(error)) {
	if fr.Type == protocol.MTCall {
		f.calls <- heldCall{to: to, id: fr.Seq, done: done}
	}
}

func (f *heldFabric) Schedule(_ qos.Priority, job func()) error {
	go func() {
		job()
		f.jobDone <- struct{}{}
	}()
	return nil
}

func returnFrame(t *testing.T, id uint64, v int32) *protocol.Frame {
	t.Helper()
	body, err := (encoding.Binary{}).Marshal(i32, v)
	if err != nil {
		t.Fatal(err)
	}
	return &protocol.Frame{Type: protocol.MTReturn, Channel: "fn", Payload: encodeReply(id, body)}
}

// lateOutcomes delivers everything that can still arrive for an attempt
// whose Call is over: the reply, the reliable send's failure, a shed, and
// both kinds of error reply.
func lateOutcomes(t *testing.T, e *Engine, hc heldCall) {
	t.Helper()
	e.HandleReturn(hc.to, returnFrame(t, hc.id, 111))
	hc.done(errors.New("late arq failure"))
	e.HandleBusy(hc.to, &protocol.Frame{Type: protocol.MTBusy, Channel: "fn", Payload: encodeReply(hc.id, nil)})
	e.HandleError(hc.to, &protocol.Frame{Type: protocol.MTError, Channel: "fn", Payload: encodeReply(hc.id, nil)})
}

// freeRecord returns the one call record on the engine's free list.
func freeRecord(t *testing.T, e *Engine) *call {
	t.Helper()
	if n := e.calls.Len(); n != 1 {
		t.Fatalf("%d records on the free list, want the one the finished Call gave back", n)
	}
	c := e.calls.Get()
	e.calls.Put(c)
	return c
}

// TestCallRecordReuseDropsLateOutcomes ends a remote Call three ways with
// an attempt still unanswered — deadline, hedge loser, caller cancel — then
// lets the next Call reuse the record and only afterwards delivers
// everything the abandoned attempt can still produce. The second Call must
// see none of it: it waits for its own reply and returns that.
func TestCallRecordReuseDropsLateOutcomes(t *testing.T) {
	ends := map[string]func(t *testing.T, e *Engine, f *heldFabric) (abandoned []heldCall){
		"deadline": func(t *testing.T, e *Engine, f *heldFabric) []heldCall {
			_, err := e.Call(context.Background(), "fn", nil, nil, i32, qos.CallQoS{Deadline: 20 * time.Millisecond})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("first call: %v, want deadline", err)
			}
			return []heldCall{<-f.calls}
		},
		"hedge loser": func(t *testing.T, e *Engine, f *heldFabric) []heldCall {
			res := make(chan any, 1)
			go func() {
				v, err := e.Call(context.Background(), "fn", nil, nil, i32,
					qos.CallQoS{Deadline: 5 * time.Second, HedgeAfter: 0.002})
				if err != nil {
					res <- err
					return
				}
				res <- v
			}()
			loser, winner := <-f.calls, <-f.calls
			e.HandleReturn(winner.to, returnFrame(t, winner.id, 100))
			if got := <-res; got != int32(100) {
				t.Fatalf("hedged call: %v, want the hedge's 100", got)
			}
			return []heldCall{loser, winner}
		},
		"caller cancel": func(t *testing.T, e *Engine, f *heldFabric) []heldCall {
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := e.Call(ctx, "fn", nil, nil, i32, qos.CallQoS{Deadline: 5 * time.Second})
				errc <- err
			}()
			hc := <-f.calls
			cancel()
			if err := <-errc; !errors.Is(err, ErrDeadline) {
				t.Fatalf("cancelled call: %v, want deadline", err)
			}
			return []heldCall{hc}
		},
	}
	for name, end := range ends {
		t.Run(name, func(t *testing.T) {
			f := newHeldFabric()
			e := New(f)
			now := time.Now()
			for _, node := range []transport.NodeID{"a", "b"} {
				f.dir.Apply(&naming.Announcement{Node: node, Epoch: 1, Records: []naming.Record{
					{Kind: naming.KindFunction, Name: "fn", Service: "svc", Node: node, TypeSig: i32.String()},
				}}, now)
			}
			abandoned := end(t, e, f)
			rec := freeRecord(t, e)

			type result struct {
				v   any
				err error
			}
			res := make(chan result, 1)
			go func() {
				v, err := e.Call(context.Background(), "fn", nil, nil, i32, qos.CallQoS{Deadline: 5 * time.Second})
				res <- result{v, err}
			}()
			fresh := <-f.calls
			sh := e.pendingFor(fresh.id)
			sh.mu.Lock()
			reused := sh.calls[fresh.id] == rec
			sh.mu.Unlock()
			if !reused {
				t.Fatal("the second Call did not reuse the first one's record")
			}
			for _, hc := range abandoned {
				lateOutcomes(t, e, hc)
			}
			select {
			case r := <-res:
				t.Fatalf("second Call returned (%v, %v) on an abandoned attempt's outcome", r.v, r.err)
			case <-time.After(20 * time.Millisecond):
			}
			e.HandleReturn(fresh.to, returnFrame(t, fresh.id, 222))
			if r := <-res; r.err != nil || r.v != int32(222) {
				t.Fatalf("second Call returned (%v, %v), want its own reply 222", r.v, r.err)
			}
		})
	}
}

// inlineSchedFabric queues scheduled work on a scheduler.Inline: a job runs
// inside the Schedule call that queues it.
type inlineSchedFabric struct {
	*fakeFabric
	sched *scheduler.Inline
}

func (f inlineSchedFabric) Schedule(p qos.Priority, job func()) error { return f.sched.Submit(p, job) }

// TestServeRecordReuseUnderInlineReentry has a local handler call another
// local function. On an inline scheduler the nested handler runs inside the
// outer one. The outer serve record was recycled before its handler ran, so
// the nested call takes it again, and the outer call still gets its own
// result.
func TestServeRecordReuseUnderInlineReentry(t *testing.T) {
	e := New(inlineSchedFabric{newFakeFabric("n"), scheduler.NewInline()})
	ctx := context.Background()
	idle := func(where string) {
		if n := e.serves.Len(); n != 1 {
			t.Errorf("%d idle serve records %s, want 1: the record that carried this call", n, where)
		}
	}
	if err := e.Register("inner", "svc", nil, i32, qos.CallQoS{}, func(any) (any, error) {
		idle("in the nested handler")
		return int32(2), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("outer", "svc", nil, i32, qos.CallQoS{}, func(any) (any, error) {
		idle("in the outer handler")
		v, err := e.Call(ctx, "inner", nil, nil, i32, qos.CallQoS{})
		if err != nil {
			return nil, err
		}
		return v.(int32) + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if v, err := e.Call(ctx, "outer", nil, nil, i32, qos.CallQoS{}); err != nil || v != int32(3) {
		t.Fatalf("outer call returned (%v, %v), want 3", v, err)
	}
}

// TestCallRecordReuseDropsLateLocalResult is the same for the bypass path:
// a local handler that outlives its Call's deadline finishes while the next
// Call, on the same record, is still waiting for its own handler.
func TestCallRecordReuseDropsLateLocalResult(t *testing.T) {
	f := newHeldFabric()
	e := New(f)
	gates := []chan int32{make(chan int32), make(chan int32)}
	var invocations atomic.Int32
	if err := e.Register("loc", "svc", nil, i32, qos.CallQoS{},
		func(any) (any, error) { return <-gates[invocations.Add(1)-1], nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call(context.Background(), "loc", nil, nil, i32,
		qos.CallQoS{Deadline: 20 * time.Millisecond, Retries: 1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("first call: %v, want deadline", err)
	}
	freeRecord(t, e)

	type result struct {
		v   any
		err error
	}
	res := make(chan result, 1)
	go func() {
		v, err := e.Call(context.Background(), "loc", nil, nil, i32, qos.CallQoS{Deadline: 5 * time.Second, Retries: 1})
		res <- result{v, err}
	}()
	for invocations.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	if reused := e.calls.Len() == 0; !reused {
		t.Fatal("the second Call did not take the first one's record")
	}
	gates[0] <- 111 // the abandoned handler finishes
	<-f.jobDone     // and its result has been delivered
	select {
	case r := <-res:
		t.Fatalf("second Call returned (%v, %v) on the abandoned handler's result", r.v, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	gates[1] <- 222
	if r := <-res; r.err != nil || r.v != int32(222) {
		t.Fatalf("second Call returned (%v, %v), want its own handler's 222", r.v, r.err)
	}
}
