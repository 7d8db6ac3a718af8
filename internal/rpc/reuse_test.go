package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
)

// newHeldFabric never answers: it holds each MTCall for the test, which
// decides what comes back and when — in particular after the Call has
// returned.
func newHeldFabric(t *testing.T) *fabrictest.Fabric {
	f := fabrictest.New(t, "client")
	f.Hold()
	f.Sched = f.Go
	return f
}

func returnFrame(t *testing.T, id uint64, v int32) *protocol.Frame {
	t.Helper()
	body, err := (encoding.Binary{}).Marshal(i32, v)
	if err != nil {
		t.Fatal(err)
	}
	return &protocol.Frame{Type: protocol.MTReturn, Payload: encodeReply(id, body)}
}

// lateOutcomes delivers everything that can still arrive for an attempt
// whose Call is over: the reply, the reliable send's failure, a shed, and
// both kinds of error reply.
func lateOutcomes(t *testing.T, e *Engine, hc *fabrictest.Held) {
	t.Helper()
	id := hc.Frame.Seq
	e.HandleReturn(hc.To, returnFrame(t, id, 111))
	hc.Release(errors.New("late arq failure"))
	e.HandleBusy(hc.To, &protocol.Frame{Type: protocol.MTBusy, Payload: encodeReply(id, nil)})
	e.HandleError(hc.To, &protocol.Frame{Type: protocol.MTError, Payload: encodeReply(id, nil)})
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
	ends := map[string]func(t *testing.T, e *Engine, f *fabrictest.Fabric) (abandoned []*fabrictest.Held){
		"deadline": func(t *testing.T, e *Engine, f *fabrictest.Fabric) []*fabrictest.Held {
			_, err := e.Call(context.Background(), "fn", nil, nil, i32, qos.CallQoS{Deadline: 20 * time.Millisecond})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("first call: %v, want deadline", err)
			}
			return []*fabrictest.Held{f.NextHeld()}
		},
		"hedge loser": func(t *testing.T, e *Engine, f *fabrictest.Fabric) []*fabrictest.Held {
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
			loser, winner := f.NextHeld(), f.NextHeld()
			e.HandleReturn(winner.To, returnFrame(t, winner.Frame.Seq, 100))
			if got := <-res; got != int32(100) {
				t.Fatalf("hedged call: %v, want the hedge's 100", got)
			}
			return []*fabrictest.Held{loser, winner}
		},
		"caller cancel": func(t *testing.T, e *Engine, f *fabrictest.Fabric) []*fabrictest.Held {
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := e.Call(ctx, "fn", nil, nil, i32, qos.CallQoS{Deadline: 5 * time.Second})
				errc <- err
			}()
			hc := f.NextHeld()
			cancel()
			if err := <-errc; !errors.Is(err, ErrDeadline) {
				t.Fatalf("cancelled call: %v, want deadline", err)
			}
			return []*fabrictest.Held{hc}
		},
	}
	for name, end := range ends {
		t.Run(name, func(t *testing.T) {
			f := newHeldFabric(t)
			e := New(f)
			now := time.Now()
			for _, node := range []transport.NodeID{"a", "b"} {
				f.Directory().Apply(&naming.Announcement{Node: node, Epoch: 1, Records: []naming.Record{
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
			fresh := f.NextHeld()
			sh := e.pendingFor(fresh.Frame.Seq)
			sh.mu.Lock()
			reused := sh.calls[fresh.Frame.Seq] == rec
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
			e.HandleReturn(fresh.To, returnFrame(t, fresh.Frame.Seq, 222))
			if r := <-res; r.err != nil || r.v != int32(222) {
				t.Fatalf("second Call returned (%v, %v), want its own reply 222", r.v, r.err)
			}
		})
	}
}

// TestServeRecordReuseUnderInlineReentry has a local handler call another
// local function. On an inline scheduler the nested handler runs inside the
// outer one. The outer serve record was recycled before its handler ran, so
// the nested call takes it again, and the outer call still gets its own
// result.
func TestServeRecordReuseUnderInlineReentry(t *testing.T) {
	f := fabrictest.New(t, "n")
	f.Sched = scheduler.NewInline().Submit // a job runs inside the Schedule call that queues it
	e := New(f)
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
	f := newHeldFabric(t)
	jobDone := make(chan struct{}, 8) // a scheduled job ran to its end, result delivered
	f.Sched = func(p qos.Priority, job scheduler.Job) error {
		return f.Go(p, func() { job(); jobDone <- struct{}{} })
	}
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
	<-jobDone       // and its result has been delivered
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
