package rpc

import (
	"testing"

	"uavmw/internal/encoding"
	"uavmw/internal/presentation"
	"uavmw/internal/presentation/ptest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// inlineFabric runs scheduled work on the caller's goroutine and drops
// replies without recording them, so allocation gates measure the engine
// alone.
type inlineFabric struct{ *fakeFabric }

func (inlineFabric) Schedule(_ qos.Priority, job func()) error                                    { job(); return nil }
func (inlineFabric) SendReliable(transport.NodeID, *protocol.Frame, qos.Reliability, func(error)) {}

// TestReturnEncodeAllocatesNothing gates the provider's return-encode
// site: serving a call costs what decoding its arguments costs (the
// map[string]any handler contract) plus the one closure handed to the
// scheduler. Coercing and encoding the return value straight behind the
// call id in the pooled reply payload adds nothing.
func TestReturnEncodeAllocatesNothing(t *testing.T) {
	e := New(inlineFabric{newFakeFabric("server")})
	retType := presentation.MustParse("{ok:bool,index:u32}")
	ret := map[string]any{"ok": true, "index": 37}
	if err := e.Register("nav.resolve", "svc", ptest.PositionType, retType, qos.CallQoS{},
		func(any) (any, error) { return ret, nil }); err != nil {
		t.Fatal(err)
	}
	enc := encoding.Binary{}
	args, err := enc.Marshal(ptest.PositionType, ptest.PositionValue())
	if err != nil {
		t.Fatal(err)
	}
	floor := testing.AllocsPerRun(200, func() {
		if _, err := enc.Unmarshal(ptest.PositionType, args); err != nil {
			t.Fatal(err)
		}
	})
	fr := &protocol.Frame{Type: protocol.MTCall, Encoding: enc.ID(), Channel: "nav.resolve", Seq: 1, Payload: args}
	if got := testing.AllocsPerRun(200, func() { e.HandleCall("client", fr) }); got > floor+1 {
		t.Fatalf("HandleCall allocates %.1f times, argument decode floor is %.1f (+1 for the scheduled closure)", got, floor)
	}
}

// TestArgEncodeAllocatesOneRetainedBuffer gates the caller's arg-encode
// site: coercing and encoding a call's arguments costs exactly the one
// GC-owned buffer they live in — retained, not pooled, because hedged
// attempt goroutines send from it and may outlive Call.
func TestArgEncodeAllocatesOneRetainedBuffer(t *testing.T) {
	e := New(inlineFabric{newFakeFabric("client")})
	args := ptest.PositionValue()
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.encodeArgs("nav.resolve", args, ptest.PositionType); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("encoding a call's arguments allocates %.1f times, want 1", allocs)
	}
}
