package rpc

import (
	"context"
	"encoding/binary"
	"testing"

	"uavmw/internal/bufpool"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/presentation"
	"uavmw/internal/presentation/ptest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// discarding is a double that runs scheduled work inline and drops every
// send unrecorded, so allocation gates measure the engine alone.
func discarding(t *testing.T, self transport.NodeID) *fabrictest.Fabric {
	f := fabrictest.New(t, self)
	f.Discard(nil)
	return f
}

// TestHandleCallAllocatesDecodeFloor gates the provider: serving a call
// costs exactly what decoding its arguments costs (the map[string]any
// handler contract). The record that carries the call onto the scheduler is
// reused, and coercing and encoding the return value straight behind the
// call id in the pooled reply payload adds nothing. The floor itself is held
// to the map and one scalar slab, so a decode regression cannot pass.
func TestHandleCallAllocatesDecodeFloor(t *testing.T) {
	e := New(discarding(t, "server"))
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
	if floor > 3 {
		t.Fatalf("decoding a position allocates %.1f times, want at most 3", floor)
	}
	fr := &protocol.Frame{Type: protocol.MTCall, Encoding: enc.ID(), Channel: "nav.resolve", Seq: 1, Payload: args}
	if got := testing.AllocsPerRun(200, func() { e.HandleCall("client", fr) }); got != floor {
		t.Fatalf("HandleCall allocates %.1f times, want the argument decode floor %.1f", got, floor)
	}
}

// TestArgEncodeIsPooled gates the caller's arg-encode site: coercing and
// encoding a call's arguments draws the buffer every attempt sends from out
// of bufpool, and releasing the call gives it back — no allocation.
func TestArgEncodeIsPooled(t *testing.T) {
	e := New(discarding(t, "client"))
	c := &call{name: "nav.resolve", argType: ptest.PositionType}
	args := ptest.PositionValue()
	if allocs := testing.AllocsPerRun(200, func() {
		if err := e.encodeArgs(c, args); err != nil {
			t.Fatal(err)
		}
		bufpool.Put(c.args)
	}); allocs != 0 {
		t.Fatalf("encoding a call's arguments allocates %.1f times, want 0", allocs)
	}
}

// TestRemoteCallAllocs gates one remote Call end to end on the caller's
// side at zero. The call record, its trigger, the attempt table entry, the
// argument buffer, the frame, the reliable send's completion record,
// Directory.Select's scratch and the reply body are all reused, and an
// int32 return value boxes without allocating.
func TestRemoteCallAllocs(t *testing.T) {
	server := New(newFabric(t, "server"))
	registerAdd(t, server)
	f := fabrictest.New(t, "client")
	client := New(f)
	announce(t, f, "server", server)
	ret, err := (encoding.Binary{}).Marshal(i32, int32(42))
	if err != nil {
		t.Fatal(err)
	}
	// The double answers every MTCall inline, from inside SendReliable, with
	// the prepared return value: the shortest path a remote call can take,
	// and one that allocates nothing itself.
	var reply protocol.Frame
	var buf []byte
	f.Discard(func(to transport.NodeID, fr *protocol.Frame) {
		buf = append(binary.AppendUvarint(buf[:0], fr.Seq), ret...)
		reply = protocol.Frame{Type: protocol.MTReturn, Payload: buf}
		client.HandleReturn(to, &reply)
	})
	args := map[string]any{"a": int32(20), "b": int32(22)}
	ctx := context.Background()
	call := func() {
		got, err := client.Call(ctx, "add", args, addArgs, i32, qos.CallQoS{})
		if err != nil || got != int32(42) {
			t.Fatalf("call: %v, %v", got, err)
		}
	}
	for i := 0; i < 4; i++ {
		call()
	}
	if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
		t.Fatalf("one remote Call allocates %.1f times, want 0", allocs)
	}
}
