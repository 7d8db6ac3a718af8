package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"

	"uavmw/internal/core"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// FuzzGatewayRequests feeds arbitrary bytes to one client connection's
// request loop, as a hostile external client would send them. Nothing may
// panic; the loop must end with the client dropped; and the decode errors
// it counts must be exactly the ones the framing rules predict: one per
// well-framed request it refuses (unknown stream or op, empty name), plus
// one, with the client dropped as a protocol failure, when a frame is
// malformed (a length of zero or past maxRequestLen, or a body that is not
// a JSON request). The package's leak check fails the run if a client's
// control frames leave a goroutine behind.
func FuzzGatewayRequests(f *testing.F) {
	for _, reqs := range [][]Request{
		{{Op: "subscribe", Stream: "variable", Name: "uav.position"}},
		{{Op: "subscribe", Stream: "event", Name: "uav.alarm"}, {Op: "unsubscribe", Stream: "event", Name: "uav.alarm"}, {Op: "bye"}},
		{{Op: "??", Stream: "variable", Name: "x"}, {Op: "subscribe", Stream: "tv", Name: "y"}, {Op: "subscribe", Stream: "event"}},
	} {
		var in []byte
		for _, req := range reqs {
			var err error
			if in, err = AppendRequest(in, req); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(in)
	}
	bus := transport.NewBus()
	ep, err := bus.Endpoint("gw")
	if err != nil {
		f.Fatal(err)
	}
	node, err := core.NewNode(core.WithDatagram(ep), core.WithAnnouncePeriod(time.Hour))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = node.Close() })
	g := New(node, Options{Shards: 1})
	f.Cleanup(g.Close)
	decodeErrs := uerr.Handle(g.reg, codeGwDecode)
	protocolDrops := g.m.closed[reasonProtocol]

	f.Fuzz(func(t *testing.T, data []byte) {
		wantErrs, wantDrop := expectedRequestErrors(data)
		errs0, drops0 := decodeErrs.Value(), protocolDrops.Value()
		c, err := g.Attach(&sinkConn{})
		if err != nil {
			t.Fatal(err)
		}
		g.readLoop(c, bytes.NewReader(data))
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if !closed {
			t.Fatal("the request loop returned with its client still attached")
		}
		if got := decodeErrs.Value() - errs0; got != wantErrs {
			t.Errorf("%d decode errors counted, want %d", got, wantErrs)
		}
		if got := protocolDrops.Value() - drops0; got != wantDrop {
			t.Errorf("%d protocol drops, want %d", got, wantDrop)
		}
	})
}

// expectedRequestErrors walks data by the request framing rules and
// returns the decode errors the loop should count and whether it should
// drop the client for a malformed frame.
func expectedRequestErrors(data []byte) (errs, protocolDrops uint64) {
	for {
		if len(data) < 4 {
			return errs, 0 // end of stream: a clean close
		}
		n := binary.BigEndian.Uint32(data)
		if n == 0 || n > maxRequestLen {
			return errs + 1, 1
		}
		if uint64(len(data)-4) < uint64(n) {
			return errs, 0 // the stream ends inside the frame
		}
		var req Request
		if json.Unmarshal(data[4:4+n], &req) != nil {
			return errs + 1, 1
		}
		data = data[4+n:]
		if req.Op == "bye" {
			return errs, 0
		}
		_, known := ParseStream(req.Stream)
		if !known || req.Name == "" || (req.Op != "subscribe" && req.Op != "unsubscribe") {
			errs++
		}
	}
}
