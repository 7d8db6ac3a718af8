package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"uavmw/internal/filetransfer"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"
)

// frameTap records the encoded size of the first frame of each type a
// container hands its transport, looking inside egress batches; for MTAck
// it records only a lone (one-seq) ack. A frame carrying a header ack
// block is recorded apart, in carrying.
type frameTap struct {
	transport.Transport
	mu       sync.Mutex
	first    map[protocol.MsgType]int
	carrying map[protocol.MsgType]int
}

func (t *frameTap) note(raw []byte) {
	f, err := protocol.DecodeFrame(raw)
	if err != nil {
		return
	}
	if f.Type == protocol.MTBatch {
		if subs, err := protocol.DecodeBatch(f.Payload); err == nil {
			for _, sub := range subs {
				t.note(sub)
			}
		}
		return
	}
	if f.Type == protocol.MTAck && len(f.Payload) > 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	first := t.first
	if f.AckLargest != 0 {
		first = t.carrying
	}
	if _, seen := first[f.Type]; !seen {
		first[f.Type] = len(raw)
	}
}

func (t *frameTap) size(mt protocol.MsgType) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.first[mt]
	return n, ok
}

// carryingSize is size for frames that carry a header ack block.
func (t *frameTap) carryingSize(mt protocol.MsgType) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.carrying[mt]
	return n, ok
}

func (t *frameTap) Send(to transport.NodeID, payload []byte) error {
	t.note(payload)
	return t.Transport.Send(to, payload)
}

func (t *frameTap) SendGroup(group string, payload []byte) error {
	t.note(payload)
	return t.Transport.SendGroup(group, payload)
}

// TestMessageWireBytes pins the encoded size of one frame of each kind the
// four primitives and the container put on the wire, captured from a real
// exchange between two containers: a variable sample, a reliable event,
// an RPC call and its reply, a call that carries the ack of the previous
// reply, a file chunk, a lone ack and a heartbeat digest. The three-range ack is built with the node's ack encoder: a
// container acknowledges six seqs in three runs with one frame. The
// figures are the README's wire table; a change to any of them is a wire
// format change.
func TestMessageWireBytes(t *testing.T) {
	bus := transport.NewBus()
	node := func(id transport.NodeID) (*frameTap, *Node) {
		ep, err := bus.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		tap := &frameTap{Transport: ep, first: map[protocol.MsgType]int{}, carrying: map[protocol.MsgType]int{}}
		n, err := NewNode(WithDatagram(tap), WithAnnouncePeriod(50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return tap, n
	}
	uavTap, uav := node("uav")
	gcsTap, gcs := node("gcs")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	argType := presentation.MustParse("{offset:f64}")
	alarmType := presentation.MustParse("{celsius:f64}")
	pos, err := uav.Variables().Offer("gps.position", "gps", gpsType, qos.VariableQoS{Validity: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	alarm, err := uav.Events().Offer("alarm.overheat", "health", alarmType, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := uav.RPC().Register("nav.calibrate", "nav", argType, presentation.Bool(), qos.CallQoS{},
		func(any) (any, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	plan := bytes.Repeat([]byte("waypoint"), filetransfer.DefaultChunkSize/8)
	if _, err := uav.Files().Offer("mission.plan", "mission", plan, qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	uav.AnnounceNow()
	waitUntil(t, 3*time.Second, "offers visible", func() bool {
		return gcs.Directory().ProviderCount(naming.KindFile, "mission.plan") == 1
	})

	got := make(chan struct{}, 1)
	sub, err := gcs.Variables().Subscribe("gps.position", gpsType, variables.SubscribeOptions{
		OnSample: func(any, time.Time) {
			select {
			case got <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := gcs.Events().Subscribe("alarm.overheat", alarmType, qos.EventQoS{},
		func(any, transport.NodeID) {}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "event subscriber", func() bool { return len(alarm.Subscribers()) == 1 })
	waitUntil(t, 3*time.Second, "a sample", func() bool {
		if err := pos.Publish(gpsValue(41.4)); err != nil {
			t.Fatal(err)
		}
		_, ok := uavTap.size(protocol.MTSample)
		return ok
	})
	if err := alarm.Publish(ctx, map[string]any{"celsius": 86.0}); err != nil {
		t.Fatal(err)
	}
	// Back-to-back calls: the next call carries the ack of the previous
	// reply, unless the ack's hold ran out first.
	for i := 0; i < 20; i++ {
		if _, err := gcs.RPC().Call(ctx, "nav.calibrate", map[string]any{"offset": -0.5},
			argType, presentation.Bool(), qos.CallQoS{}); err != nil {
			t.Fatal(err)
		}
		if _, ok := gcsTap.carryingSize(protocol.MTCall); ok {
			break
		}
	}
	if _, _, err := gcs.Files().Fetch(ctx, "mission.plan", filetransfer.FetchOptions{}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "a heartbeat", func() bool {
		_, ok := uavTap.size(protocol.MTHeartbeat)
		return ok
	})

	var ranges protocol.Frame
	protocol.AppendAck(&ranges, nil, []uint64{1000, 999, 998, 990, 980, 979}, protocol.DefaultMTU)
	raw, err := protocol.EncodeFrame(&ranges)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		tap      *frameTap
		mt       protocol.MsgType
		carrying bool
		want     int
	}{
		{"variable sample", uavTap, protocol.MTSample, false, 58},
		{"event", uavTap, protocol.MTEvent, false, 43},
		{"rpc call", gcsTap, protocol.MTCall, false, 34},
		{"rpc call carrying a lone ack", gcsTap, protocol.MTCall, true, 36},
		{"rpc reply", uavTap, protocol.MTReturn, false, 24},
		{"file chunk", uavTap, protocol.MTFileChunk, false, 1237},
		{"lone ack", gcsTap, protocol.MTAck, false, 9},
		{"3-range ack", nil, protocol.MTAck, false, 15},
		{"heartbeat", uavTap, protocol.MTHeartbeat, false, 45},
	} {
		n, ok := len(raw), true
		switch {
		case c.tap != nil && c.carrying:
			n, ok = c.tap.carryingSize(c.mt)
		case c.tap != nil:
			n, ok = c.tap.size(c.mt)
		}
		switch {
		case !ok:
			t.Errorf("%s: no %v frame on the wire", c.kind, c.mt)
		case n != c.want:
			t.Errorf("%s: %d bytes, want %d", c.kind, n, c.want)
		default:
			t.Logf("%-28s %4d B", c.kind, n)
		}
	}
}
