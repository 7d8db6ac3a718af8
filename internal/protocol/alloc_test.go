package protocol

import (
	"testing"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// The wire path's zero-allocation contract, pinned with exact counts.
// These gates are the reason AppendFrame/DecodeFrameInto/AppendBatch exist:
// if a change reintroduces a per-frame heap allocation on the steady-state
// encode or decode path, the numbers here move and the test fails.

func wireTestFrame(payload []byte) *Frame {
	return &Frame{
		Type:     MTSample,
		Priority: qos.PriorityNormal,
		Channel:  "alloc.gate/topic",
		Seq:      42,
		Payload:  payload,
	}
}

// ackingTestFrame is wireTestFrame carrying a three-range header ack block.
func ackingTestFrame(payload []byte) *Frame {
	f := wireTestFrame(payload)
	f.AckLargest, f.AckRanges = 1<<20, []byte{1, 3, 0, 7, 2}
	return f
}

func TestAppendFrameAllocs(t *testing.T) {
	for _, f := range []*Frame{wireTestFrame(make([]byte, 64)), ackingTestFrame(make([]byte, 64))} {
		buf := make([]byte, 0, FrameWireSize(f))
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := AppendFrame(buf[:0], f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendFrame (ack block %v): %v allocs/op, want 0", f.AckLargest != 0, allocs)
		}
	}
}

func TestDecodeFrameIntoAllocs(t *testing.T) {
	for _, in := range []*Frame{wireTestFrame(make([]byte, 64)), ackingTestFrame(make([]byte, 64))} {
		raw, err := EncodeFrame(in)
		if err != nil {
			t.Fatal(err)
		}
		var f Frame
		// Warm the channel-name intern table so the steady state is measured.
		if err := DecodeFrameInto(&f, raw); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := DecodeFrameInto(&f, raw); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("DecodeFrameInto (ack block %v): %v allocs/op, want 0", in.AckLargest != 0, allocs)
		}
	}
}

func TestEncodeDecodePooledRoundTripAllocs(t *testing.T) {
	// The full steady-state cycle core runs per frame: pooled buffer out,
	// append-encode, decode into a pooled frame, everything released — at a
	// small payload and at the one that fills a datagram exactly.
	mtuPayload := DefaultMTU - FrameWireSize(wireTestFrame(nil))
	for _, payload := range []int{64, mtuPayload} {
		src := wireTestFrame(make([]byte, payload))
		wire := FrameWireSize(src)
		if payload == mtuPayload && wire != DefaultMTU {
			t.Fatalf("MTU-filling frame is %d bytes on the wire, want %d", wire, DefaultMTU)
		}
		roundTrip := func() {
			buf, err := AppendFrame(bufpool.Get(wire), src)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != wire {
				t.Fatalf("%d-byte payload encoded to %d bytes, FrameWireSize says %d", payload, len(buf), wire)
			}
			f := GetFrame()
			if err := DecodeFrameInto(f, buf); err != nil {
				t.Fatal(err)
			}
			PutFrame(f)
			bufpool.Put(buf)
		}
		// Warm pools and intern table.
		for i := 0; i < 4; i++ {
			roundTrip()
		}
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
			t.Errorf("pooled encode→decode round trip, %d-byte payload: %v allocs/op, want 0", payload, allocs)
		}
	}
}

func TestAppendBatchAllocs(t *testing.T) {
	var frames [][]byte
	for _, n := range []int{32, 64, 128} {
		fr, err := EncodeFrame(wireTestFrame(make([]byte, n)))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	size := BatchOverhead(len(frames))
	for _, fr := range frames {
		size += len(fr)
	}
	buf := make([]byte, 0, size)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendBatch(buf[:0], frames, qos.PriorityNormal); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendBatch: %v allocs/op, want 0", allocs)
	}
}

func TestBufpoolCycleAllocs(t *testing.T) {
	// Warm one buffer into the class.
	bufpool.Put(bufpool.Get(512))
	allocs := testing.AllocsPerRun(200, func() {
		b := bufpool.Get(512)
		bufpool.Put(b)
	})
	if allocs != 0 {
		t.Errorf("bufpool Get/Put cycle: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	for _, size := range []int{16, 256, 1024} {
		payload := make([]byte, size)
		src := wireTestFrame(payload)
		b.Run(sizeName(size)+"/pooled", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(FrameWireSize(src)))
			for i := 0; i < b.N; i++ {
				buf, err := AppendFrame(bufpool.Get(FrameWireSize(src)), src)
				if err != nil {
					b.Fatal(err)
				}
				f := GetFrame()
				if err := DecodeFrameInto(f, buf); err != nil {
					b.Fatal(err)
				}
				PutFrame(f)
				bufpool.Put(buf)
			}
		})
		b.Run(sizeName(size)+"/gc-owned", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(FrameWireSize(src)))
			for i := 0; i < b.N; i++ {
				raw, err := EncodeFrame(src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := DecodeFrame(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestARQSteadyStateAllocs pins the reliable send at zero: a send that is
// acknowledged stores its record by value in the peer's array, re-arms the
// peer's one timer and takes its retained datagram from bufpool, and gives
// it back; a timer-fired retransmission re-arms the same timer and
// transmits a pooled copy. Any per-message heap work — a fresh record, an
// AfterFunc closure, a GC-owned datagram, map churn, stats boxing — fails
// the gate.
func TestARQSteadyStateAllocs(t *testing.T) {
	send := func(transport.NodeID, []byte) error { return nil }
	// The engine's timers never fire mid-measurement; the test invokes the
	// retransmit path directly instead.
	a := NewARQ(send, WithClock(stillClock{}), WithMaxRetries(1<<30))
	defer a.Close()

	frame, err := EncodeFrame(wireTestFrame(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	done := func(error) {}
	cycle := func() {
		seq++
		if err := a.Send("peer", seq, frame, done); err != nil {
			t.Fatal(err)
		}
		a.Ack("peer", seq)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("ARQ Send+Ack: %v allocs/op, want 0", allocs)
	}

	seq++
	if err := a.Send("peer", seq, frame, done); err != nil {
		t.Fatal(err)
	}
	e := a.entry("peer", false)
	e.mu.Unlock()
	// Each run is a first retransmission of a message already due.
	retransmit := func() {
		e.mu.Lock()
		e.p.recs[0].attempt, e.p.recs[0].due = 0, time.Time{}
		e.mu.Unlock()
		e.onTimer()
	}
	for i := 0; i < 4; i++ {
		retransmit()
	}
	if allocs := testing.AllocsPerRun(100, retransmit); allocs != 0 {
		t.Errorf("ARQ retransmit: %v allocs/op, want 0", allocs)
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1024 && n%1024 == 0:
		return string(rune('0'+n/1024)) + "KiB"
	default:
		s := ""
		for n > 0 {
			s = string(rune('0'+n%10)) + s
			n /= 10
		}
		return s + "B"
	}
}
