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

func TestAppendFrameAllocs(t *testing.T) {
	f := wireTestFrame(make([]byte, 64))
	buf := make([]byte, 0, FrameWireSize(f))
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendFrame(buf[:0], f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendFrame: %v allocs/op, want 0", allocs)
	}
}

func TestDecodeFrameIntoAllocs(t *testing.T) {
	raw, err := EncodeFrame(wireTestFrame(make([]byte, 64)))
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
		t.Errorf("DecodeFrameInto: %v allocs/op, want 0", allocs)
	}
}

func TestEncodeDecodePooledRoundTripAllocs(t *testing.T) {
	// The full steady-state cycle core runs per frame: pooled buffer out,
	// append-encode, decode into a pooled frame, everything released.
	src := wireTestFrame(make([]byte, 64))
	// Warm pools and intern table.
	for i := 0; i < 4; i++ {
		buf, _ := AppendFrame(bufpool.Get(FrameWireSize(src)), src)
		f := GetFrame()
		if err := DecodeFrameInto(f, buf); err != nil {
			t.Fatal(err)
		}
		PutFrame(f)
		bufpool.Put(buf)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf, err := AppendFrame(bufpool.Get(FrameWireSize(src)), src)
		if err != nil {
			t.Fatal(err)
		}
		f := GetFrame()
		if err := DecodeFrameInto(f, buf); err != nil {
			t.Fatal(err)
		}
		PutFrame(f)
		bufpool.Put(buf)
	})
	if allocs != 0 {
		t.Errorf("pooled encode→decode round trip: %v allocs/op, want 0", allocs)
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

// TestARQRetransmitAllocs pins the allocation cost of one timer-fired
// retransmission: pending lookup, backoff computation, timer rearm, and the
// wire send. The frame bytes themselves are reused, so the only intrinsic
// allocations left are the AfterFunc rearm — the runtime timer plus the
// retransmit closure it captures. That floor is pinned here so any extra
// per-retransmit heap work (re-encoding, map churn, stats boxing) fails
// the gate.
func TestARQRetransmitAllocs(t *testing.T) {
	send := func(transport.NodeID, []byte) error { return nil }
	// A huge timeout keeps the armed timers from firing mid-measurement;
	// the test invokes the retransmit path directly instead.
	a := NewARQ(send, WithTimeout(time.Hour), WithMaxRetries(1<<30))
	defer a.Close()

	frame, err := EncodeFrame(wireTestFrame(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("peer", 1, frame, func(error) {}); err != nil {
		t.Fatal(err)
	}
	key := arqKey{to: "peer", seq: 1}
	for i := 0; i < 4; i++ {
		a.retransmit(key, 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.retransmit(key, 1)
	})
	// Rearm cost: time.AfterFunc's timer object plus the closure capturing
	// (key, attempt). Anything above that is a regression.
	if allocs > 3 {
		t.Errorf("ARQ retransmit: %v allocs/op, want <= 3 (timer rearm only)", allocs)
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
