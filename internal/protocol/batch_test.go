package protocol

import (
	"bytes"
	"errors"
	"testing"

	"uavmw/internal/encoding"
	"uavmw/internal/qos"
)

func encodeTestFrame(t *testing.T, f *Frame) []byte {
	t.Helper()
	raw, err := EncodeFrame(f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return raw
}

func TestBatchRoundTrip(t *testing.T) {
	frames := [][]byte{
		encodeTestFrame(t, &Frame{Type: MTSample, Priority: qos.PriorityNormal,
			Channel: "gps.position", Seq: 1, Payload: []byte("alpha")}),
		encodeTestFrame(t, &Frame{Type: MTEvent, Priority: qos.PriorityHigh,
			Channel: "alarm", Seq: 2, Payload: []byte("beta")}),
		encodeTestFrame(t, &Frame{Type: MTHeartbeat, Priority: qos.PriorityNormal, Seq: 3}),
	}
	raw, err := AppendBatch(nil, frames, qos.PriorityHigh)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	outer, err := DecodeFrame(raw)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if outer.Type != MTBatch {
		t.Fatalf("outer type = %v, want batch", outer.Type)
	}
	if outer.Priority != qos.PriorityHigh {
		t.Fatalf("outer priority = %v, want high", outer.Priority)
	}
	subs, err := DecodeBatch(outer.Payload)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(subs) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(subs), len(frames))
	}
	wantSeq := []uint64{1, 2, 3}
	wantType := []MsgType{MTSample, MTEvent, MTHeartbeat}
	for i, sub := range subs {
		f, err := DecodeFrame(sub)
		if err != nil {
			t.Fatalf("inner %d: %v", i, err)
		}
		if f.Seq != wantSeq[i] || f.Type != wantType[i] {
			t.Fatalf("inner %d = %v seq %d, want %v seq %d", i, f.Type, f.Seq, wantType[i], wantSeq[i])
		}
	}
}

func TestBatchOverheadAccountsForWire(t *testing.T) {
	frames := [][]byte{
		encodeTestFrame(t, &Frame{Type: MTSample, Channel: "a", Seq: 1, Payload: make([]byte, 100)}),
		encodeTestFrame(t, &Frame{Type: MTSample, Channel: "b", Seq: 2, Payload: make([]byte, 100)}),
	}
	raw, err := AppendBatch(nil, frames, qos.PriorityNormal)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	inner := len(frames[0]) + len(frames[1])
	if got, want := len(raw), inner+BatchOverhead(len(frames)); got != want {
		t.Fatalf("batch datagram %d bytes, want exactly %d (inner %d + overhead)", got, want, inner)
	}
}

func TestBatchRejectsEmptyAndTruncated(t *testing.T) {
	if _, err := AppendBatch(nil, nil, qos.PriorityNormal); err == nil {
		t.Fatal("AppendBatch of no frames succeeded")
	}
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("DecodeBatch(nil) succeeded")
	}
	frame := encodeTestFrame(t, &Frame{Type: MTSample, Channel: "a", Seq: 1})
	raw, err := AppendBatch(nil, [][]byte{frame}, qos.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the payload mid-entry: decode must fail, not panic.
	if _, err := DecodeBatch(outer.Payload[:len(outer.Payload)-3]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated batch: err = %v, want ErrBadFrame", err)
	}
	// A dangling partial length prefix after a good entry rejects the
	// whole batch before the in-place reader hands out anything.
	if _, err := ReadBatch(append(append([]byte(nil), outer.Payload...), 0)); !errors.Is(err, encoding.ErrTruncated) {
		t.Fatalf("dangling prefix: err = %v, want ErrTruncated", err)
	}
}

// An entry's u16 length prefix bounds it at MaxBatchEntry bytes; a longer
// one is an encode error that leaves dst as it was.
func TestBatchRejectsOversizedEntry(t *testing.T) {
	big := make([]byte, MaxBatchEntry+1)
	if out, err := AppendBatch([]byte("x"), [][]byte{{1}, big}, qos.PriorityBulk); !errors.Is(err, ErrBadFrame) || string(out) != "x" {
		t.Fatalf("AppendBatch of a %d-byte entry: err %v, dst %d bytes", len(big), err, len(out))
	}
	raw, err := AppendBatch(nil, [][]byte{big[:MaxBatchEntry]}, qos.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ReadBatch(outer.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Next(); len(got) != MaxBatchEntry {
		t.Fatalf("largest entry read back as %d bytes", len(got))
	}
}

func TestBatchReaderMatchesDecodeBatch(t *testing.T) {
	frames := [][]byte{
		encodeTestFrame(t, &Frame{Type: MTSample, Channel: "a", Seq: 1}),
		encodeTestFrame(t, &Frame{Type: MTEvent, Channel: "b", Seq: 2, Payload: []byte("xyz")}),
		encodeTestFrame(t, &Frame{Type: MTAck, Seq: 3}),
	}
	raw, err := AppendBatch(nil, frames, qos.PriorityHigh)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ReadBatch(outer.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range frames {
		got, ok := r.Next()
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("entry %d: ok=%v, %x, want %x", i, ok, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("reader yields past the last entry")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r, _ := ReadBatch(outer.Payload)
		for _, ok := r.Next(); ok; _, ok = r.Next() {
		}
	}); allocs != 0 {
		t.Fatalf("in-place batch walk allocates %.0f times", allocs)
	}
}

func TestPeekPriority(t *testing.T) {
	for _, p := range qos.Levels() {
		raw := encodeTestFrame(t, &Frame{Type: MTSample, Priority: p, Channel: "x", Seq: 9})
		if got := PeekPriority(raw); got != p {
			t.Fatalf("PeekPriority = %v, want %v", got, p)
		}
	}
	if got := PeekPriority([]byte{1, 2, 3}); got != qos.PriorityNormal {
		t.Fatalf("short input: %v, want normal", got)
	}
	if got := PeekPriority(make([]byte, 32)); got != qos.PriorityNormal {
		t.Fatalf("bad magic: %v, want normal", got)
	}
}
