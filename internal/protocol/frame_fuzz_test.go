package protocol

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"uavmw/internal/qos"
)

// FuzzDecodeFrame feeds the frame decoder — the first code to see every
// datagram from the network — arbitrary bytes. Nothing may panic, and the
// decoder must accept one wire form per frame: every accepted input
// re-encodes byte for byte through AppendFrame, and FrameWireSize predicts
// its length. A batch's entries are held to the same rule.
func FuzzDecodeFrame(f *testing.F) {
	// Hostile hand-made inputs are committed under
	// testdata/fuzz/FuzzDecodeFrame; these are well-formed edges.
	for _, seq := range []uint64{0, 127, 128, 16383, 16384, 1 << 63, math.MaxUint64} {
		f.Add(encodeFuzzSeed(f, &Frame{Type: MTEvent, Channel: "e", Seq: seq, Payload: []byte("x")}))
	}
	f.Add(encodeFuzzSeed(f, &Frame{Type: MTHeartbeat}))
	f.Add(encodeFuzzSeed(f, &Frame{Type: MTSample, Channel: strings.Repeat("c", MaxChannelLen), Seq: 9}))
	f.Add(encodeFuzzSeed(f, &Frame{Type: MTCall, Priority: qos.PriorityHigh, Channel: "svc.op", Seq: 300,
		Budget: 250 * time.Millisecond, Payload: []byte("args")}))
	// Header ack blocks: a lone ack, three ranges, one beside a budget word,
	// and one in a batch entry below.
	f.Add(encodeFuzzSeed(f, &Frame{Type: MTCall, Channel: "svc.op", Seq: 1<<20 + 1, AckLargest: 1 << 20, Payload: []byte("args")}))
	ranges, _ := AppendAckBlock(nil, []uint64{5000, 4999, 4990, 4989, 4900}, 64)
	f.Add(encodeFuzzSeed(f, &Frame{Type: MTEvent, Channel: "e", Seq: 77, AckLargest: 5000, AckRanges: ranges}))
	f.Add(encodeFuzzSeed(f, &Frame{Type: MTCall, Channel: "svc.op", Seq: 300, Budget: time.Second, AckLargest: 299, Payload: []byte("args")}))
	inner := encodeFuzzSeed(f, &Frame{Type: MTAck, Priority: qos.PriorityCritical, Seq: 41})
	acking := encodeFuzzSeed(f, &Frame{Type: MTReturn, Seq: 42, AckLargest: 40, AckRanges: []byte{3}, Payload: []byte{7}})
	batch, err := AppendBatch(nil, [][]byte{inner, acking, inner}, qos.PriorityCritical)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonicalFrame(t, data, true)
	})
}

func encodeFuzzSeed(f *testing.F, fr *Frame) []byte {
	raw, err := EncodeFrame(fr)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// checkCanonicalFrame decodes data and, if it is accepted, requires the
// frame to re-encode to exactly data; with entries set, a batch's inner
// frames are checked the same way.
func checkCanonicalFrame(t *testing.T, data []byte, entries bool) {
	var fr Frame
	if DecodeFrameInto(&fr, data) != nil {
		return
	}
	if n := FrameWireSize(&fr); n != len(data) {
		t.Fatalf("FrameWireSize %d, input %d bytes", n, len(data))
	}
	out, err := AppendFrame(nil, &fr)
	if err != nil {
		t.Fatalf("accepted frame %+v does not re-encode: %v", fr, err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("accepted frame re-encodes differently:\n  in:  %x\n  out: %x", data, out)
	}
	if fr.Type != MTBatch || !entries {
		return
	}
	subs, err := ReadBatch(fr.Payload)
	if err != nil {
		return
	}
	for sub, ok := subs.Next(); ok; sub, ok = subs.Next() {
		checkCanonicalFrame(t, sub, false)
	}
}
