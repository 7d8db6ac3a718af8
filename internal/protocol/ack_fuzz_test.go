package protocol

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// ackedSeqs expands an accepted MTAck into its seqs, in descending order.
func ackedSeqs(t *testing.T, f *Frame) []uint64 {
	t.Helper()
	var seqs []uint64
	err := EachAckRange(f, func(lo, hi uint64) {
		for seq := lo; seq <= hi && seq >= lo; seq++ {
			seqs = append(seqs, seq)
		}
	})
	if err != nil {
		t.Fatalf("ack %d %x rejected: %v", f.Seq, f.Payload, err)
	}
	slices.Sort(seqs)
	slices.Reverse(seqs)
	return seqs
}

// FuzzAckRanges holds the ack codec to two properties.
//
// seq and payload are an MTAck off the network. EachAckRange must not panic,
// and an ack it accepts must cover at most MaxAckSeqs seqs and re-encode
// through AppendAck to exactly the same Seq and payload.
//
// top, steps and mtuSeed are a sender's side: a descending set of seqs
// spelled by the step bytes, acknowledged
// through AppendAck into frames of at most an MTU picked by mtuSeed. Every
// frame must fit, and the frames must decode to exactly the seqs sent, each
// once, in order.
func FuzzAckRanges(f *testing.F) {
	f.Add(uint64(7), []byte{}, uint64(100), []byte{0, 0, 0, 5, 0, 200}, uint16(0))
	f.Add(uint64(7), []byte{2}, uint64(1<<20), []byte{0, 1, 0, 1, 0, 1, 0, 1}, uint16(3))
	f.Add(uint64(100), []byte{0, 3, 4, 0, 0}, uint64(math.MaxUint64), []byte{255, 255, 0}, uint16(40))
	f.Add(uint64(9), []byte{0x80, 0x00}, uint64(0), []byte{}, uint16(1))    // overlong first
	f.Add(uint64(5), []byte{0}, uint64(3), []byte{0, 0}, uint16(2))         // lone zero: non-canonical
	f.Add(uint64(5), []byte{1, 9, 0}, uint64(3), []byte{0}, uint16(2))      // gap below seq 0
	f.Add(uint64(5000), []byte{0xff, 0x3f}, uint64(3), []byte{}, uint16(9)) // 16,384 seqs
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte, top uint64, steps []byte, mtuSeed uint16) {
		in := Frame{Type: MTAck, Seq: seq, Payload: payload}
		if walkAck(&in, nil) == nil {
			seqs := ackedSeqs(t, &in)
			if len(seqs) > MaxAckSeqs {
				t.Fatalf("accepted ack covers %d seqs", len(seqs))
			}
			var out Frame
			if rest := AppendAck(&out, nil, seqs, FrameWireSize(&in)); len(rest) != 0 {
				t.Fatalf("re-encoding left %d of %d seqs", len(rest), len(seqs))
			}
			if out.Seq != seq || !bytes.Equal(out.Payload, payload) {
				t.Fatalf("ack %d %x re-encodes as %d %x", seq, payload, out.Seq, out.Payload)
			}
		}

		sent := []uint64{top}
		for _, s := range steps {
			// A step below 0x80 skips s seqs; one above runs on for
			// 64·(s-0x7f) consecutive seqs, so a few bytes cross
			// MaxAckSeqs. The set stays small enough for fast runs.
			skip, run := uint64(s), 1
			if s >= 0x80 {
				skip, run = 0, 64*int(s-0x7f)
			}
			for ; run > 0 && len(sent) < 3*MaxAckSeqs; run-- {
				prev := sent[len(sent)-1]
				if prev <= skip {
					break
				}
				sent = append(sent, prev-skip-1)
			}
		}
		lone, _ := EncodeFrame(&Frame{Type: MTAck, Seq: top})
		mtu := len(lone) + int(mtuSeed%64)
		var got []uint64
		for rest := sent; len(rest) > 0; {
			var ack Frame
			rest = AppendAck(&ack, nil, rest, mtu)
			raw, err := EncodeFrame(&ack)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) > mtu {
				t.Fatalf("%d-byte ack frame, mtu %d", len(raw), mtu)
			}
			dec, err := DecodeFrame(raw)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ackedSeqs(t, dec)...)
		}
		if !slices.Equal(got, sent) {
			t.Fatalf("acked %v, sent %v", got, sent)
		}
	})
}
