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
// The same seq and payload are also a header ack block on another frame:
// the frame must decode exactly when the MTAck is accepted, to the same
// seqs, and the block must re-encode through AppendAckBlock.
//
// top, steps and mtuSeed are a sender's side: a descending set of seqs
// spelled by the step bytes, acknowledged
// through AppendAck into frames of at most an MTU picked by mtuSeed, and
// through AppendAckBlock into header blocks of at most a room picked the
// same way. Every frame and block must fit, and they must decode to exactly
// the seqs sent, each once, in order.
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
		valid := walkRanges(seq, payload, nil) == nil
		var seqs []uint64
		if valid {
			seqs = ackedSeqs(t, &in)
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
		if seq != 0 {
			checkAckBlock(t, seq, payload, valid, seqs)
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

		// A header block cannot name seq 0, which no frame carries.
		if len(sent) > 0 && sent[len(sent)-1] == 0 {
			sent = sent[:len(sent)-1]
		}
		room := AckBlockSize(top, nil) + int(mtuSeed%64)
		got = got[:0]
		for rest := sent; len(rest) > 0; {
			largest := rest[0]
			var ranges []byte
			if ranges, rest = AppendAckBlock(nil, rest, room); len(rest) > 0 && rest[0] == largest {
				t.Fatalf("no block of %d seqs fits in %d bytes", len(rest), room)
			}
			if n := AckBlockSize(largest, ranges); n > room {
				t.Fatalf("%d-byte ack block, room %d", n, room)
			}
			raw, err := EncodeFrame(&Frame{Type: MTSample, Seq: 1, AckLargest: largest, AckRanges: ranges})
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeFrame(raw)
			if err != nil {
				t.Fatalf("block %d %x rejected: %v", largest, ranges, err)
			}
			got = append(got, blockSeqs(t, dec)...)
		}
		if !slices.Equal(got, sent) {
			t.Fatalf("blocks acked %v, sent %v", got, sent)
		}
	})
}

// blockSeqs expands an accepted frame's header ack block into its seqs, in
// descending order.
func blockSeqs(t *testing.T, f *Frame) []uint64 {
	t.Helper()
	return ackedSeqs(t, &Frame{Type: MTAck, Seq: f.AckLargest, Payload: f.AckRanges})
}

// checkAckBlock carries largest and ranges as a header ack block: the frame
// decodes iff valid, to seqs, and the block re-encodes byte for byte.
func checkAckBlock(t *testing.T, largest uint64, ranges []byte, valid bool, seqs []uint64) {
	t.Helper()
	raw, err := EncodeFrame(&Frame{Type: MTReturn, Seq: 3, AckLargest: largest, AckRanges: ranges, Payload: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeFrame(raw)
	if (err == nil) != valid {
		t.Fatalf("block %d %x: decode error %v, MTAck form valid %v", largest, ranges, err, valid)
	}
	if !valid {
		return
	}
	if got := blockSeqs(t, dec); !slices.Equal(got, seqs) {
		t.Fatalf("block %d %x acks %v, the MTAck form %v", largest, ranges, got, seqs)
	}
	out, rest := AppendAckBlock(nil, seqs, AckBlockSize(largest, ranges))
	if len(rest) != 0 || !bytes.Equal(out, ranges) {
		t.Fatalf("block %d %x re-encodes as %x, leaving %d seqs", largest, ranges, out, len(rest))
	}
}
