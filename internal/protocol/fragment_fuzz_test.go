package protocol

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReassemblerOffer feeds the fragment decoder — which takes its bytes
// from the network — two things at once.
//
// hostile is a stream of arbitrary fragment payloads (sender selector byte,
// length byte, payload bytes) from four misbehaving senders: short headers,
// index ≥ total, zero or huge totals, one msgID reused with different
// shapes. None may panic, no sender's partial messages may exceed its
// reassembly budget, and once the reassembly TTL has passed OnTimer must
// leave no trace of them.
//
// raw, mtuSeed and order describe a well-formed message from a fifth
// sender, each sender in its own Peer: raw split at an MTU picked by
// mtuSeed, its fragments offered in the duplicated, shuffled order the
// order bytes spell out and then once each in sequence. The message must
// complete exactly when its last missing fragment arrives, byte-identical
// to raw.
func FuzzReassemblerOffer(f *testing.F) {
	// More seeds are committed under testdata/fuzz/FuzzReassemblerOffer.
	hostileOp := func(sender byte, payload []byte) []byte {
		return append([]byte{sender, byte(len(payload))}, payload...)
	}
	f.Add([]byte{}, []byte("a frame that needs more than one fragment"), uint16(1), []byte{})
	f.Add([]byte{}, []byte("0123456789abcdef"), uint16(0), []byte{15, 15, 0, 7, 7, 3})  // one-byte chunks
	f.Add([]byte{}, []byte("tiny"), uint16(500), []byte{0, 0})                          // fits one fragment
	f.Add([]byte{0, 255, 1, 2}, bytes.Repeat([]byte{'r'}, 513), uint16(511), []byte{0}) // truncated op stream
	f.Add(hostileOp(3, append(fragHeader(11, 0, 1), "whole"...)), []byte("q"), uint16(0), []byte{})
	// A hostile sender reusing the good sender's message id.
	f.Add(append(hostileOp(1, append(fragHeader(77, 0, 4), "evil"...)), hostileOp(2, append(fragHeader(77, 1, 4), "evil"...))...),
		bytes.Repeat([]byte("good"), 90), uint16(33), []byte{2, 1})
	f.Fuzz(func(t *testing.T, hostile, raw []byte, mtuSeed uint16, order []byte) {
		now := time.Unix(1_000_000, 0)
		var peers [5]Peer // four hostile senders, then the good one
		good := &peers[4]

		for rest := hostile; len(rest) >= 2; {
			from := &peers[rest[0]%4]
			n := min(int(rest[1]), len(rest)-2)
			// Errors and accidental completions are both fine; a panic is not.
			_, _, _ = from.Offer(now, &Frame{Type: MTFragment, Payload: rest[2 : 2+n]})
			if from.partialBytes > reassemblyBudget {
				t.Fatalf("a sender's partial messages are charged %d bytes, over the %d budget", from.partialBytes, reassemblyBudget)
			}
			rest = rest[2+n:]
		}

		if len(raw) > 0 {
			split, err := Split(raw, 77, fragOverhead+1+int(mtuSeed)%512)
			if err != nil {
				t.Skip() // more fragments than one message may have
			}
			total := split.Count()
			offered := make([]bool, total)
			missing := total
			var out []byte
			offer := func(i int) {
				part := split.Append(nil, i, 77, 0)
				pf, err := DecodeFrame(part)
				if err != nil {
					t.Fatalf("fragment %d does not decode: %v", i, err)
				}
				got, _, err := good.Offer(now, pf)
				if err != nil {
					t.Fatalf("well-formed fragment %d/%d rejected: %v", i, total, err)
				}
				if !offered[i] {
					offered[i] = true
					missing--
				}
				if (got != nil) != (missing == 0) {
					t.Fatalf("fragment %d: completed=%v with %d fragment(s) still missing", i, got != nil, missing)
				}
				out = got
			}
			for _, b := range order {
				if missing > 0 {
					offer(int(b) % total)
				}
			}
			for i := 0; i < total && missing > 0; i++ {
				if !offered[i] {
					offer(i)
				}
			}
			if !bytes.Equal(out, raw) {
				t.Fatalf("reassembled %d bytes differ from the %d sent", len(out), len(raw))
			}
		}

		// Past the TTL, OnTimer drops every partial message.
		now = now.Add(ReassemblyTTL + time.Millisecond)
		for i := range peers {
			var due Due
			peers[i].OnTimer(now, DefaultARQRetries, &due)
			if n := len(peers[i].partials); n != 0 || peers[i].partialBytes != 0 || !peers[i].Deadline().IsZero() {
				t.Fatalf("sender %d: %d partial message(s) survive their TTL", i, n)
			}
		}
	})
}
