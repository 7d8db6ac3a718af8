package protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEventNack feeds the event decoders — DecodeEventPayload on every
// MTEvent and DecodeEventNack on every MTEventNack from a peer — arbitrary
// bytes. Nothing may panic. DecodeEventNack accepts exactly the payloads
// whose u16 count is in 1..MaxNackSeqs and matches the bytes that follow,
// and an accepted list re-encodes byte for byte through EncodeEventNack.
// DecodeEventPayload accepts exactly the payloads that hold a whole
// header, and the header it reads re-encodes through AppendEventHeader and
// EncodeEventPayload to the bytes it was read from.
func FuzzEventNack(f *testing.F) {
	// Hostile hand-made inputs are committed under
	// testdata/fuzz/FuzzEventNack; these are well-formed edges.
	for _, seqs := range [][]uint64{{1}, {5, 6, 7, math.MaxUint64}, make([]uint64, MaxNackSeqs)} {
		nack, err := EncodeEventNack(seqs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(nack)
	}
	f.Add(EncodeEventPayload(0xdeadbeef, 1, []byte("occurrence"), nil))
	f.Add(AppendEventHeader(nil, 1, math.MaxUint64))
	f.Fuzz(func(t *testing.T, payload []byte) {
		seqs, err := DecodeEventNack(payload)
		count := -1
		if len(payload) >= 2 {
			count = int(binary.BigEndian.Uint16(payload))
		}
		if valid := count >= 1 && count <= MaxNackSeqs && len(payload) == 2+8*count; (err == nil) != valid {
			t.Fatalf("% x: DecodeEventNack err=%v, but a count of %d over %d bytes is valid=%v", payload, err, count, len(payload), valid)
		}
		if err == nil {
			re, err := EncodeEventNack(seqs)
			if err != nil || !bytes.Equal(re, payload) {
				t.Fatalf("nack % x re-encodes as % x (%v)", payload, re, err)
			}
		}

		pubID, topicSeq, body, err := DecodeEventPayload(payload)
		if (err == nil) != (len(payload) >= EventHeaderLen) {
			t.Fatalf("% x: DecodeEventPayload err=%v for %d bytes", payload, err, len(payload))
		}
		if err != nil {
			return
		}
		if re := append(AppendEventHeader(nil, pubID, topicSeq), body...); !bytes.Equal(re, payload) {
			t.Fatalf("event % x re-encodes as % x", payload, re)
		}
		if re := EncodeEventPayload(pubID, topicSeq, body, nil); !bytes.Equal(re, payload) {
			t.Fatalf("event % x re-encodes through EncodeEventPayload as % x", payload, re)
		}
	})
}
