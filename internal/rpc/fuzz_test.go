package rpc

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"uavmw/internal/bufpool"
	"uavmw/internal/encoding"
)

// FuzzDecodeReply feeds the reply decoder — what a caller runs on every
// MTReturn, MTError and MTBusy payload from a provider — arbitrary bytes.
// Nothing may panic. The call id must be a canonical uvarint: decodeReply
// accepts exactly the payloads whose leading uvarint is in its shortest
// form, and an accepted payload re-encodes byte for byte through
// replyPayload and its body. An MTError's message prefix, where
// decodeAppError accepts it, re-encodes through appendAppError to the bytes
// it was read from.
func FuzzDecodeReply(f *testing.F) {
	// Hostile hand-made inputs are committed under
	// testdata/fuzz/FuzzDecodeReply; these are well-formed edges.
	for _, id := range []uint64{0, 1, 127, 128, 1<<21 - 1, 1 << 21, math.MaxUint64} {
		f.Add(binary.AppendUvarint(nil, id))
	}
	f.Add(appendAppError(binary.AppendUvarint(nil, 300), "bad arguments: short"))
	f.Add(appendAppError(binary.AppendUvarint(nil, 5), ""))
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, body, ok := decodeReply(payload)
		v, n := binary.Uvarint(payload)
		if canonical := n > 0 && n == encoding.UvarintLen(v); ok != canonical {
			t.Fatalf("% x: decodeReply ok=%v, but the leading uvarint is canonical=%v", payload, ok, canonical)
		}
		if gotID, gotOK := ReplyCallID(payload); gotID != id || gotOK != ok {
			t.Fatalf("% x: ReplyCallID (%d, %v), decodeReply (%d, %v)", payload, gotID, gotOK, id, ok)
		}
		if !ok {
			return
		}
		re := append(replyPayload(id, len(body)), body...)
		if !bytes.Equal(re, payload) {
			t.Fatalf("reply % x re-encodes as % x", payload, re)
		}
		bufpool.Put(re)
		if msg, ok := decodeAppError(body); ok {
			if enc := appendAppError(nil, msg); !bytes.HasPrefix(body, enc) {
				t.Fatalf("error body % x re-encodes as % x", body, enc)
			}
		}
	})
}
