package variables

import (
	"bytes"
	"math"
	"testing"
	"time"

	"uavmw/internal/encoding"
)

// FuzzSamplePayload feeds the sample decoder — what a subscriber runs on
// every variable sample from a peer — arbitrary bytes for a fixed-size
// payload type. Nothing may panic. Input shorter than the sample header is
// rejected, and the header of an accepted sample re-encodes through
// appendSampleHeader to the bytes it was read from.
func FuzzSamplePayload(f *testing.F) {
	// Hostile hand-made inputs are committed under
	// testdata/fuzz/FuzzSamplePayload; these are well-formed edges.
	enc := encoding.Binary{}
	pos := map[string]any{"lat": 41.0, "lon": 2.0}
	for _, s := range []struct {
		ts       time.Time
		validity time.Duration
		pub      uint32
	}{
		{time.Unix(1_750_000_000, 123456789), 750 * time.Millisecond, 7},
		{time.Unix(0, 0), 0, 0},
		{time.Unix(0, math.MinInt64), time.Duration(math.MaxUint32) * time.Millisecond, math.MaxUint32},
	} {
		payload, err := encodeSamplePayload(enc, posType, pos, s.ts, s.validity, s.pub)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, ts, validity, pub, err := decodeSamplePayload(enc, posType, payload)
		if len(payload) < sampleHeaderLen && err == nil {
			t.Fatalf("% x: a %d-byte sample shorter than its header was accepted", payload, len(payload))
		}
		if err != nil {
			return
		}
		if re := appendSampleHeader(nil, ts, validity, pub); !bytes.Equal(re, payload[:sampleHeaderLen]) {
			t.Fatalf("sample header % x re-encodes as % x", payload[:sampleHeaderLen], re)
		}
	})
}
