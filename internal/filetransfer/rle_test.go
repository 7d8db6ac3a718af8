package filetransfer

import (
	"math/rand"
	"testing"

	"uavmw/internal/encoding"
)

// haveAllBut is the received-set of a receiver lacking exactly missing.
func haveAllBut(total int, missing []uint32) []bool {
	have := make([]bool, total)
	for i := range have {
		have[i] = true
	}
	for _, idx := range missing {
		have[idx] = false
	}
	return have
}

// roundTripMissing encodes the gaps of have and decodes them again; the
// result must be have's complement.
func roundTripMissing(t *testing.T, have []bool) {
	t.Helper()
	r := encoding.NewReader(appendMissing(nil, have))
	got := make([]bool, len(have))
	if err := decodeMissing(r, got); err != nil {
		t.Fatalf("decodeMissing(%v): %v", have, err)
	}
	if err := r.ExpectEOF(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	for i := range have {
		if got[i] == have[i] {
			t.Fatalf("chunk %d: have %v, decoded missing %v (have %v)", i, have[i], got[i], have)
		}
	}
}

func TestRLERoundTrip(t *testing.T) {
	tests := []struct {
		name    string
		missing []uint32
		total   int
	}{
		{"empty", nil, 10},
		{"single", []uint32{4}, 10},
		{"run", []uint32{3, 4, 5}, 10},
		{"two runs", []uint32{0, 1, 7, 8, 9}, 10},
		{"alternating", []uint32{0, 2, 4, 6, 8}, 10},
		{"everything", []uint32{0, 1, 2, 3}, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			roundTripMissing(t, haveAllBut(tt.total, tt.missing))
		})
	}
}

func TestRLECompression(t *testing.T) {
	// A contiguous run of 1000 missing chunks must encode tiny.
	missing := make([]uint32, 1000)
	for i := range missing {
		missing[i] = uint32(i + 10)
	}
	data := appendMissing(nil, haveAllBut(2000, missing))
	if len(data) > 16 {
		t.Errorf("run of 1000 encoded to %d bytes, want <= 16", len(data))
	}
}

func TestRLERejectsHostileInput(t *testing.T) {
	decode := func(w *encoding.Writer) error {
		return decodeMissing(encoding.NewReader(w.Bytes()), make([]bool, 8))
	}
	// Range beyond total.
	w := encoding.NewWriter(16)
	w.Uint32(1)
	w.Uint32(5)
	w.Uint32(10) // 5..14 but total is 8
	if decode(w) == nil {
		t.Error("out-of-bounds range accepted")
	}
	// Zero count.
	w2 := encoding.NewWriter(16)
	w2.Uint32(1)
	w2.Uint32(2)
	w2.Uint32(0)
	if decode(w2) == nil {
		t.Error("zero-count range accepted")
	}
	// More ranges than chunks.
	w3 := encoding.NewWriter(8)
	w3.Uint32(100)
	if decode(w3) == nil {
		t.Error("oversized range count accepted")
	}
	// Overlapping ranges that expand past the chunk count.
	w4 := encoding.NewWriter(32)
	w4.Uint32(2)
	for i := 0; i < 2; i++ {
		w4.Uint32(0)
		w4.Uint32(8)
	}
	if decode(w4) == nil {
		t.Error("ranges expanding past the chunk count accepted")
	}
	// Truncated.
	if decodeMissing(encoding.NewReader([]byte{0, 0}), make([]bool, 8)) == nil {
		t.Error("truncated input accepted")
	}
}

func TestRLEProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		have := make([]bool, 1+rng.Intn(500))
		for i := 0; i < rng.Intn(len(have)); i++ {
			have[rng.Intn(len(have))] = true
		}
		roundTripMissing(t, have)
	}
}

func TestFileMetaCodec(t *testing.T) {
	payload := appendFileMeta(nil, 7, 123456, 1200, 103)
	rev, size, cs, chunks, err := decodeFileMeta(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rev != 7 || size != 123456 || cs != 1200 || chunks != 103 {
		t.Errorf("got rev=%d size=%d cs=%d chunks=%d", rev, size, cs, chunks)
	}
	if _, _, _, _, err := decodeFileMeta(payload[:5]); err == nil {
		t.Error("truncated meta accepted")
	}
}

func TestChunkCodec(t *testing.T) {
	body := []byte{9, 8, 7, 6}
	payload := appendChunk(nil, 3, 14, 100, body)
	rev, index, total, data, err := decodeChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rev != 3 || index != 14 || total != 100 {
		t.Errorf("header rev=%d index=%d total=%d", rev, index, total)
	}
	if string(data) != string(body) {
		t.Errorf("body %v", data)
	}
	if _, _, _, _, err := decodeChunk(payload[:3]); err == nil {
		t.Error("truncated chunk accepted")
	}
}

func TestOfferChunking(t *testing.T) {
	data := make([]byte, 250)
	if n := chunkCount(len(data), 100); n != 3 {
		t.Fatalf("chunks = %d, want 3", n)
	}
	if a, b, c := chunkAt(data, 100, 0), chunkAt(data, 100, 1), chunkAt(data, 100, 2); len(a) != 100 || len(b) != 100 || len(c) != 50 {
		t.Errorf("chunk sizes %d,%d,%d", len(a), len(b), len(c))
	}
	// Exact multiple.
	data = make([]byte, 200)
	if n := chunkCount(len(data), 100); n != 2 || len(chunkAt(data, 100, 1)) != 100 {
		t.Errorf("exact multiple chunks wrong: %d", n)
	}
}
