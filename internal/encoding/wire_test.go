package encoding

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestWriterReaderScalars(t *testing.T) {
	w := NewWriter(64)
	w.Bool(true)
	w.Bool(false)
	w.Int8(-5)
	w.Int16(-300)
	w.Int32(-70000)
	w.Int64(math.MinInt64)
	w.Uint8(200)
	w.Uint16(60000)
	w.Uint32(4000000000)
	w.Uint64(math.MaxUint64)
	w.Float32(1.5)
	w.Float64(-2.25)
	w.String("hola")
	w.Bytes_([]byte{9, 8, 7})

	r := NewReader(w.Bytes())
	if !r.Bool() || r.Bool() {
		t.Error("bool round trip failed")
	}
	if got := r.Int8(); got != -5 {
		t.Errorf("int8 = %d", got)
	}
	if got := r.Int16(); got != -300 {
		t.Errorf("int16 = %d", got)
	}
	if got := r.Int32(); got != -70000 {
		t.Errorf("int32 = %d", got)
	}
	if got := r.Int64(); got != math.MinInt64 {
		t.Errorf("int64 = %d", got)
	}
	if got := r.Uint8(); got != 200 {
		t.Errorf("uint8 = %d", got)
	}
	if got := r.Uint16(); got != 60000 {
		t.Errorf("uint16 = %d", got)
	}
	if got := r.Uint32(); got != 4000000000 {
		t.Errorf("uint32 = %d", got)
	}
	if got := r.Uint64(); got != math.MaxUint64 {
		t.Errorf("uint64 = %d", got)
	}
	if got := r.Float32(); got != 1.5 {
		t.Errorf("float32 = %v", got)
	}
	if got := r.Float64(); got != -2.25 {
		t.Errorf("float64 = %v", got)
	}
	if got := r.String(); got != "hola" {
		t.Errorf("string = %q", got)
	}
	b := r.BytesCopy()
	if len(b) != 3 || b[0] != 9 {
		t.Errorf("bytes = %v", b)
	}
	if err := r.ExpectEOF(); err != nil {
		t.Errorf("ExpectEOF: %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter(16)
	w.Uint32(7)
	data := w.Bytes()

	r := NewReader(data[:2])
	r.Uint32()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("want ErrTruncated, got %v", r.Err())
	}
	// Error is sticky; further reads return zero without panicking.
	if got := r.Uint64(); got != 0 {
		t.Errorf("read after error = %d", got)
	}
	if r.Uint8() != 0 || r.String() != "" || r.BytesCopy() != nil {
		t.Error("sticky error must zero all reads")
	}
}

func TestReaderStringTruncated(t *testing.T) {
	w := NewWriter(16)
	w.String("hello")
	data := w.Bytes()
	r := NewReader(data[:6]) // prefix says 5 but only 2 payload bytes present
	_ = r.String()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("want ErrTruncated, got %v", r.Err())
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Uint8()
	if err := r.ExpectEOF(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("want ErrCorrupt, got %v", err)
	}
}

func TestReaderOversizedPrefixes(t *testing.T) {
	// A length prefix far beyond the buffer must fail without allocating.
	w := NewWriter(8)
	w.Uint32(0xFFFFFFF0)
	r := NewReader(w.Bytes())
	_ = r.String()
	if r.Err() == nil {
		t.Error("oversized string prefix must fail")
	}

	r2 := NewReader(w.Bytes())
	_ = r2.VectorLen()
	if r2.Err() == nil {
		t.Error("oversized vector prefix must fail")
	}
}

func TestReaderRaw(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4})
	b := r.Raw(2)
	if len(b) != 2 || b[1] != 2 {
		t.Errorf("Raw = %v", b)
	}
	if r.Remaining() != 2 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	if r.Raw(-1) != nil || r.Err() == nil {
		t.Error("negative Raw must fail")
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uint64(1)
	if w.Len() != 8 {
		t.Fatalf("Len = %d", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.Uint8(5)
	if w.Bytes()[0] != 5 {
		t.Error("write after Reset broken")
	}
}

func TestReaderPos(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 1, 2})
	r.Uint32()
	if r.Pos() != 4 {
		t.Errorf("Pos = %d", r.Pos())
	}
}

func TestReaderUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 32, 1 << 63, math.MaxUint64} {
		raw := binary.AppendUvarint(nil, v)
		if n := UvarintLen(v); n != len(raw) {
			t.Errorf("UvarintLen(%d) = %d, encoding is %d bytes", v, n, len(raw))
		}
		r := NewReader(raw)
		if got := r.Uvarint(); got != v || r.ExpectEOF() != nil {
			t.Errorf("uvarint %d read back as %d (err %v)", v, got, r.Err())
		}
		if allocs := testing.AllocsPerRun(100, func() { NewReader(raw).Uvarint() }); allocs != 0 {
			t.Errorf("uvarint %d: %v allocs", v, allocs)
		}
	}
	for _, c := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"dangling continuation", []byte{0x80}, ErrTruncated},
		{"overlong zero", []byte{0x80, 0x00}, ErrCorrupt},
		{"overlong one", []byte{0x81, 0x80, 0x00}, ErrCorrupt},
		{"65 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, ErrCorrupt},
		{"11 bytes", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00}, ErrCorrupt},
	} {
		r := NewReader(c.raw)
		if got := r.Uvarint(); got != 0 || !errors.Is(r.Err(), c.want) {
			t.Errorf("%s: got %d, err %v; want %v", c.name, got, r.Err(), c.want)
		}
	}
}
