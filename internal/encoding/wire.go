// Package encoding implements the PEPt "Encoding" subsystem (§6 of the
// paper): the representation of presentation-layer data on the wire.
//
// The default wire format is a compact big-endian binary encoding in the
// spirit of CDR: fixed-width scalars, u32 length prefixes for strings, byte
// sequences and vectors, struct fields in declaration order, and a u32 case
// tag for unions. The package also provides an alternative self-describing
// debug encoding to demonstrate PEPt pluggability (F4).
//
// Decoding has exactly one implementation, DecodeValue; Unmarshal and
// Codec.Decode/Unmarshal are entry points onto it. It accepts one wire form
// per value, so every input it accepts re-encodes byte for byte
// (FuzzUnmarshal), and it lays the boxable scalars of a struct or sequence
// in one allocation (slab.go). Encoding likewise has
// exactly one, AppendValue: a single walk that validates the caller's value
// against the type with presentation.Coerce's acceptance rules and appends
// the wire form onto a caller-owned buffer. Marshal, EncodeValue and
// Codec.Encode are entry points onto it. Publish
// paths reach it through the optional Appender capability of an Encoding,
// whose contract is:
//
//   - append-only: bytes already in dst are never modified, so a publish
//     site writes its header first and the value straight behind it;
//   - truncate on error: a rejected value returns dst at its original
//     length, header intact;
//   - accepts exactly what presentation.Coerce accepts, rejects the rest
//     with the same error class, and produces the bytes Marshal would for
//     the coerced value (FuzzAppendMatchesCoerceMarshal).
//
// ValueEncoder resolves the capability once per engine and falls back to
// Coerce + Marshal for an Encoding that lacks it.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Limits protect receivers from hostile or corrupt length prefixes.
const (
	// MaxSequenceLen bounds decoded string/bytes/vector lengths.
	MaxSequenceLen = 64 << 20
)

// Sentinel errors for decode failures.
var (
	// ErrTruncated reports input shorter than the format requires.
	ErrTruncated = errors.New("truncated input")
	// ErrCorrupt reports structurally invalid input (bad tag, oversized
	// length prefix, trailing bytes).
	ErrCorrupt = errors.New("corrupt input")
)

// Writer appends big-endian primitives to a byte slice. The zero value is
// ready to use; Use Reset to reuse the buffer across messages.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity preallocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Reset truncates the buffer, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Len reports the bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Bytes returns the accumulated buffer. The slice aliases the writer's
// storage; callers that retain it across Reset must copy.
func (w *Writer) Bytes() []byte { return w.buf }

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Uint8 writes one byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Uint16 writes two big-endian bytes.
func (w *Writer) Uint16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// Uint32 writes four big-endian bytes.
func (w *Writer) Uint32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// Uint64 writes eight big-endian bytes.
func (w *Writer) Uint64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Int8 writes one byte, two's complement.
func (w *Writer) Int8(v int8) { w.Uint8(uint8(v)) }

// Int16 writes two bytes, two's complement.
func (w *Writer) Int16(v int16) { w.Uint16(uint16(v)) }

// Int32 writes four bytes, two's complement.
func (w *Writer) Int32(v int32) { w.Uint32(uint32(v)) }

// Int64 writes eight bytes, two's complement.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Float32 writes an IEEE-754 single.
func (w *Writer) Float32(v float32) { w.Uint32(math.Float32bits(v)) }

// Float64 writes an IEEE-754 double.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// String writes a u32 length prefix then the raw bytes.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes_ writes a u32 length prefix then the raw bytes. (Named with a
// trailing underscore because Bytes returns the buffer.)
func (w *Writer) Bytes_(b []byte) {
	w.Uint32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader consumes big-endian primitives from a byte slice. It accumulates
// the first error; once failed, every subsequent read returns zero values,
// so call Err once after a batch of reads.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a reader over data. The reader does not copy; the caller
// must not mutate data while reading.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// Pos reports the current offset.
func (r *Reader) Pos() int { return r.pos }

// ExpectEOF sets ErrCorrupt if unread bytes remain.
func (r *Reader) ExpectEOF() error {
	if r.err == nil && r.pos != len(r.data) {
		r.err = fmt.Errorf("encoding: %d trailing bytes: %w", len(r.data)-r.pos, ErrCorrupt)
	}
	return r.err
}

func (r *Reader) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if r.pos+n > len(r.data) {
		r.err = fmt.Errorf("encoding: need %d bytes at %d of %d: %w", n, r.pos, len(r.data), ErrTruncated)
		return true
	}
	return false
}

// Bool reads one byte, which must be 0 or 1: any other byte is ErrCorrupt,
// so that every bool has exactly one wire form.
func (r *Reader) Bool() bool {
	b := r.Uint8()
	if b > 1 {
		r.err = fmt.Errorf("encoding: bool byte %#x: %w", b, ErrCorrupt)
	}
	return b == 1
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

// Uint16 reads two big-endian bytes.
func (r *Reader) Uint16() uint16 {
	if r.fail(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v
}

// Uint32 reads four big-endian bytes.
func (r *Reader) Uint32() uint32 {
	if r.fail(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

// Uint64 reads eight big-endian bytes.
func (r *Reader) Uint64() uint64 {
	if r.fail(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

// Uvarint reads an unsigned LEB128 varint (encoding/binary's Uvarint form)
// of at most ten bytes. Only the shortest encoding of a value is accepted:
// a final byte of zero after a continuation byte, or a value beyond 64
// bits, is ErrCorrupt, so every value has exactly one wire form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if r.pos >= len(r.data) {
			r.err = fmt.Errorf("encoding: uvarint at %d of %d: %w", r.pos, len(r.data), ErrTruncated)
			return 0
		}
		b := r.data[r.pos]
		r.pos++
		if b < 0x80 {
			switch {
			case i > 0 && b == 0:
				r.err = fmt.Errorf("encoding: overlong uvarint ending at %d: %w", r.pos, ErrCorrupt)
				return 0
			case i == binary.MaxVarintLen64-1 && b > 1:
				r.err = fmt.Errorf("encoding: uvarint overflows 64 bits at %d: %w", r.pos, ErrCorrupt)
				return 0
			}
			return v | uint64(b)<<(7*i)
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	r.err = fmt.Errorf("encoding: uvarint longer than %d bytes at %d: %w", binary.MaxVarintLen64, r.pos, ErrCorrupt)
	return 0
}

// UvarintLen returns the length of v's uvarint encoding, 1 to 10 bytes.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Int8 reads one byte, two's complement.
func (r *Reader) Int8() int8 { return int8(r.Uint8()) }

// Int16 reads two bytes, two's complement.
func (r *Reader) Int16() int16 { return int16(r.Uint16()) }

// Int32 reads four bytes, two's complement.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Int64 reads eight bytes, two's complement.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float32 reads an IEEE-754 single.
func (r *Reader) Float32() float32 { return math.Float32frombits(r.Uint32()) }

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// seqLen reads and sanity-checks a u32 length prefix.
func (r *Reader) seqLen() int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if n > MaxSequenceLen {
		r.err = fmt.Errorf("encoding: sequence length %d exceeds %d: %w", n, MaxSequenceLen, ErrCorrupt)
		return 0
	}
	if int(n) > r.Remaining() {
		// A length prefix larger than the remaining input is corrupt
		// regardless of element width; fail early with a clear error.
		r.err = fmt.Errorf("encoding: sequence length %d exceeds remaining %d bytes: %w", n, r.Remaining(), ErrTruncated)
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.seqLen()
	if r.err != nil || r.fail(n) {
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// RawBytes reads a u32 length-prefixed byte sequence without copying. The
// result aliases the input; callers that retain it must copy. It applies
// the same length sanity checks as String/BytesCopy but allocates nothing,
// which is what the zero-allocation frame decode path needs.
func (r *Reader) RawBytes() []byte {
	n := r.seqLen()
	if r.err != nil || r.fail(n) {
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// BytesCopy reads a length-prefixed byte sequence into fresh storage.
func (r *Reader) BytesCopy() []byte {
	n := r.seqLen()
	if r.err != nil || r.fail(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[r.pos:])
	r.pos += n
	return out
}

// Raw reads n bytes without copying. The result aliases the input.
func (r *Reader) Raw(n int) []byte {
	if n < 0 {
		r.err = fmt.Errorf("encoding: negative raw length %d: %w", n, ErrCorrupt)
		return nil
	}
	if r.fail(n) {
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// VectorLen reads a u32 element-count prefix for vectors, bounding it by the
// remaining input (each element takes at least one byte).
func (r *Reader) VectorLen() int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if n > MaxSequenceLen {
		r.err = fmt.Errorf("encoding: vector length %d exceeds %d: %w", n, MaxSequenceLen, ErrCorrupt)
		return 0
	}
	if int(n) > r.Remaining() {
		// Every element encodes to at least one byte, so an element
		// count beyond the remaining input is corrupt; rejecting here
		// prevents huge speculative allocations.
		r.err = fmt.Errorf("encoding: vector length %d exceeds remaining %d bytes: %w", n, r.Remaining(), ErrTruncated)
		return 0
	}
	return int(n)
}
