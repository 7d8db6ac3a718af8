package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"uavmw/internal/presentation"
)

// AppendValue is the one binary encode walk: it validates v against t with
// the acceptance rules of presentation.Coerce — any Go integer width for any
// integer kind (range-checked), integers for float kinds, typed slices for
// sequences, every struct field present and none unknown — and appends the
// wire form straight onto dst, never building the canonical value. The
// result is byte-identical to Marshal(t, Coerce(t, v)) and fails exactly
// when Coerce fails, with the same presentation.ErrTypeMismatch class.
//
// It only ever appends: bytes already in dst are not modified, and on error
// dst is returned at its original length, so callers can write a header,
// append the value, and still own a well-formed buffer when the value is
// rejected. Scalars inside v are never retained and do not escape.
func AppendValue(dst []byte, t *presentation.Type, v any) ([]byte, error) {
	out, err := appendValue(dst, t, v)
	if err != nil {
		return dst, err
	}
	return out, nil
}

func appendValue(dst []byte, t *presentation.Type, v any) ([]byte, error) {
	switch t.Kind() {
	case presentation.KindVoid:
		if v != nil {
			return dst, encTypeErr(t, v)
		}
		return dst, nil
	case presentation.KindBool:
		b, ok := v.(bool)
		if !ok {
			return dst, encTypeErr(t, v)
		}
		if b {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case presentation.KindInt8, presentation.KindInt16, presentation.KindInt32, presentation.KindInt64:
		i, err := presentation.CoerceInt(t, v)
		if err != nil {
			return dst, err
		}
		return appendUint(dst, t.Kind(), uint64(i)), nil
	case presentation.KindUint8, presentation.KindUint16, presentation.KindUint32, presentation.KindUint64:
		u, err := presentation.CoerceUint(t, v)
		if err != nil {
			return dst, err
		}
		return appendUint(dst, t.Kind(), u), nil
	case presentation.KindFloat32:
		if f, ok := v.(float32); ok {
			// Not through float64: widening quiets a signalling NaN.
			return binary.BigEndian.AppendUint32(dst, math.Float32bits(f)), nil
		}
		f, err := presentation.CoerceFloat(t, v)
		if err != nil {
			return dst, err
		}
		return binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(f))), nil
	case presentation.KindFloat64:
		f, err := presentation.CoerceFloat(t, v)
		if err != nil {
			return dst, err
		}
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(f)), nil
	case presentation.KindString:
		s, ok := v.(string)
		if !ok {
			return dst, encTypeErr(t, v)
		}
		return append(binary.BigEndian.AppendUint32(dst, uint32(len(s))), s...), nil
	case presentation.KindBytes:
		b, ok := v.([]byte)
		if !ok {
			return dst, encTypeErr(t, v)
		}
		return append(binary.BigEndian.AppendUint32(dst, uint32(len(b))), b...), nil
	case presentation.KindArray, presentation.KindVector:
		// The spellings presentation.Coerce accepts for a sequence; the
		// fuzz equivalence test keeps the two lists in step.
		switch s := v.(type) {
		case []any:
			return appendElems(dst, t, s)
		case []bool:
			return appendElems(dst, t, s)
		case []int:
			return appendElems(dst, t, s)
		case []int8:
			return appendElems(dst, t, s)
		case []int16:
			return appendElems(dst, t, s)
		case []int32:
			return appendElems(dst, t, s)
		case []int64:
			return appendElems(dst, t, s)
		case []uint8:
			return appendElems(dst, t, s)
		case []uint16:
			return appendElems(dst, t, s)
		case []uint32:
			return appendElems(dst, t, s)
		case []uint64:
			return appendElems(dst, t, s)
		case []float32:
			return appendElems(dst, t, s)
		case []float64:
			return appendElems(dst, t, s)
		case []string:
			return appendElems(dst, t, s)
		case []map[string]any:
			return appendElems(dst, t, s)
		case []presentation.Union:
			return appendElems(dst, t, s)
		default:
			return dst, encTypeErr(t, v)
		}
	case presentation.KindStruct:
		m, ok := v.(map[string]any)
		if !ok {
			return dst, encTypeErr(t, v)
		}
		fields := t.Fields()
		for _, f := range fields {
			fv, present := m[f.Name]
			if !present {
				return dst, fmt.Errorf("encoding: missing field %q: %w", f.Name, presentation.ErrTypeMismatch)
			}
			var err error
			if dst, err = appendValue(dst, f.Type, fv); err != nil {
				return dst, fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
		if len(m) != len(fields) {
			for name := range m {
				if t.FieldIndex(name) < 0 {
					return dst, fmt.Errorf("encoding: unknown field %q: %w", name, presentation.ErrTypeMismatch)
				}
			}
		}
		return dst, nil
	case presentation.KindUnion:
		u, ok := v.(presentation.Union)
		if !ok {
			return dst, encTypeErr(t, v)
		}
		idx := t.CaseIndex(u.Case)
		if idx < 0 {
			return dst, fmt.Errorf("encoding: unknown case %q: %w", u.Case, presentation.ErrTypeMismatch)
		}
		dst, err := appendValue(binary.BigEndian.AppendUint32(dst, uint32(idx)), t.Cases()[idx].Type, u.Value)
		if err != nil {
			return dst, fmt.Errorf("case %q: %w", u.Case, err)
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("encoding: unknown kind %v: %w", t.Kind(), presentation.ErrInvalidType)
	}
}

// appendUint writes u (two's complement for the signed kinds) big-endian in
// the width of integer kind k.
func appendUint(dst []byte, k presentation.Kind, u uint64) []byte {
	switch k {
	case presentation.KindInt8, presentation.KindUint8:
		return append(dst, byte(u))
	case presentation.KindInt16, presentation.KindUint16:
		return binary.BigEndian.AppendUint16(dst, uint16(u))
	case presentation.KindInt32, presentation.KindUint32:
		return binary.BigEndian.AppendUint32(dst, uint32(u))
	default:
		return binary.BigEndian.AppendUint64(dst, u)
	}
}

// appendElems encodes one sequence spelling. Boxing e for the recursive
// call stays on the stack (appendValue does not let its operand escape), so
// typed slices cost no allocation per element.
func appendElems[T any](dst []byte, t *presentation.Type, s []T) ([]byte, error) {
	if t.Kind() == presentation.KindVector {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	} else if len(s) != t.Len() {
		return dst, fmt.Errorf("encoding: array wants %d elements, got %d: %w",
			t.Len(), len(s), presentation.ErrTypeMismatch)
	}
	elem := t.Elem()
	for i, e := range s {
		var err error
		if dst, err = appendValue(dst, elem, e); err != nil {
			return dst, fmt.Errorf("element %d: %w", i, err)
		}
	}
	return dst, nil
}

// encTypeErr names v's type through reflect.TypeOf rather than %T: the verb
// would make every operand of the walk escape to the heap.
func encTypeErr(t *presentation.Type, v any) error {
	return fmt.Errorf("encoding: cannot encode %v as %s: %w", reflect.TypeOf(v), t, presentation.ErrTypeMismatch)
}

// EncodeValue appends the wire form of v (of type t) to w through
// AppendValue; on error w is left as it was.
func EncodeValue(w *Writer, t *presentation.Type, v any) error {
	buf, err := AppendValue(w.buf, t, v)
	if err != nil {
		return err
	}
	w.buf = buf
	return nil
}

// DecodeValue reads one value of type t from r, returning it in canonical
// form. Errors are reported through both the return and r.Err().
func DecodeValue(r *Reader, t *presentation.Type) (any, error) {
	v := decodeValue(r, t)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

func decodeValue(r *Reader, t *presentation.Type) any {
	switch t.Kind() {
	case presentation.KindVoid:
		return nil
	case presentation.KindBool:
		return r.Bool()
	case presentation.KindInt8:
		return r.Int8()
	case presentation.KindInt16:
		return r.Int16()
	case presentation.KindInt32:
		return r.Int32()
	case presentation.KindInt64:
		return r.Int64()
	case presentation.KindUint8:
		return r.Uint8()
	case presentation.KindUint16:
		return r.Uint16()
	case presentation.KindUint32:
		return r.Uint32()
	case presentation.KindUint64:
		return r.Uint64()
	case presentation.KindFloat32:
		return r.Float32()
	case presentation.KindFloat64:
		return r.Float64()
	case presentation.KindString:
		return r.String()
	case presentation.KindBytes:
		return r.BytesCopy()
	case presentation.KindArray, presentation.KindVector:
		n := t.Len()
		if t.Kind() == presentation.KindVector {
			n = r.VectorLen()
		} else if n > r.Remaining() {
			// Every element takes at least one byte: fail before allocating.
			r.err = fmt.Errorf("encoding: array of %d exceeds remaining %d bytes: %w", n, r.Remaining(), ErrTruncated)
		}
		if r.Err() != nil {
			return nil
		}
		elem := t.Elem()
		var s slab
		if w := boxWidth(elem.Kind()); w > 0 && n >= 2 {
			s = newSlab(n * w)
		}
		out := make([]any, n)
		for i := range out {
			out[i] = decodeMember(r, elem, &s)
			if r.Err() != nil {
				return nil
			}
		}
		return out
	case presentation.KindStruct:
		fields := t.Fields()
		m := make(map[string]any, len(fields))
		var s slab
		if size, n := slabSize(fields); n >= 2 {
			s = newSlab(size)
		}
		for _, f := range fields {
			m[f.Name] = decodeMember(r, f.Type, &s)
			if r.Err() != nil {
				return nil
			}
		}
		return m
	case presentation.KindUnion:
		tag := r.Uint32()
		if r.Err() != nil {
			return nil
		}
		cases := t.Cases()
		if int(tag) >= len(cases) {
			r.err = fmt.Errorf("encoding: union tag %d out of %d cases: %w", tag, len(cases), ErrCorrupt)
			return nil
		}
		c := cases[tag]
		return presentation.Union{Case: c.Name, Value: decodeValue(r, c.Type)}
	default:
		r.err = fmt.Errorf("encoding: unknown kind %v: %w", t.Kind(), presentation.ErrInvalidType)
		return nil
	}
}

// boxWidth is the slab width of a scalar kind that costs an allocation to
// box, and 0 for every other kind: the runtime boxes u8, i8 and bool for
// free, and strings, bytes and composites never go in a slab.
func boxWidth(k presentation.Kind) int {
	switch k {
	case presentation.KindInt16, presentation.KindUint16:
		return 2
	case presentation.KindInt32, presentation.KindUint32, presentation.KindFloat32:
		return 4
	case presentation.KindInt64, presentation.KindUint64, presentation.KindFloat64:
		return 8
	}
	return 0
}

func alignUp(off, w int) int { return (off + w - 1) &^ (w - 1) }

// slabSize is the slab a struct's boxable fields fill, each at its natural
// alignment in field order, and how many of them there are.
func slabSize(fields []presentation.Field) (size, n int) {
	for _, f := range fields {
		if w := boxWidth(f.Type.Kind()); w > 0 {
			size = alignUp(size, w) + w
			n++
		}
	}
	return size, n
}

// decodeMember decodes one field or element of a composite: into the
// composite's slab when it has one and t is boxable, else as a value of its
// own. A struct with two or more boxable fields, and a sequence of two or
// more boxable elements, has a slab; a lone boxable scalar is boxed as
// usual, since a slab would cost the same one allocation.
func decodeMember(r *Reader, t *presentation.Type, s *slab) any {
	if s.base != nil && boxWidth(t.Kind()) > 0 {
		return s.box(r, t.Kind())
	}
	return decodeValue(r, t)
}

// Marshal encodes v into a fresh byte slice (see AppendValue for what it
// accepts).
func Marshal(t *presentation.Type, v any) ([]byte, error) {
	out, err := AppendValue(make([]byte, 0, 64), t, v)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Unmarshal decodes a full buffer into a canonical value, rejecting trailing
// bytes.
func Unmarshal(t *presentation.Type, data []byte) (any, error) {
	r := NewReader(data)
	v, err := DecodeValue(r, t)
	if err != nil {
		return nil, err
	}
	if err := r.ExpectEOF(); err != nil {
		return nil, err
	}
	return v, nil
}
