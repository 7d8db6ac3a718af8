package encoding

import (
	"fmt"

	"uavmw/internal/presentation"
)

// Codec is a decoder compiled for one type. Compilation walks the
// descriptor once and builds a tree of closures, removing the per-value
// kind dispatch of the generic decode path (experiment E6 benches the two).
// Encoding has a single implementation, AppendValue; the codec's encode
// methods bind it to the compiled type.
type Codec struct {
	typ *presentation.Type
	dec decFunc
}

type decFunc func(r *Reader) any

// Compile builds a codec for t. The descriptor must validate.
func Compile(t *presentation.Type) (*Codec, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Codec{typ: t, dec: compile(t)}, nil
}

// MustCompile is Compile that panics on error, for static codec variables.
func MustCompile(t *presentation.Type) *Codec {
	c, err := Compile(t)
	if err != nil {
		panic(err)
	}
	return c
}

// Type returns the descriptor the codec was compiled from.
func (c *Codec) Type() *presentation.Type { return c.typ }

// Encode appends the wire form of v to w.
func (c *Codec) Encode(w *Writer, v any) error { return EncodeValue(w, c.typ, v) }

// Decode reads one canonical value from r.
func (c *Codec) Decode(r *Reader) (any, error) {
	v := c.dec(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// Marshal encodes into a fresh byte slice.
func (c *Codec) Marshal(v any) ([]byte, error) { return Marshal(c.typ, v) }

// Unmarshal decodes a full buffer, rejecting trailing bytes.
func (c *Codec) Unmarshal(data []byte) (any, error) {
	r := NewReader(data)
	v := c.dec(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := r.ExpectEOF(); err != nil {
		return nil, err
	}
	return v, nil
}

func compile(t *presentation.Type) decFunc {
	switch t.Kind() {
	case presentation.KindVoid:
		return func(r *Reader) any { return nil }
	case presentation.KindBool:
		return scalarDec((*Reader).Bool)
	case presentation.KindInt8:
		return scalarDec((*Reader).Int8)
	case presentation.KindInt16:
		return scalarDec((*Reader).Int16)
	case presentation.KindInt32:
		return scalarDec((*Reader).Int32)
	case presentation.KindInt64:
		return scalarDec((*Reader).Int64)
	case presentation.KindUint8:
		return scalarDec((*Reader).Uint8)
	case presentation.KindUint16:
		return scalarDec((*Reader).Uint16)
	case presentation.KindUint32:
		return scalarDec((*Reader).Uint32)
	case presentation.KindUint64:
		return scalarDec((*Reader).Uint64)
	case presentation.KindFloat32:
		return scalarDec((*Reader).Float32)
	case presentation.KindFloat64:
		return scalarDec((*Reader).Float64)
	case presentation.KindString:
		return scalarDec((*Reader).String)
	case presentation.KindBytes:
		return scalarDec((*Reader).BytesCopy)
	case presentation.KindArray:
		elemDec := compile(t.Elem())
		n := t.Len()
		return func(r *Reader) any {
			out := make([]any, n)
			for i := range out {
				out[i] = elemDec(r)
				if r.err != nil {
					return nil
				}
			}
			return out
		}
	case presentation.KindVector:
		elemDec := compile(t.Elem())
		return func(r *Reader) any {
			n := r.VectorLen()
			if r.err != nil {
				return nil
			}
			out := make([]any, n)
			for i := range out {
				out[i] = elemDec(r)
				if r.err != nil {
					return nil
				}
			}
			return out
		}
	case presentation.KindStruct:
		fields := t.Fields()
		names := make([]string, len(fields))
		decs := make([]decFunc, len(fields))
		for i, f := range fields {
			names[i] = f.Name
			decs[i] = compile(f.Type)
		}
		return func(r *Reader) any {
			m := make(map[string]any, len(names))
			for i, name := range names {
				m[name] = decs[i](r)
				if r.err != nil {
					return nil
				}
			}
			return m
		}
	case presentation.KindUnion:
		cases := t.Cases()
		names := make([]string, len(cases))
		decs := make([]decFunc, len(cases))
		for i, c := range cases {
			names[i] = c.Name
			decs[i] = compile(c.Type)
		}
		return func(r *Reader) any {
			tag := r.Uint32()
			if r.err != nil {
				return nil
			}
			if int(tag) >= len(names) {
				r.err = fmt.Errorf("encoding: union tag %d out of %d cases: %w", tag, len(names), ErrCorrupt)
				return nil
			}
			return presentation.Union{Case: names[tag], Value: decs[tag](r)}
		}
	default:
		// Unreachable after Validate; keep a defensive failure.
		return func(r *Reader) any {
			r.err = fmt.Errorf("encoding: unknown kind %v: %w", t.Kind(), presentation.ErrInvalidType)
			return nil
		}
	}
}

// scalarDec adapts a Reader method to a decFunc.
func scalarDec[T any](read func(*Reader) T) decFunc {
	return func(r *Reader) any { return read(r) }
}
