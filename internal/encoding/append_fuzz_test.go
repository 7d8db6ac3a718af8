package encoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"uavmw/internal/presentation"
)

// referenceMarshal is the test's independent encoder: the strict walk over
// canonical values, written against Writer only. AppendValue must agree
// with it on Coerce's output for every input.
func referenceMarshal(t *presentation.Type, v any) []byte {
	w := NewWriter(64)
	referenceEncode(w, t, v)
	return w.Bytes()
}

func referenceEncode(w *Writer, t *presentation.Type, v any) {
	switch t.Kind() {
	case presentation.KindVoid:
	case presentation.KindBool:
		w.Bool(v.(bool))
	case presentation.KindInt8:
		w.Int8(v.(int8))
	case presentation.KindInt16:
		w.Int16(v.(int16))
	case presentation.KindInt32:
		w.Int32(v.(int32))
	case presentation.KindInt64:
		w.Int64(v.(int64))
	case presentation.KindUint8:
		w.Uint8(v.(uint8))
	case presentation.KindUint16:
		w.Uint16(v.(uint16))
	case presentation.KindUint32:
		w.Uint32(v.(uint32))
	case presentation.KindUint64:
		w.Uint64(v.(uint64))
	case presentation.KindFloat32:
		w.Float32(v.(float32))
	case presentation.KindFloat64:
		w.Float64(v.(float64))
	case presentation.KindString:
		w.String(v.(string))
	case presentation.KindBytes:
		w.Bytes_(v.([]byte))
	case presentation.KindArray, presentation.KindVector:
		s := v.([]any)
		if t.Kind() == presentation.KindVector {
			w.Uint32(uint32(len(s)))
		}
		for _, e := range s {
			referenceEncode(w, t.Elem(), e)
		}
	case presentation.KindStruct:
		m := v.(map[string]any)
		for _, f := range t.Fields() {
			referenceEncode(w, f.Type, m[f.Name])
		}
	case presentation.KindUnion:
		u := v.(presentation.Union)
		idx := t.CaseIndex(u.Case)
		w.Uint32(uint32(idx))
		referenceEncode(w, t.Cases()[idx].Type, u.Value)
	}
}

// spellings drives value generation from the fuzzer's bytes: every node of
// the type draws a mode byte that picks a canonical value, a coercible Go
// spelling, or one of the shapes Coerce must reject.
type spellings struct {
	data  []byte
	nodes int
}

func (s *spellings) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *spellings) u64() uint64 {
	var raw [8]byte
	copy(raw[:], s.data)
	s.data = s.data[min(8, len(s.data)):]
	return binary.LittleEndian.Uint64(raw[:])
}

// maxNodes bounds one generated value; nested arrays multiply quickly.
const maxNodes = 4096

func (s *spellings) value(t *presentation.Type) any {
	if s.nodes++; s.nodes > maxNodes {
		return nil
	}
	mode := s.byte()
	switch k := t.Kind(); k {
	case presentation.KindVoid:
		if mode%16 == 15 {
			return 1
		}
		return nil
	case presentation.KindBool:
		if mode%8 == 7 {
			return "true"
		}
		return mode&1 == 1
	case presentation.KindInt8, presentation.KindInt16, presentation.KindInt32, presentation.KindInt64,
		presentation.KindUint8, presentation.KindUint16, presentation.KindUint32, presentation.KindUint64:
		raw := s.u64()
		switch mode % 10 {
		case 0:
			return int(raw) // any width, possibly out of range
		case 1:
			return raw
		case 2:
			return int64(raw)
		case 3:
			return int8(raw)
		case 4:
			return uint16(raw)
		case 5:
			return int32(raw)
		case 6:
			return float64(raw) // floats are not integers
		case 7:
			return "7"
		default:
			return canonicalInt(k, raw)
		}
	case presentation.KindFloat32, presentation.KindFloat64:
		raw := s.u64()
		switch mode % 8 {
		case 0:
			return math.Float32frombits(uint32(raw))
		case 1:
			return int(raw)
		case 2:
			return raw // above MaxInt64 is rejected
		case 3:
			return uint8(raw)
		case 4:
			return "1.5"
		case 5:
			return math.NaN()
		default:
			if k == presentation.KindFloat32 {
				return math.Float32frombits(uint32(raw))
			}
			return math.Float64frombits(raw)
		}
	case presentation.KindString:
		switch mode % 8 {
		case 6:
			return []byte("bytes")
		case 7:
			return 3
		default:
			return string(s.take(int(mode) % 24))
		}
	case presentation.KindBytes:
		switch mode % 8 {
		case 6:
			return "str"
		case 7:
			return []any{uint8(1)}
		default:
			return s.take(int(mode) % 24)
		}
	case presentation.KindArray, presentation.KindVector:
		n := int(s.byte()) % 5
		if k == presentation.KindArray {
			n = t.Len()
			switch mode % 16 {
			case 14:
				n--
			case 15:
				n++
			}
		}
		switch mode % 16 {
		case 12:
			return 42
		case 13:
			return nil
		}
		elems := make([]any, 0, min(n, maxNodes))
		for i := 0; i < n && s.nodes <= maxNodes; i++ {
			elems = append(elems, s.value(t.Elem()))
		}
		if mode&1 == 0 {
			return typedSlice(elems)
		}
		return elems
	case presentation.KindStruct:
		if mode%16 == 15 {
			return []any{}
		}
		m := make(map[string]any)
		for i, f := range t.Fields() {
			if mode%16 == 14 && i == int(mode>>4)%len(t.Fields()) {
				continue // missing field
			}
			m[f.Name] = s.value(f.Type)
		}
		if mode%16 == 13 {
			m["no such field"] = 1
		}
		return m
	default: // union
		cases := t.Cases()
		c := cases[int(s.byte())%len(cases)]
		switch mode % 16 {
		case 14:
			return presentation.Union{Case: c.Name + "?", Value: nil}
		case 15:
			return map[string]any{"Case": c.Name}
		}
		return presentation.Union{Case: c.Name, Value: s.value(c.Type)}
	}
}

func (s *spellings) take(n int) []byte {
	n = min(n, len(s.data))
	out := s.data[:n:n]
	s.data = s.data[n:]
	return out
}

// canonicalInt truncates raw to the canonical Go type of integer kind k.
func canonicalInt(k presentation.Kind, raw uint64) any {
	switch k {
	case presentation.KindInt8:
		return int8(raw)
	case presentation.KindInt16:
		return int16(raw)
	case presentation.KindInt32:
		return int32(raw)
	case presentation.KindInt64:
		return int64(raw)
	case presentation.KindUint8:
		return uint8(raw)
	case presentation.KindUint16:
		return uint16(raw)
	case presentation.KindUint32:
		return uint32(raw)
	default:
		return raw
	}
}

// typedSlice respells a []any whose elements share one Go type as the
// matching typed slice, the form a service programmer would pass.
func typedSlice(elems []any) any {
	if len(elems) == 0 {
		return []float64{}
	}
	switch elems[0].(type) {
	case bool:
		return retype[bool](elems)
	case int:
		return retype[int](elems)
	case int8:
		return retype[int8](elems)
	case int16:
		return retype[int16](elems)
	case int32:
		return retype[int32](elems)
	case int64:
		return retype[int64](elems)
	case uint8:
		return retype[uint8](elems)
	case uint16:
		return retype[uint16](elems)
	case uint32:
		return retype[uint32](elems)
	case uint64:
		return retype[uint64](elems)
	case float32:
		return retype[float32](elems)
	case float64:
		return retype[float64](elems)
	case string:
		return retype[string](elems)
	case map[string]any:
		return retype[map[string]any](elems)
	case presentation.Union:
		return retype[presentation.Union](elems)
	default:
		return elems
	}
}

func retype[T any](elems []any) any {
	out := make([]T, len(elems))
	for i, e := range elems {
		x, ok := e.(T)
		if !ok {
			return elems
		}
		out[i] = x
	}
	return out
}

// fuzzSignatures and fuzzData seed both fuzz targets of the value walks.
var (
	fuzzSignatures = []string{
		"bool", "i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64", "f32", "f64", "str", "bytes",
		"[3]u16", "[]f64", "[]str", "[2][]i8", "[]{a:u8,b:str}", "[]<p:void,d:f32>",
		"{lat:f64,lon:f64,alt:f32,speed:f32,heading:f32,fix:u8,wp:u32,complete:bool}",
		"{name:str,count:u32,x:u32,y:u32,score:f64}",
		"{hdr:{seq:u64,tags:[]str},body:<none:void,raw:bytes,pt:{x:i32,y:i32}>,hist:[4]f32}",
		"<ping:void,data:{seq:u32,body:bytes},list:[]i64>",
	}
	fuzzData = [][]byte{
		nil,
		{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		bytes.Repeat([]byte{0xff}, 64),
		bytes.Repeat([]byte{1, 0, 0x80, 0x7f, 13, 14, 15, 6, 7}, 12),
		bytes.Repeat([]byte{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}, 10),
	}
)

// FuzzAppendMatchesCoerceMarshal pins the Appender contract of the one
// encode walk against the two-pass path it replaced: same bytes as the
// reference encoding of Coerce's output, an error exactly when Coerce
// errors and of the same class, and an untouched dst on failure.
func FuzzAppendMatchesCoerceMarshal(f *testing.F) {
	for _, sig := range fuzzSignatures {
		for _, data := range fuzzData {
			f.Add(sig, data)
		}
	}
	f.Fuzz(func(t *testing.T, sig string, data []byte) {
		typ, err := presentation.Parse(sig)
		if err != nil {
			t.Skip()
		}
		gen := &spellings{data: data}
		v := gen.value(typ)
		if gen.nodes > maxNodes {
			t.Skip()
		}

		prefix := []byte("sample-header:")
		dst := append(make([]byte, 0, len(prefix)+8), prefix...)
		out, aerr := AppendValue(dst, typ, v)
		cv, cerr := presentation.Coerce(typ, v)

		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("bytes already in dst were modified: %q", out[:len(prefix)])
		}
		if cerr != nil {
			if aerr == nil {
				t.Fatalf("%s: Coerce rejects %#v (%v), AppendValue accepts it", typ, v, cerr)
			}
			if errors.Is(aerr, presentation.ErrTypeMismatch) != errors.Is(cerr, presentation.ErrTypeMismatch) {
				t.Fatalf("%s: error class differs: append %v, coerce %v", typ, aerr, cerr)
			}
			if len(out) != len(prefix) {
				t.Fatalf("%s: dst returned at length %d after an error, want %d", typ, len(out), len(prefix))
			}
			return
		}
		if aerr != nil {
			t.Fatalf("%s: Coerce accepts %#v, AppendValue rejects it: %v", typ, v, aerr)
		}
		if want := referenceMarshal(typ, cv); !bytes.Equal(out[len(prefix):], want) {
			t.Fatalf("%s %#v:\n append %x\n want   %x", typ, v, out[len(prefix):], want)
		}
		back, err := Unmarshal(typ, out[len(prefix):])
		if err != nil {
			t.Fatalf("%s: appended bytes do not decode: %v", typ, err)
		}
		if !presentation.EqualValues(cv, back) {
			t.Fatalf("%s: decoded %#v, coerced %#v", typ, back, cv)
		}
	})
}
