// Package ptest provides random type and value generators shared by the
// test suites of every package that handles presentation values (encoding,
// variables, events, rpc, core). Generators are deterministic given the
// caller's *rand.Rand.
package ptest

import (
	"math/rand"

	"uavmw/internal/presentation"
)

// RandomType builds a random valid descriptor with composite nesting up to
// depth.
func RandomType(r *rand.Rand, depth int) *presentation.Type {
	prims := []*presentation.Type{
		presentation.Bool(),
		presentation.Int8(), presentation.Int16(), presentation.Int32(), presentation.Int64(),
		presentation.Uint8(), presentation.Uint16(), presentation.Uint32(), presentation.Uint64(),
		presentation.Float32(), presentation.Float64(),
		presentation.String_(), presentation.Bytes(),
	}
	if depth <= 0 || r.Intn(100) < 50 {
		return prims[r.Intn(len(prims))]
	}
	switch r.Intn(4) {
	case 0:
		return presentation.ArrayOf(1+r.Intn(4), RandomType(r, depth-1))
	case 1:
		return presentation.VectorOf(RandomType(r, depth-1))
	case 2:
		n := 1 + r.Intn(4)
		fields := make([]presentation.Field, n)
		for i := range fields {
			fields[i] = presentation.F(memberName(i), RandomType(r, depth-1))
		}
		return presentation.StructOf(fields...)
	default:
		n := 1 + r.Intn(3)
		cases := make([]presentation.Case, n)
		for i := range cases {
			var ct *presentation.Type
			if r.Intn(2) == 0 {
				ct = RandomType(r, depth-1)
			}
			cases[i] = presentation.C(memberName(i), ct)
		}
		return presentation.UnionOf(cases...)
	}
}

func memberName(i int) string { return string(rune('a' + i)) }

// RandomValue builds a canonical value of typ.
func RandomValue(r *rand.Rand, typ *presentation.Type) any {
	switch typ.Kind() {
	case presentation.KindVoid:
		return nil
	case presentation.KindBool:
		return r.Intn(2) == 0
	case presentation.KindInt8:
		return int8(r.Intn(256) - 128)
	case presentation.KindInt16:
		return int16(r.Intn(1 << 16))
	case presentation.KindInt32:
		return int32(r.Uint32())
	case presentation.KindInt64:
		return int64(r.Uint64())
	case presentation.KindUint8:
		return uint8(r.Intn(256))
	case presentation.KindUint16:
		return uint16(r.Intn(1 << 16))
	case presentation.KindUint32:
		return r.Uint32()
	case presentation.KindUint64:
		return r.Uint64()
	case presentation.KindFloat32:
		return float32(r.NormFloat64())
	case presentation.KindFloat64:
		return r.NormFloat64()
	case presentation.KindString:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	case presentation.KindBytes:
		n := r.Intn(16)
		b := make([]byte, n)
		r.Read(b)
		return b
	case presentation.KindArray:
		out := make([]any, typ.Len())
		for i := range out {
			out[i] = RandomValue(r, typ.Elem())
		}
		return out
	case presentation.KindVector:
		out := make([]any, r.Intn(5))
		for i := range out {
			out[i] = RandomValue(r, typ.Elem())
		}
		return out
	case presentation.KindStruct:
		fields := typ.Fields()
		m := make(map[string]any, len(fields))
		for _, f := range fields {
			m[f.Name] = RandomValue(r, f.Type)
		}
		return m
	case presentation.KindUnion:
		cs := typ.Cases()
		c := cs[r.Intn(len(cs))]
		return presentation.Union{Case: c.Name, Value: RandomValue(r, c.Type)}
	default:
		return nil
	}
}

// PositionType and DetectionType carry the signatures of
// services.TypePosition and services.TypeDetection for the engine packages'
// tests, which cannot import services (it imports the engines). The golden
// test in internal/encoding pins them to the real descriptors.
var (
	PositionType  = presentation.MustParse("{lat:f64,lon:f64,alt:f32,speed:f32,heading:f32,fix:u8,wp:u32,complete:bool}")
	DetectionType = presentation.MustParse("{name:str,count:u32,x:u32,y:u32,score:f64}")
)

// PositionValue is one canonical PositionType sample.
func PositionValue() map[string]any {
	return map[string]any{
		"lat": 41.275, "lon": 1.987, "alt": float32(120), "speed": float32(25), "heading": float32(270),
		"fix": uint8(3), "wp": uint32(2), "complete": false,
	}
}
