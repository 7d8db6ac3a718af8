package presentation

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestCheckCanonical(t *testing.T) {
	gps := gpsPosition()
	good := map[string]any{"lat": 41.3, "lon": 2.1, "alt": float32(120.5), "fix": uint8(3)}
	if err := Check(gps, good); err != nil {
		t.Fatalf("canonical value rejected: %v", err)
	}
	tests := []struct {
		name string
		typ  *Type
		v    any
	}{
		{"wrong scalar", Float64(), float32(1)},
		{"int for bool", Bool(), 1},
		{"missing field", gps, map[string]any{"lat": 41.3}},
		{"extra field", gps, map[string]any{"lat": 41.3, "lon": 2.1, "alt": float32(1), "fix": uint8(0), "zz": 1}},
		{"wrong field type", gps, map[string]any{"lat": 41.3, "lon": 2.1, "alt": 120.5, "fix": uint8(3)}},
		{"array len", ArrayOf(2, Int8()), []any{int8(1)}},
		{"vector elem", VectorOf(Int8()), []any{int8(1), "x"}},
		{"not slice", VectorOf(Int8()), 7},
		{"union unknown case", UnionOf(C("a", nil)), Union{Case: "b"}},
		{"union payload", UnionOf(C("a", Int8())), Union{Case: "a", Value: "str"}},
		{"void with payload", UnionOf(C("a", nil)), Union{Case: "a", Value: 1}},
		{"not a union", UnionOf(C("a", nil)), 9},
		{"not a struct", gps, []any{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Check(tt.typ, tt.v)
			if err == nil {
				t.Fatal("expected mismatch")
			}
			if !errors.Is(err, ErrTypeMismatch) {
				t.Errorf("error %v must wrap ErrTypeMismatch", err)
			}
		})
	}
}

func TestCoerceScalars(t *testing.T) {
	tests := []struct {
		name string
		typ  *Type
		in   any
		want any
	}{
		{"int to i32", Int32(), 42, int32(42)},
		{"int to i64", Int64(), 42, int64(42)},
		{"int8 widen to i64", Int64(), int8(-5), int64(-5)},
		{"uint to u8", Uint8(), uint(200), uint8(200)},
		{"int to u16", Uint16(), 70, uint16(70)},
		{"int to f64", Float64(), 3, float64(3)},
		{"f32 to f64", Float64(), float32(1.5), float64(1.5)},
		{"f64 to f32", Float32(), 2.5, float32(2.5)},
		{"bool", Bool(), true, true},
		{"string", String_(), "hi", "hi"},
		{"u64 max", Uint64(), uint64(math.MaxUint64), uint64(math.MaxUint64)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Coerce(tt.typ, tt.in)
			if err != nil {
				t.Fatalf("Coerce: %v", err)
			}
			if got != tt.want {
				t.Errorf("Coerce = %#v, want %#v", got, tt.want)
			}
			if err := Check(tt.typ, got); err != nil {
				t.Errorf("coerced value not canonical: %v", err)
			}
		})
	}
}

func TestCoerceRangeErrors(t *testing.T) {
	tests := []struct {
		name string
		typ  *Type
		in   any
	}{
		{"i8 overflow", Int8(), 300},
		{"i8 underflow", Int8(), -300},
		{"i16 overflow", Int16(), 1 << 20},
		{"i32 overflow", Int32(), int64(1) << 40},
		{"u8 overflow", Uint8(), 256},
		{"u16 overflow", Uint16(), 1 << 17},
		{"u32 overflow", Uint32(), int64(1) << 35},
		{"negative to uint", Uint32(), -1},
		{"u64 too big for i64", Int64(), uint64(math.MaxUint64)},
		{"string to int", Int32(), "5"},
		{"bool to float", Float64(), true},
		{"nil to string", String_(), nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Coerce(tt.typ, tt.in); err == nil {
				t.Error("expected coercion failure")
			}
		})
	}
}

func TestCoerceSequences(t *testing.T) {
	vec := VectorOf(Float64())
	got, err := Coerce(vec, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("Coerce []float64: %v", err)
	}
	if err := Check(vec, got); err != nil {
		t.Fatalf("not canonical: %v", err)
	}
	if s := got.([]any); len(s) != 3 || s[2] != float64(3) {
		t.Errorf("got %#v", got)
	}

	// []int into []i32 with range checks.
	veci := VectorOf(Int32())
	if _, err := Coerce(veci, []int{1, int(math.MaxInt64 & 0x7fffffffffff)}); err == nil {
		t.Error("out-of-range element must fail")
	}

	// [3]f32 from []float64.
	arr := ArrayOf(3, Float32())
	got, err = Coerce(arr, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("Coerce to array: %v", err)
	}
	if err := Check(arr, got); err != nil {
		t.Fatalf("not canonical: %v", err)
	}
	if _, err := Coerce(arr, []float64{1, 2}); err == nil {
		t.Error("short array must fail")
	}

	// Vector of u8 accepts []byte.
	vb := VectorOf(Uint8())
	got, err = Coerce(vb, []byte{1, 2})
	if err != nil {
		t.Fatalf("Coerce []byte to []u8: %v", err)
	}
	if err := Check(vb, got); err != nil {
		t.Fatalf("not canonical: %v", err)
	}
}

func TestCoerceStruct(t *testing.T) {
	gps := gpsPosition()
	in := map[string]any{"lat": 41.3, "lon": 2.1, "alt": 120.5, "fix": 3}
	got, err := Coerce(gps, in)
	if err != nil {
		t.Fatalf("Coerce: %v", err)
	}
	if err := Check(gps, got); err != nil {
		t.Fatalf("not canonical: %v", err)
	}
	m := got.(map[string]any)
	if m["alt"] != float32(120.5) || m["fix"] != uint8(3) {
		t.Errorf("narrowing failed: %#v", m)
	}
	if _, err := Coerce(gps, map[string]any{"lat": 1.0}); err == nil {
		t.Error("missing fields must fail")
	}
	if _, err := Coerce(gps, map[string]any{"lat": 41.3, "lon": 2.1, "alt": 1.0, "fix": 0, "bogus": 1}); err == nil {
		t.Error("unknown field must fail")
	}
}

func TestCoerceUnion(t *testing.T) {
	u := UnionOf(C("ok", nil), C("err", String_()))
	got, err := Coerce(u, Union{Case: "err", Value: "boom"})
	if err != nil {
		t.Fatalf("Coerce union: %v", err)
	}
	if err := Check(u, got); err != nil {
		t.Fatalf("not canonical: %v", err)
	}
	if _, err := Coerce(u, Union{Case: "nope"}); err == nil {
		t.Error("unknown case must fail")
	}
	if _, err := Coerce(u, "raw"); err == nil {
		t.Error("non-union value must fail")
	}
	if _, err := Coerce(u, Union{Case: "ok", Value: 3}); err == nil {
		t.Error("void case with payload must fail")
	}
}

func TestDeepCopyIsolation(t *testing.T) {
	gps := gpsPosition()
	orig := map[string]any{"lat": 1.0, "lon": 2.0, "alt": float32(3), "fix": uint8(1)}
	cp := DeepCopy(orig).(map[string]any)
	cp["lat"] = 99.0
	if orig["lat"] != 1.0 {
		t.Error("DeepCopy aliased struct map")
	}
	if err := Check(gps, cp); err != nil {
		t.Errorf("copy not canonical: %v", err)
	}

	b := []byte{1, 2, 3}
	bc := DeepCopy(b).([]byte)
	bc[0] = 9
	if b[0] != 1 {
		t.Error("DeepCopy aliased bytes")
	}

	s := []any{int8(1), []any{int8(2)}}
	sc := DeepCopy(s).([]any)
	sc[1].([]any)[0] = int8(9)
	if s[1].([]any)[0] != int8(2) {
		t.Error("DeepCopy aliased nested slice")
	}

	u := Union{Case: "x", Value: []byte{5}}
	uc := DeepCopy(u).(Union)
	uc.Value.([]byte)[0] = 7
	if u.Value.([]byte)[0] != 5 {
		t.Error("DeepCopy aliased union payload")
	}
}

func TestEqualValues(t *testing.T) {
	tests := []struct {
		name string
		a, b any
		want bool
	}{
		{"ints", int32(4), int32(4), true},
		{"ints differ", int32(4), int32(5), false},
		{"cross-type", int32(4), int64(4), false},
		{"nan equals nan f64", math.NaN(), math.NaN(), true},
		{"nan equals nan f32", float32(math.NaN()), float32(math.NaN()), true},
		{"float vs int", 4.0, int32(4), false},
		{"bytes", []byte{1, 2}, []byte{1, 2}, true},
		{"bytes differ", []byte{1, 2}, []byte{1, 3}, false},
		{"bytes len", []byte{1}, []byte{1, 2}, false},
		{"slices", []any{int8(1)}, []any{int8(1)}, true},
		{"slices differ", []any{int8(1)}, []any{int8(2)}, false},
		{"maps", map[string]any{"a": 1.0}, map[string]any{"a": 1.0}, true},
		{"maps differ", map[string]any{"a": 1.0}, map[string]any{"a": 2.0}, false},
		{"maps keys", map[string]any{"a": 1.0}, map[string]any{"b": 1.0}, false},
		{"unions", Union{Case: "a", Value: int8(1)}, Union{Case: "a", Value: int8(1)}, true},
		{"unions case", Union{Case: "a"}, Union{Case: "b"}, false},
		{"union vs scalar", Union{Case: "a"}, 4, false},
		{"map vs scalar", map[string]any{}, 4, false},
		{"slice vs scalar", []any{}, 4, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EqualValues(tt.a, tt.b); got != tt.want {
				t.Errorf("EqualValues(%#v, %#v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

// randomValue builds a canonical value of typ for property tests. Shared
// with the encoding package tests via export_test-style usage.
func randomValue(r *rand.Rand, typ *Type) any {
	switch typ.Kind() {
	case KindVoid:
		return nil
	case KindBool:
		return r.Intn(2) == 0
	case KindInt8:
		return int8(r.Intn(256) - 128)
	case KindInt16:
		return int16(r.Intn(1 << 16))
	case KindInt32:
		return int32(r.Uint32())
	case KindInt64:
		return int64(r.Uint64())
	case KindUint8:
		return uint8(r.Intn(256))
	case KindUint16:
		return uint16(r.Intn(1 << 16))
	case KindUint32:
		return r.Uint32()
	case KindUint64:
		return r.Uint64()
	case KindFloat32:
		return float32(r.NormFloat64())
	case KindFloat64:
		return r.NormFloat64()
	case KindString:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	case KindBytes:
		n := r.Intn(16)
		b := make([]byte, n)
		r.Read(b)
		return b
	case KindArray:
		out := make([]any, typ.Len())
		for i := range out {
			out[i] = randomValue(r, typ.Elem())
		}
		return out
	case KindVector:
		out := make([]any, r.Intn(5))
		for i := range out {
			out[i] = randomValue(r, typ.Elem())
		}
		return out
	case KindStruct:
		m := make(map[string]any, len(typ.Fields()))
		for _, f := range typ.Fields() {
			m[f.Name] = randomValue(r, f.Type)
		}
		return m
	case KindUnion:
		cs := typ.Cases()
		c := cs[r.Intn(len(cs))]
		return Union{Case: c.Name, Value: randomValue(r, c.Type)}
	default:
		return nil
	}
}

func TestRandomValuesCheckAndCopy(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		typ := randomType(r, 4)
		v := randomValue(r, typ)
		if err := Check(typ, v); err != nil {
			t.Fatalf("random value of %s fails Check: %v", typ, err)
		}
		cp := DeepCopy(v)
		if !EqualValues(v, cp) {
			t.Fatalf("DeepCopy not equal for %s", typ)
		}
		if err := Check(typ, cp); err != nil {
			t.Fatalf("copy fails Check: %v", err)
		}
		// Coerce must accept canonical values unchanged.
		cv, err := Coerce(typ, v)
		if err != nil {
			t.Fatalf("Coerce of canonical value: %v", err)
		}
		if !EqualValues(v, cv) {
			t.Fatalf("Coerce changed canonical value for %s", typ)
		}
	}
}

func TestFormatValue(t *testing.T) {
	gps := gpsPosition()
	v := map[string]any{"lat": 41.5, "lon": 2.25, "alt": float32(100), "fix": uint8(3)}
	got := FormatValue(gps, v)
	want := "{lat=41.5 lon=2.25 alt=100 fix=3}"
	if got != want {
		t.Errorf("FormatValue = %q, want %q", got, want)
	}
	if got := FormatValue(Bytes(), []byte{1, 2, 3}); got != "bytes[3]" {
		t.Errorf("bytes format = %q", got)
	}
	u := UnionOf(C("ok", nil), C("err", String_()))
	if got := FormatValue(u, Union{Case: "ok"}); got != "ok" {
		t.Errorf("void case format = %q", got)
	}
	if got := FormatValue(u, Union{Case: "err", Value: "x"}); got != "err(x)" {
		t.Errorf("payload case format = %q", got)
	}
	if got := FormatValue(VectorOf(Int8()), []any{int8(1), int8(2)}); got != "[1 2]" {
		t.Errorf("vector format = %q", got)
	}
	if got := FormatValue(nil, 42); got != "42" {
		t.Errorf("nil type format = %q", got)
	}
}
