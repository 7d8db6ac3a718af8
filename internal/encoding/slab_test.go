package encoding

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"uavmw/internal/presentation"
	"uavmw/internal/presentation/ptest"
)

// TestDecodeAllocs pins what decoding the benchmark's value shapes costs,
// as literal counts, so a regression in the decode walk cannot hide behind
// a gate that measures relative to it. A map is two allocations (header and
// group); the boxable scalars of a struct or sequence share one slab; a
// string is its bytes plus its box. Boxing every scalar on its own, the
// same values cost 8, 8, 3 and 18. Values below 256 box for free, so the
// cases keep their integers above that.
func TestDecodeAllocs(t *testing.T) {
	f64s := make([]float64, 16)
	for i := range f64s {
		f64s[i] = float64(i) + 0.5
	}
	pos := ptest.PositionValue()
	pos["wp"] = uint32(2000)
	cases := []struct {
		name string
		typ  *presentation.Type
		v    any
		want float64
	}{
		{"TypePosition", ptest.PositionType, pos, 3},
		{"TypeDetection", ptest.DetectionType,
			map[string]any{"name": "det.alarm", "count": uint32(700), "x": uint32(1024), "y": uint32(768), "score": 0.875}, 5},
		// One boxable field boxes on its own: map + box.
		{"{ok:bool,index:u32}", presentation.MustParse("{ok:bool,index:u32}"),
			map[string]any{"ok": true, "index": uint32(1 << 20)}, 3},
		// The []any, its slice header boxed as an any, and one slab where
		// 16 boxes used to be.
		{"[]f64 x16", presentation.MustParse("[]f64"), f64s, 3},
	}
	for _, c := range cases {
		data, err := Marshal(c.typ, c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testing.AllocsPerRun(200, func() {
			if _, err := Unmarshal(c.typ, data); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("decoding %s allocates %.1f times, want %.0f", c.name, got, c.want)
		}
	}
}

// boxableCases holds, per boxable kind, the extremes a slot must carry
// exactly: zero, max, min, and for the floats -0.0, ±Inf and NaN payloads
// (quiet, signalling, negative).
var boxableCases = map[string][]any{
	"i16": {int16(0), int16(math.MaxInt16), int16(math.MinInt16), int16(-1)},
	"u16": {uint16(0), uint16(math.MaxUint16), uint16(1)},
	"i32": {int32(0), int32(math.MaxInt32), int32(math.MinInt32), int32(-1)},
	"u32": {uint32(0), uint32(math.MaxUint32), uint32(1)},
	"i64": {int64(0), int64(math.MaxInt64), int64(math.MinInt64), int64(-1)},
	"u64": {uint64(0), uint64(math.MaxUint64), uint64(1)},
	"f32": {float32(0), float32(math.Copysign(0, -1)), float32(math.MaxFloat32), float32(-math.MaxFloat32),
		float32(math.SmallestNonzeroFloat32), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00123)},
	"f64": {0.0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123)},
}

// typeCase names the case a type switch over the canonical scalars takes.
func typeCase(v any) string {
	switch v.(type) {
	case int16:
		return "int16"
	case uint16:
		return "uint16"
	case int32:
		return "int32"
	case uint32:
		return "uint32"
	case int64:
		return "int64"
	case uint64:
		return "uint64"
	case float32:
		return "float32"
	case float64:
		return "float64"
	default:
		return "other"
	}
}

// sameBits compares floats by representation, so NaN payloads and -0.0
// count; everything else by ==.
func sameBits(a, b any) bool {
	switch x := a.(type) {
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

func isNaN(v any) bool {
	rv := reflect.ValueOf(v)
	return rv.CanFloat() && math.IsNaN(rv.Float())
}

// TestBoxedScalarsMatchOrdinaryBoxes decodes every extreme of every boxable
// kind through each slab shape — a struct with a byte-wide field between
// two slots, an array, a vector — and holds each slot to the ordinary box
// of the same value: ==, reflect.TypeOf, %v and the type-switch case.
func TestBoxedScalarsMatchOrdinaryBoxes(t *testing.T) {
	for sig, xs := range boxableCases {
		for _, x := range xs {
			shapes := []struct {
				typ *presentation.Type
				v   any
			}{
				{presentation.MustParse(fmt.Sprintf("{a:%s,p:u8,b:%s}", sig, sig)), map[string]any{"a": x, "p": uint8(9), "b": x}},
				{presentation.MustParse(fmt.Sprintf("[2]%s", sig)), []any{x, x}},
				{presentation.MustParse(fmt.Sprintf("[]%s", sig)), []any{x, x, x}},
			}
			for _, sh := range shapes {
				data, err := Marshal(sh.typ, sh.v)
				if err != nil {
					t.Fatalf("%s %v: %v", sh.typ, x, err)
				}
				back, err := Unmarshal(sh.typ, data)
				if err != nil {
					t.Fatalf("%s %v: %v", sh.typ, x, err)
				}
				var slots []any
				switch b := back.(type) {
				case map[string]any:
					slots = []any{b["a"], b["b"]}
				case []any:
					slots = b
				}
				for i, got := range slots {
					if !isNaN(x) && got != x { // NaN is unequal to itself in any box
						t.Errorf("%s slot %d: %v != %v", sh.typ, i, got, x)
					}
					if !sameBits(got, x) {
						t.Errorf("%s slot %d: bits of %v differ from %v", sh.typ, i, got, x)
					}
					if reflect.TypeOf(got) != reflect.TypeOf(x) {
						t.Errorf("%s slot %d: type %v, want %v", sh.typ, i, reflect.TypeOf(got), reflect.TypeOf(x))
					}
					if g, w := fmt.Sprintf("%v", got), fmt.Sprintf("%v", x); g != w {
						t.Errorf("%s slot %d: formats as %s, want %s", sh.typ, i, g, w)
					}
					if g, w := typeCase(got), typeCase(x); g != w {
						t.Errorf("%s slot %d: type switch takes %s, want %s", sh.typ, i, g, w)
					}
				}
			}
		}
	}
}

var mixedType = presentation.MustParse("{a:u16,b:f64,c:i32,d:u16,e:bool,f:i64,g:f32}")

func mixedValue(i int) map[string]any {
	return map[string]any{
		"a": uint16(i), "b": float64(i) + 0.25, "c": int32(-i), "d": uint16(i * 7),
		"e": i%2 == 0, "f": int64(i) << 40, "g": float32(i) / 4,
	}
}

// TestBoxedFieldsSurviveGC keeps one field of each of 10k decodes and drops
// the maps: the interior pointers alone must keep every slab alive through
// collections and a heap churned with slab-sized garbage.
func TestBoxedFieldsSurviveGC(t *testing.T) {
	const n = 10000
	names := []string{"a", "b", "c", "d", "f", "g"}
	kept := make([]any, n)
	for i := range kept {
		data, err := Marshal(mixedType, mixedValue(i))
		if err != nil {
			t.Fatal(err)
		}
		v, err := Unmarshal(mixedType, data)
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = v.(map[string]any)[names[i%len(names)]]
	}
	runtime.GC()
	runtime.GC()
	var churn [][]uint64
	for i := 0; i < 4*n; i++ {
		junk := make([]uint64, 4)
		for j := range junk {
			junk[j] = ^uint64(0)
		}
		if i%8 == 0 {
			churn = append(churn, junk)
		}
	}
	runtime.GC()
	for i, got := range kept {
		if want := mixedValue(i)[names[i%len(names)]]; got != want {
			t.Fatalf("decode %d: kept field %s = %v, want %v", i, names[i%len(names)], got, want)
		}
	}
	runtime.KeepAlive(churn)
}

// dataWord is the address an interface's data word points at.
func dataWord(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).data }

// TestBoxedDecodesShareNoSlab decodes the same bytes twice: equal values,
// no slot in common, and the first value unchanged by later decodes.
func TestBoxedDecodesShareNoSlab(t *testing.T) {
	data, err := Marshal(mixedType, mixedValue(1234))
	if err != nil {
		t.Fatal(err)
	}
	first, err := Unmarshal(mixedType, data)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Unmarshal(mixedType, data)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := first.(map[string]any), second.(map[string]any)
	for _, f := range mixedType.Fields() {
		if boxWidth(f.Type.Kind()) == 0 {
			continue
		}
		v1, v2 := m1[f.Name], m2[f.Name]
		if v1 != v2 {
			t.Errorf("field %s: %v then %v from the same bytes", f.Name, v1, v2)
		}
		if dataWord(v1) == dataWord(v2) {
			t.Errorf("field %s: both decodes point at one slot", f.Name)
		}
	}
	for i := 0; i < 100; i++ {
		other, err := Marshal(mixedType, mixedValue(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(mixedType, other); err != nil {
			t.Fatal(err)
		}
	}
	if !presentation.EqualValues(m1, mixedValue(1234)) {
		t.Errorf("first decode changed under later decodes: %v", m1)
	}
}
