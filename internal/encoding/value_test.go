package encoding

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"uavmw/internal/presentation"
	"uavmw/internal/presentation/ptest"
)

var gpsType = presentation.MustParse("{lat:f64,lon:f64,alt:f32,fix:u8}")

func gpsValue() map[string]any {
	return map[string]any{"lat": 41.3, "lon": 2.1, "alt": float32(120.5), "fix": uint8(3)}
}

func TestMarshalUnmarshalStruct(t *testing.T) {
	data, err := Marshal(gpsType, gpsValue())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// 8 + 8 + 4 + 1 bytes, no framing overhead.
	if len(data) != 21 {
		t.Errorf("encoded size = %d, want 21", len(data))
	}
	back, err := Unmarshal(gpsType, data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !presentation.EqualValues(gpsValue(), back) {
		t.Errorf("round trip mismatch: %#v", back)
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	data, err := Marshal(presentation.Int32(), int32(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(presentation.Int32(), append(data, 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: got %v, want ErrCorrupt", err)
	}
}

func TestEncodeRejectsWhatCoerceRejects(t *testing.T) {
	tests := []struct {
		name string
		typ  *presentation.Type
		v    any
	}{
		{"float for i32", presentation.Int32(), 5.0},
		{"out of range", presentation.Int8(), 300},
		{"missing field", gpsType, map[string]any{"lat": 1.0}},
		{"unknown field", presentation.MustParse("{a:u8}"), map[string]any{"a": 1, "b": 2}},
		{"wrong container", presentation.VectorOf(presentation.Int8()), "x"},
		{"array len", presentation.ArrayOf(2, presentation.Int8()), []any{int8(1)}},
		{"unknown case", presentation.UnionOf(presentation.C("a", nil)), presentation.Union{Case: "z"}},
		{"void payload", presentation.UnionOf(presentation.C("a", nil)), presentation.Union{Case: "a", Value: 1}},
		{"union not union", presentation.UnionOf(presentation.C("a", nil)), 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Marshal(tt.typ, tt.v); err == nil {
				t.Error("expected encode failure")
			}
		})
	}
}

func TestMarshalAcceptsCoercibleSpellings(t *testing.T) {
	want, err := Marshal(gpsType, gpsValue())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(gpsType, map[string]any{"lat": 41.3, "lon": 2.1, "alt": float32(120.5), "fix": 3})
	if err != nil {
		t.Fatalf("int for u8: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("coerced spelling encodes %x, canonical %x", got, want)
	}
}

// TestAppendValueAllocatesNothing gates the fused walk itself: a flat
// struct, typed-slice spellings and a nested vector-of-struct all encode
// onto a caller buffer without a single allocation.
func TestAppendValueAllocatesNothing(t *testing.T) {
	cases := []struct {
		sig string
		v   any
	}{
		{"{lat:f64,lon:f64,alt:f32,fix:u8}", map[string]any{"lat": 41.3, "lon": 2, "alt": 120.5, "fix": 3}},
		{"[]f64", []float64{1.5, 2.5, 1e300}},
		{"[3]u16", []int{1000, 2000, 65535}},
		{"[]str", []string{"alpha", "beta"}},
		{"[]{id:u32,tag:<none:void,name:str>}", []map[string]any{
			{"id": 1 << 20, "tag": presentation.Union{Case: "none"}},
			{"id": uint32(7), "tag": presentation.Union{Case: "name", Value: "x"}},
		}},
	}
	buf := make([]byte, 0, 256)
	for _, c := range cases {
		typ := presentation.MustParse(c.sig)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := AppendValue(buf, typ, c.v); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("AppendValue(%s) allocates %.1f times", c.sig, allocs)
		}
	}
}

// TestValueEncoderFallbackKeepsTheContract drives the Coerce + Marshal path
// an Encoding without Appender gets: same acceptance, dst intact on error.
func TestValueEncoderFallbackKeepsTheContract(t *testing.T) {
	enc := NewValueEncoder(Debug{})
	dst := []byte("hdr")
	out, err := enc.Append(dst, gpsType, map[string]any{"lat": 41.3, "lon": 2, "alt": 120.5, "fix": 3})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Debug{}.Unmarshal(gpsType, out[len(dst):])
	if err != nil || !presentation.EqualValues(back, map[string]any{"lat": 41.3, "lon": 2.0, "alt": float32(120.5), "fix": uint8(3)}) {
		t.Fatalf("fallback encoded %s: %#v, %v", out[len(dst):], back, err)
	}
	out, err = enc.Append(dst, gpsType, map[string]any{"lat": 41.3})
	if !errors.Is(err, presentation.ErrTypeMismatch) || !bytes.Equal(out, dst) {
		t.Fatalf("fallback on a rejected value: %q, %v", out, err)
	}
}

func TestDecodeBadUnionTag(t *testing.T) {
	u := presentation.UnionOf(presentation.C("a", nil), presentation.C("b", nil))
	w := NewWriter(4)
	w.Uint32(9) // only 2 cases
	if _, err := Unmarshal(u, w.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad union tag: got %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsNonCanonicalBool holds bools to one wire form: a byte
// other than 0 or 1 would decode to true and re-encode as 1.
func TestDecodeRejectsNonCanonicalBool(t *testing.T) {
	typ := presentation.MustParse("{ok:bool,index:u32}")
	for _, b := range []byte{2, 0x80, 0xff} {
		if _, err := Unmarshal(typ, []byte{b, 0, 0, 0, 1}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bool byte %#x: got %v, want ErrCorrupt", b, err)
		}
	}
	for _, b := range []byte{0, 1} {
		if v, err := Unmarshal(presentation.Bool(), []byte{b}); err != nil || v != (b == 1) {
			t.Errorf("bool byte %#x: %v, %v", b, v, err)
		}
	}
}

// TestDecodeOversizedArrayFailsEarly: an array longer than the input left
// is truncated before its elements are allocated.
func TestDecodeOversizedArrayFailsEarly(t *testing.T) {
	typ := presentation.ArrayOf(1<<20, presentation.Float64())
	data := make([]byte, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(typ, data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("got %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("rejecting the array allocated %d bytes", n)
	}
}

func TestDecodeTruncatedStruct(t *testing.T) {
	data, err := Marshal(gpsType, gpsValue())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 8, 16, 20} {
		if _, err := Unmarshal(gpsType, data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 500; i++ {
		typ := ptest.RandomType(r, 4)
		v := ptest.RandomValue(r, typ)
		data, err := Marshal(typ, v)
		if err != nil {
			t.Fatalf("Marshal %s: %v", typ, err)
		}
		back, err := Unmarshal(typ, data)
		if err != nil {
			t.Fatalf("Unmarshal %s: %v", typ, err)
		}
		if !presentation.EqualValues(v, back) {
			t.Fatalf("round trip mismatch for %s:\n in  %#v\n out %#v", typ, v, back)
		}
	}
}

func TestCompiledMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		typ := ptest.RandomType(r, 4)
		v := ptest.RandomValue(r, typ)
		codec, err := Compile(typ)
		if err != nil {
			t.Fatalf("Compile %s: %v", typ, err)
		}
		genData, err := Marshal(typ, v)
		if err != nil {
			t.Fatal(err)
		}
		cData, err := codec.Marshal(v)
		if err != nil {
			t.Fatalf("codec.Marshal: %v", err)
		}
		if !bytes.Equal(genData, cData) {
			t.Fatalf("compiled and generic encodings differ for %s", typ)
		}
		back, err := codec.Unmarshal(cData)
		if err != nil {
			t.Fatalf("codec.Unmarshal: %v", err)
		}
		if !presentation.EqualValues(v, back) {
			t.Fatalf("compiled round trip mismatch for %s", typ)
		}
	}
}

func TestCompiledErrors(t *testing.T) {
	codec := MustCompile(gpsType)
	if _, err := codec.Marshal(map[string]any{"lat": 1.0}); err == nil {
		t.Error("missing field must fail")
	}
	if _, err := codec.Marshal(42); err == nil {
		t.Error("wrong container must fail")
	}
	data, err := codec.Marshal(gpsValue())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Unmarshal(data[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	if _, err := codec.Unmarshal(append(data, 1)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing: %v", err)
	}
	if codec.Type() != gpsType {
		t.Error("Type() must return compiled descriptor")
	}
}

func TestCompileInvalidType(t *testing.T) {
	if _, err := Compile(presentation.ArrayOf(0, presentation.Int8())); err == nil {
		t.Error("Compile of invalid type must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCompile must panic on invalid type")
		}
	}()
	MustCompile(presentation.StructOf())
}

func TestCompiledVectorAndUnion(t *testing.T) {
	typ := presentation.MustParse("[]<ping:void,data:{seq:u32,body:bytes}>")
	codec := MustCompile(typ)
	v := []any{
		presentation.Union{Case: "ping"},
		presentation.Union{Case: "data", Value: map[string]any{"seq": uint32(7), "body": []byte{1, 2}}},
	}
	data, err := codec.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !presentation.EqualValues(v, back) {
		t.Fatalf("mismatch: %#v", back)
	}
	// Bad union tag through the compiled path.
	w := NewWriter(8)
	w.Uint32(1) // one element
	w.Uint32(5) // bad tag
	if _, err := codec.Unmarshal(w.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad tag via codec: %v", err)
	}
}

func TestEncodingPluggability(t *testing.T) {
	// F4: the same canonical value travels through any registered
	// Encoding implementation unchanged.
	encodings := []Encoding{Binary{}, Debug{}}
	r := rand.New(rand.NewSource(31))
	for _, enc := range encodings {
		t.Run(enc.Name(), func(t *testing.T) {
			for i := 0; i < 100; i++ {
				typ := ptest.RandomType(r, 3)
				v := ptest.RandomValue(r, typ)
				data, err := enc.Marshal(typ, v)
				if err != nil {
					t.Fatalf("%s Marshal %s: %v", enc.Name(), typ, err)
				}
				back, err := enc.Unmarshal(typ, data)
				if err != nil {
					t.Fatalf("%s Unmarshal %s: %v", enc.Name(), typ, err)
				}
				if !equalLoose(v, back) {
					t.Fatalf("%s round trip mismatch for %s:\n in  %#v\n out %#v", enc.Name(), typ, v, back)
				}
			}
		})
	}
}

// equalLoose is EqualValues except empty bytes compare equal to nil bytes
// (the JSON debug path decodes empty base64 as empty non-nil slice).
func equalLoose(a, b any) bool {
	if ab, ok := a.([]byte); ok {
		if bb, ok := b.([]byte); ok {
			return bytes.Equal(ab, bb)
		}
		return false
	}
	switch x := a.(type) {
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !equalLoose(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if !equalLoose(v, y[k]) {
				return false
			}
		}
		return true
	case presentation.Union:
		y, ok := b.(presentation.Union)
		if !ok {
			return false
		}
		return x.Case == y.Case && equalLoose(x.Value, y.Value)
	default:
		return presentation.EqualValues(a, b)
	}
}

func TestDebugEncodingShape(t *testing.T) {
	enc := Debug{}
	data, err := enc.Marshal(gpsType, gpsValue())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"lat"`, `"lon"`, `"alt"`, `"fix"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("debug encoding missing %s: %s", want, data)
		}
	}
	if _, err := enc.Unmarshal(gpsType, []byte(`{"lat":1`)); err == nil {
		t.Error("bad json must fail")
	}
	if _, err := enc.Unmarshal(gpsType, []byte(`{"lat":1,"lon":2,"alt":3}`)); err == nil {
		t.Error("missing field must fail")
	}
	if _, err := enc.Unmarshal(presentation.Uint8(), []byte(`1.5`)); err == nil {
		t.Error("fractional int must fail")
	}
	if _, err := enc.Marshal(gpsType, 42); err == nil {
		t.Error("non-canonical value must fail")
	}
}

func TestDebugEncodingIDs(t *testing.T) {
	if (Binary{}).ID() == (Debug{}).ID() {
		t.Error("encoding IDs must be distinct")
	}
	if (Binary{}).Name() == (Debug{}).Name() {
		t.Error("encoding names must be distinct")
	}
}

func TestNaNAndInfRoundTrip(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0} {
		data, err := Marshal(presentation.Float64(), v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(presentation.Float64(), data)
		if err != nil {
			t.Fatal(err)
		}
		got := back.(float64)
		if math.IsNaN(v) != math.IsNaN(got) || (!math.IsNaN(v) && got != v) {
			t.Errorf("float64 %v -> %v", v, got)
		}
	}
}
