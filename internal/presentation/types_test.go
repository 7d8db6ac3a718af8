package presentation

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// gpsPosition is the telemetry struct used throughout the test suite; it
// mirrors the paper's GPS "position" variable (§5).
func gpsPosition() *Type {
	return StructOf(
		F("lat", Float64()),
		F("lon", Float64()),
		F("alt", Float32()),
		F("fix", Uint8()),
	)
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindBool, "bool"},
		{KindInt8, "i8"},
		{KindUint64, "u64"},
		{KindFloat64, "f64"},
		{KindString, "str"},
		{KindBytes, "bytes"},
		{KindArray, "array"},
		{KindVector, "vector"},
		{KindStruct, "struct"},
		{KindUnion, "union"},
		{KindVoid, "void"},
		{Kind(0), "kind(0)"},
		{Kind(200), "kind(200)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestSignatures(t *testing.T) {
	tests := []struct {
		name string
		typ  *Type
		want string
	}{
		{"bool", Bool(), "bool"},
		{"vector of f64", VectorOf(Float64()), "[]f64"},
		{"array", ArrayOf(3, Float32()), "[3]f32"},
		{"nested array", ArrayOf(3, ArrayOf(3, Float64())), "[3][3]f64"},
		{"gps struct", gpsPosition(), "{lat:f64,lon:f64,alt:f32,fix:u8}"},
		{"union", UnionOf(C("ok", nil), C("err", String_())), "<ok:void,err:str>"},
		{"vector of struct", VectorOf(StructOf(F("id", Uint32()))), "[]{id:u32}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.typ.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestNilTypeString(t *testing.T) {
	var tp *Type
	if got := tp.String(); got != "<nil>" {
		t.Errorf("nil String() = %q", got)
	}
}

func TestEqualStructural(t *testing.T) {
	a := StructOf(F("x", Int32()), F("y", Int32()))
	b := StructOf(F("x", Int32()), F("y", Int32()))
	c := StructOf(F("y", Int32()), F("x", Int32())) // order matters
	if !a.Equal(b) {
		t.Error("structurally identical types must be Equal")
	}
	if a.Equal(c) {
		t.Error("field order must matter for equality")
	}
	if a.Equal(nil) {
		t.Error("Equal(nil) must be false")
	}
}

func TestValidate(t *testing.T) {
	deep := Float64()
	for i := 0; i < maxTypeDepth+2; i++ {
		deep = VectorOf(deep)
	}
	tests := []struct {
		name    string
		typ     *Type
		wantErr bool
	}{
		{"primitive", Float64(), false},
		{"gps", gpsPosition(), false},
		{"union ok", UnionOf(C("a", nil), C("b", Int32())), false},
		{"zero array", ArrayOf(0, Int8()), true},
		{"negative array", ArrayOf(-1, Int8()), true},
		{"empty struct", StructOf(), true},
		{"dup field", StructOf(F("x", Int8()), F("x", Int8())), true},
		{"unnamed field", StructOf(F("", Int8())), true},
		{"bad ident", StructOf(F("1x", Int8())), true},
		{"bad ident dash", StructOf(F("a-b", Int8())), true},
		{"empty union", UnionOf(), true},
		{"dup case", UnionOf(C("a", nil), C("a", Int8())), true},
		{"void at top of struct", StructOf(F("v", Void())), true},
		{"too deep", deep, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.typ.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrInvalidType) {
				t.Errorf("error %v must wrap ErrInvalidType", err)
			}
		})
	}
}

func TestNilValidate(t *testing.T) {
	var tp *Type
	if err := tp.Validate(); err == nil {
		t.Error("nil type must fail validation")
	}
}

func TestAccessors(t *testing.T) {
	arr := ArrayOf(4, Int16())
	if arr.Kind() != KindArray || arr.Len() != 4 || !arr.Elem().Equal(Int16()) {
		t.Errorf("array accessors wrong: %v %v %v", arr.Kind(), arr.Len(), arr.Elem())
	}
	if Float64().Len() != 0 {
		t.Error("Len of non-array must be 0")
	}
	st := gpsPosition()
	if st.FieldIndex("alt") != 2 {
		t.Errorf("FieldIndex(alt) = %d, want 2", st.FieldIndex("alt"))
	}
	if st.FieldIndex("nope") != -1 {
		t.Error("missing field must index -1")
	}
	un := UnionOf(C("a", nil), C("b", Int8()))
	if un.CaseIndex("b") != 1 || un.CaseIndex("zz") != -1 {
		t.Error("CaseIndex wrong")
	}
}

func TestParseRoundTrip(t *testing.T) {
	sigs := []string{
		"bool", "i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64",
		"f32", "f64", "str", "bytes",
		"[]f64", "[16]u8", "[3][3]f64",
		"{lat:f64,lon:f64,alt:f32,fix:u8}",
		"<ok:void,err:str>",
		"[]{id:u32,name:str}",
		"{pos:{lat:f64,lon:f64},wps:[]{lat:f64,lon:f64},mode:<auto:void,manual:u8>}",
	}
	for _, sig := range sigs {
		t.Run(sig, func(t *testing.T) {
			typ, err := Parse(sig)
			if err != nil {
				t.Fatalf("Parse(%q): %v", sig, err)
			}
			if got := typ.String(); got != sig {
				t.Errorf("round trip: %q -> %q", sig, got)
			}
		})
	}
}

func TestParseWhitespace(t *testing.T) {
	typ, err := Parse(" { lat : f64 , lon : f64 } ")
	if err != nil {
		t.Fatalf("Parse with spaces: %v", err)
	}
	if typ.String() != "{lat:f64,lon:f64}" {
		t.Errorf("got %q", typ.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "zzz", "i7", "[]", "[3]", "[x]u8", "{x}", "{x:}", "{:u8}",
		"{x:u8", "<a:void", "{x:u8}extra", "{x:u8,x:u8}", "[0]u8",
		"<>", "{}", "void", "[999999999999]u8", "{x:u8,}",
	}
	for _, sig := range bad {
		if _, err := Parse(sig); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", sig)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad signature must panic")
		}
	}()
	MustParse("not-a-type")
}

// randomType builds a random valid descriptor for property tests.
func randomType(r *rand.Rand, depth int) *Type {
	prims := []*Type{
		Bool(), Int8(), Int16(), Int32(), Int64(),
		Uint8(), Uint16(), Uint32(), Uint64(),
		Float32(), Float64(), String_(), Bytes(),
	}
	if depth <= 0 || r.Intn(100) < 50 {
		return prims[r.Intn(len(prims))]
	}
	switch r.Intn(4) {
	case 0:
		return ArrayOf(1+r.Intn(4), randomType(r, depth-1))
	case 1:
		return VectorOf(randomType(r, depth-1))
	case 2:
		n := 1 + r.Intn(4)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = F(fieldName(i), randomType(r, depth-1))
		}
		return StructOf(fields...)
	default:
		n := 1 + r.Intn(3)
		cases := make([]Case, n)
		for i := range cases {
			var ct *Type
			if r.Intn(2) == 0 {
				ct = randomType(r, depth-1)
			}
			cases[i] = C(fieldName(i), ct)
		}
		return UnionOf(cases...)
	}
}

func fieldName(i int) string { return string(rune('a' + i)) }

func TestParseRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		typ := randomType(r, 4)
		if err := typ.Validate(); err != nil {
			t.Fatalf("random type invalid: %v (%s)", err, typ)
		}
		back, err := Parse(typ.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", typ.String(), err)
		}
		if !typ.Equal(back) {
			t.Fatalf("round trip mismatch: %s vs %s", typ, back)
		}
	}
}

func TestValidIdentProperty(t *testing.T) {
	// Any name accepted by validIdent must survive a struct signature
	// round trip.
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(s string) bool {
		if len(s) == 0 || len(s) > 12 || !validIdent(s) {
			return true // not applicable
		}
		typ := StructOf(F(s, Bool()))
		back, err := Parse(typ.String())
		return err == nil && typ.Equal(back)
	}, cfg); err != nil {
		t.Error(err)
	}
}
