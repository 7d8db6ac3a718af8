package presentation

import (
	"fmt"
	"math"
	"reflect"
)

// Canonical value representation, by kind:
//
//	bool            -> bool
//	i8..i64         -> int8, int16, int32, int64
//	u8..u64         -> uint8, uint16, uint32, uint64
//	f32, f64        -> float32, float64
//	str             -> string
//	bytes           -> []byte
//	array, vector   -> []any (elements canonical)
//	struct          -> map[string]any (every field present, canonical)
//	union           -> Union{Case, Value}
//	void            -> nil
//
// Check validates that a value is already canonical; Coerce converts
// convertible inputs (any Go integer width, []float64, missing-field structs
// are rejected, etc.) into canonical form, which is what the publish paths
// accept.

// Union is the canonical value of a union type: the active case name plus
// its payload (nil for void cases).
type Union struct {
	Case  string
	Value any
}

// Check verifies that v is the canonical representation of type t.
func Check(t *Type, v any) error {
	switch t.kind {
	case KindVoid:
		if v != nil {
			return fmt.Errorf("presentation: void carries %T: %w", v, ErrTypeMismatch)
		}
		return nil
	case KindBool:
		return checkIs[bool](t, v)
	case KindInt8:
		return checkIs[int8](t, v)
	case KindInt16:
		return checkIs[int16](t, v)
	case KindInt32:
		return checkIs[int32](t, v)
	case KindInt64:
		return checkIs[int64](t, v)
	case KindUint8:
		return checkIs[uint8](t, v)
	case KindUint16:
		return checkIs[uint16](t, v)
	case KindUint32:
		return checkIs[uint32](t, v)
	case KindUint64:
		return checkIs[uint64](t, v)
	case KindFloat32:
		return checkIs[float32](t, v)
	case KindFloat64:
		return checkIs[float64](t, v)
	case KindString:
		return checkIs[string](t, v)
	case KindBytes:
		return checkIs[[]byte](t, v)
	case KindArray:
		s, ok := v.([]any)
		if !ok {
			return fmt.Errorf("presentation: %s expects []any, got %T: %w", t, v, ErrTypeMismatch)
		}
		if len(s) != t.length {
			return fmt.Errorf("presentation: array wants %d elements, got %d: %w", t.length, len(s), ErrTypeMismatch)
		}
		for i, e := range s {
			if err := Check(t.elem, e); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	case KindVector:
		s, ok := v.([]any)
		if !ok {
			return fmt.Errorf("presentation: %s expects []any, got %T: %w", t, v, ErrTypeMismatch)
		}
		for i, e := range s {
			if err := Check(t.elem, e); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	case KindStruct:
		m, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("presentation: %s expects map[string]any, got %T: %w", t, v, ErrTypeMismatch)
		}
		if len(m) != len(t.fields) {
			return fmt.Errorf("presentation: struct wants %d fields, got %d: %w", len(t.fields), len(m), ErrTypeMismatch)
		}
		for _, f := range t.fields {
			fv, present := m[f.Name]
			if !present {
				return fmt.Errorf("presentation: missing field %q: %w", f.Name, ErrTypeMismatch)
			}
			if err := Check(f.Type, fv); err != nil {
				return fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
		return nil
	case KindUnion:
		u, ok := v.(Union)
		if !ok {
			return fmt.Errorf("presentation: %s expects Union, got %T: %w", t, v, ErrTypeMismatch)
		}
		idx := t.CaseIndex(u.Case)
		if idx < 0 {
			return fmt.Errorf("presentation: unknown case %q: %w", u.Case, ErrTypeMismatch)
		}
		if err := Check(t.cases[idx].Type, u.Value); err != nil {
			return fmt.Errorf("case %q: %w", u.Case, err)
		}
		return nil
	default:
		return fmt.Errorf("presentation: unknown kind %d: %w", t.kind, ErrInvalidType)
	}
}

func checkIs[T any](t *Type, v any) error {
	if _, ok := v.(T); !ok {
		return fmt.Errorf("presentation: %s expects %T, got %T: %w", t, *new(T), v, ErrTypeMismatch)
	}
	return nil
}

// Coerce converts v into the canonical representation of t, accepting the
// natural Go spellings a service programmer would use: any integer type for
// any integer kind (with range checking), ints/floats for float kinds, typed
// slices ([]float64, []int32, []string, ...) for sequences, and nested
// map[string]any for structs. It returns the canonical value.
func Coerce(t *Type, v any) (any, error) {
	switch t.kind {
	case KindVoid:
		if v != nil {
			return nil, fmt.Errorf("presentation: void carries %T: %w", v, ErrTypeMismatch)
		}
		return nil, nil
	case KindBool:
		b, ok := v.(bool)
		if !ok {
			return nil, coerceErr(t, v)
		}
		return b, nil
	case KindInt8, KindInt16, KindInt32, KindInt64:
		i, err := CoerceInt(t, v)
		if err != nil {
			return nil, err
		}
		switch t.kind {
		case KindInt8:
			return int8(i), nil
		case KindInt16:
			return int16(i), nil
		case KindInt32:
			return int32(i), nil
		default:
			return i, nil
		}
	case KindUint8, KindUint16, KindUint32, KindUint64:
		u, err := CoerceUint(t, v)
		if err != nil {
			return nil, err
		}
		switch t.kind {
		case KindUint8:
			return uint8(u), nil
		case KindUint16:
			return uint16(u), nil
		case KindUint32:
			return uint32(u), nil
		default:
			return u, nil
		}
	case KindFloat32:
		if f, ok := v.(float32); ok {
			return f, nil // widening to float64 would quiet a signalling NaN
		}
		f, err := CoerceFloat(t, v)
		if err != nil {
			return nil, err
		}
		return float32(f), nil
	case KindFloat64:
		return CoerceFloat(t, v)
	case KindString:
		s, ok := v.(string)
		if !ok {
			return nil, coerceErr(t, v)
		}
		return s, nil
	case KindBytes:
		b, ok := v.([]byte)
		if !ok {
			return nil, coerceErr(t, v)
		}
		return b, nil
	case KindArray, KindVector:
		elems, ok := toAnySlice(v)
		if !ok {
			return nil, coerceErr(t, v)
		}
		if t.kind == KindArray && len(elems) != t.length {
			return nil, fmt.Errorf("presentation: array wants %d elements, got %d: %w", t.length, len(elems), ErrTypeMismatch)
		}
		out := make([]any, len(elems))
		for i, e := range elems {
			ce, err := Coerce(t.elem, e)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			out[i] = ce
		}
		return out, nil
	case KindStruct:
		m, ok := v.(map[string]any)
		if !ok {
			return nil, coerceErr(t, v)
		}
		out := make(map[string]any, len(t.fields))
		for _, f := range t.fields {
			fv, present := m[f.Name]
			if !present {
				return nil, fmt.Errorf("presentation: missing field %q: %w", f.Name, ErrTypeMismatch)
			}
			cv, err := Coerce(f.Type, fv)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", f.Name, err)
			}
			out[f.Name] = cv
		}
		if len(m) != len(t.fields) {
			for name := range m {
				if t.FieldIndex(name) < 0 {
					return nil, fmt.Errorf("presentation: unknown field %q: %w", name, ErrTypeMismatch)
				}
			}
		}
		return out, nil
	case KindUnion:
		u, ok := v.(Union)
		if !ok {
			return nil, coerceErr(t, v)
		}
		idx := t.CaseIndex(u.Case)
		if idx < 0 {
			return nil, fmt.Errorf("presentation: unknown case %q: %w", u.Case, ErrTypeMismatch)
		}
		cv, err := Coerce(t.cases[idx].Type, u.Value)
		if err != nil {
			return nil, fmt.Errorf("case %q: %w", u.Case, err)
		}
		return Union{Case: u.Case, Value: cv}, nil
	default:
		return nil, fmt.Errorf("presentation: unknown kind %d: %w", t.kind, ErrInvalidType)
	}
}

// coerceErr names v's type through reflect.TypeOf rather than %T: the verb
// makes v escape, and the fused encoder relies on scalar operands staying
// on the stack.
func coerceErr(t *Type, v any) error {
	return fmt.Errorf("presentation: cannot use %v as %s: %w", reflect.TypeOf(v), t, ErrTypeMismatch)
}

// toInt64 widens any signed/unsigned Go integer to int64, reporting overflow.
func toInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int8:
		return int64(x), true
	case int16:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case uint:
		if uint64(x) > math.MaxInt64 {
			return 0, false
		}
		return int64(x), true
	case uint8:
		return int64(x), true
	case uint16:
		return int64(x), true
	case uint32:
		return int64(x), true
	case uint64:
		if x > math.MaxInt64 {
			return 0, false
		}
		return int64(x), true
	default:
		return 0, false
	}
}

func toUint64(v any) (uint64, bool) {
	switch x := v.(type) {
	case int:
		if x < 0 {
			return 0, false
		}
		return uint64(x), true
	case int8:
		if x < 0 {
			return 0, false
		}
		return uint64(x), true
	case int16:
		if x < 0 {
			return 0, false
		}
		return uint64(x), true
	case int32:
		if x < 0 {
			return 0, false
		}
		return uint64(x), true
	case int64:
		if x < 0 {
			return 0, false
		}
		return uint64(x), true
	case uint:
		return uint64(x), true
	case uint8:
		return uint64(x), true
	case uint16:
		return uint64(x), true
	case uint32:
		return uint64(x), true
	case uint64:
		return x, true
	default:
		return 0, false
	}
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	default:
		if i, ok := toInt64(v); ok {
			return float64(i), true
		}
		return 0, false
	}
}

// CoerceInt widens any Go integer to int64 and range-checks it against the
// signed integer kind t. Together with CoerceUint and CoerceFloat it is the
// scalar half of Coerce, exported so the fused encoder (encoding.AppendValue)
// accepts exactly the spellings Coerce accepts without building the
// canonical value.
func CoerceInt(t *Type, v any) (int64, error) {
	i, ok := toInt64(v)
	if !ok {
		return 0, coerceErr(t, v)
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch t.kind {
	case KindInt8:
		lo, hi = math.MinInt8, math.MaxInt8
	case KindInt16:
		lo, hi = math.MinInt16, math.MaxInt16
	case KindInt32:
		lo, hi = math.MinInt32, math.MaxInt32
	}
	if i < lo || i > hi {
		return 0, rangeErr(t, i)
	}
	return i, nil
}

// CoerceUint is CoerceInt for the unsigned integer kinds.
func CoerceUint(t *Type, v any) (uint64, error) {
	u, ok := toUint64(v)
	if !ok {
		return 0, coerceErr(t, v)
	}
	hi := uint64(math.MaxUint64)
	switch t.kind {
	case KindUint8:
		hi = math.MaxUint8
	case KindUint16:
		hi = math.MaxUint16
	case KindUint32:
		hi = math.MaxUint32
	}
	if u > hi {
		return 0, rangeErr(t, int64(u))
	}
	return u, nil
}

// CoerceFloat accepts floats and signed-representable integers for the
// float kinds; an f32 target narrows with float32(f).
func CoerceFloat(t *Type, v any) (float64, error) {
	f, ok := toFloat(v)
	if !ok {
		return 0, coerceErr(t, v)
	}
	return f, nil
}

func rangeErr(t *Type, i int64) error {
	return fmt.Errorf("presentation: value %d out of range for %s: %w", i, t, ErrTypeMismatch)
}

// toAnySlice accepts []any plus the common typed slices.
func toAnySlice(v any) ([]any, bool) {
	switch s := v.(type) {
	case []any:
		return s, true
	case []bool:
		return box(s), true
	case []int:
		return box(s), true
	case []int8:
		return box(s), true
	case []int16:
		return box(s), true
	case []int32:
		return box(s), true
	case []int64:
		return box(s), true
	case []uint8: // also []byte; vectors of u8 accept both spellings
		return box(s), true
	case []uint16:
		return box(s), true
	case []uint32:
		return box(s), true
	case []uint64:
		return box(s), true
	case []float32:
		return box(s), true
	case []float64:
		return box(s), true
	case []string:
		return box(s), true
	case []map[string]any:
		return box(s), true
	case []Union:
		return box(s), true
	default:
		return nil, false
	}
}

func box[T any](s []T) []any {
	out := make([]any, len(s))
	for i, e := range s {
		out[i] = e
	}
	return out
}

// DeepCopy clones a canonical value so caches can hand out values without
// aliasing publisher buffers.
func DeepCopy(v any) any {
	switch x := v.(type) {
	case []byte:
		out := make([]byte, len(x))
		copy(out, x)
		return out
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = DeepCopy(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = DeepCopy(e)
		}
		return out
	case Union:
		return Union{Case: x.Case, Value: DeepCopy(x.Value)}
	default:
		return v // immutable scalar
	}
}

// EqualValues reports semantic equality of two canonical values. Unlike
// reflect.DeepEqual it treats NaN as equal to NaN so "value unchanged"
// suppression (§4.1 OnChangeOnly) behaves for float telemetry.
func EqualValues(a, b any) bool {
	switch x := a.(type) {
	case float32:
		y, ok := b.(float32)
		if !ok {
			return false
		}
		return x == y || (math.IsNaN(float64(x)) && math.IsNaN(float64(y)))
	case float64:
		y, ok := b.(float64)
		if !ok {
			return false
		}
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	case []byte:
		y, ok := b.([]byte)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !EqualValues(x[i], y[i]) {
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
			w, present := y[k]
			if !present || !EqualValues(v, w) {
				return false
			}
		}
		return true
	case Union:
		y, ok := b.(Union)
		if !ok {
			return false
		}
		return x.Case == y.Case && EqualValues(x.Value, y.Value)
	default:
		return a == b
	}
}
