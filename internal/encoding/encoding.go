package encoding

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"uavmw/internal/presentation"
)

// Encoding is the pluggable PEPt encoding subsystem: a strategy for turning
// canonical presentation values into bytes and back. The container selects
// an Encoding per deployment; both ends must agree (the encoding ID travels
// in the protocol frame header).
type Encoding interface {
	// Name identifies the encoding for diagnostics.
	Name() string
	// ID is the one-byte wire identifier carried in frame headers.
	ID() uint8
	// Marshal encodes a canonical value of type t.
	Marshal(t *presentation.Type, v any) ([]byte, error)
	// Unmarshal decodes a complete buffer into a canonical value of type t.
	Unmarshal(t *presentation.Type, data []byte) (any, error)
}

// Appender is the optional allocation-free publish path of an Encoding.
// Engines feature-test for it once (NewValueEncoder), as they do for
// fabric.Clocked and fabric.Instrumented; an Encoding without it — Debug, or
// a decorator handed to core.WithEncoding — is driven through
// presentation.Coerce and Marshal instead, so implementing it is never
// required.
//
// Contract: AppendValue takes the caller's value as given, accepts exactly
// what presentation.Coerce accepts for t and rejects the rest with the same
// error class, and appends the bytes Marshal would produce for the coerced
// value. It is append-only — bytes already in dst are not touched — and on
// error it returns dst truncated back to its original length. It retains
// neither dst nor v.
type Appender interface {
	AppendValue(dst []byte, t *presentation.Type, v any) ([]byte, error)
}

// ValueEncoder is the one publish-side entry the engines share: it binds a
// node's Encoding to its Appender fast path when it has one and to
// Coerce + Marshal when it does not.
type ValueEncoder struct {
	enc  Encoding
	fast Appender
}

// NewValueEncoder resolves enc's optional Appender once.
func NewValueEncoder(enc Encoding) ValueEncoder {
	fast, _ := enc.(Appender)
	return ValueEncoder{enc: enc, fast: fast}
}

// ID is the wire identifier of the underlying encoding.
func (e ValueEncoder) ID() uint8 { return e.enc.ID() }

// Append coerces v to t and appends its encoding to dst under the Appender
// contract, whichever path serves it.
func (e ValueEncoder) Append(dst []byte, t *presentation.Type, v any) ([]byte, error) {
	if e.fast != nil {
		return e.fast.AppendValue(dst, t, v)
	}
	cv, err := presentation.Coerce(t, v)
	if err != nil {
		return dst, err
	}
	body, err := e.enc.Marshal(t, cv)
	if err != nil {
		return dst, err
	}
	return append(dst, body...), nil
}

// Wire encoding IDs.
const (
	IDBinary uint8 = 1
	IDDebug  uint8 = 2
)

// Binary is the default compact big-endian encoding.
type Binary struct{}

var (
	_ Encoding = Binary{}
	_ Appender = Binary{}
)

// Name implements Encoding.
func (Binary) Name() string { return "binary" }

// ID implements Encoding.
func (Binary) ID() uint8 { return IDBinary }

// Marshal implements Encoding.
func (Binary) Marshal(t *presentation.Type, v any) ([]byte, error) {
	return Marshal(t, v)
}

// AppendValue implements Appender.
func (Binary) AppendValue(dst []byte, t *presentation.Type, v any) ([]byte, error) {
	return AppendValue(dst, t, v)
}

// Unmarshal implements Encoding.
func (Binary) Unmarshal(t *presentation.Type, data []byte) (any, error) {
	return Unmarshal(t, data)
}

// Debug is a self-describing JSON encoding for development and ground-side
// tooling. It trades size and speed for grep-ability; it exists chiefly to
// demonstrate that PEPt layers plug (experiment F4) exactly as §6 claims.
type Debug struct{}

var _ Encoding = Debug{}

// Name implements Encoding.
func (Debug) Name() string { return "debug-json" }

// ID implements Encoding.
func (Debug) ID() uint8 { return IDDebug }

// Marshal implements Encoding.
func (Debug) Marshal(t *presentation.Type, v any) ([]byte, error) {
	if err := presentation.Check(t, v); err != nil {
		return nil, err
	}
	return json.Marshal(debugWrap(t, v))
}

// Unmarshal implements Encoding.
func (Debug) Unmarshal(t *presentation.Type, data []byte) (any, error) {
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("encoding: debug json: %w", err)
	}
	return debugUnwrap(t, raw)
}

// debugWrap converts canonical values into JSON-marshalable shapes: []byte
// stays []byte (base64), unions become {"case":..., "value":...} objects,
// and 64-bit integers become strings because JSON numbers are float64 and
// lose precision past 2^53.
func debugWrap(t *presentation.Type, v any) any {
	switch t.Kind() {
	case presentation.KindInt64:
		return strconv.FormatInt(v.(int64), 10)
	case presentation.KindUint64:
		return strconv.FormatUint(v.(uint64), 10)
	case presentation.KindUnion:
		u := v.(presentation.Union)
		idx := t.CaseIndex(u.Case)
		return map[string]any{"case": u.Case, "value": debugWrap(t.Cases()[idx].Type, u.Value)}
	case presentation.KindArray, presentation.KindVector:
		s := v.([]any)
		out := make([]any, len(s))
		for i, e := range s {
			out[i] = debugWrap(t.Elem(), e)
		}
		return out
	case presentation.KindStruct:
		m := v.(map[string]any)
		out := make(map[string]any, len(m))
		for _, f := range t.Fields() {
			out[f.Name] = debugWrap(f.Type, m[f.Name])
		}
		return out
	default:
		return v
	}
}

// debugUnwrap rebuilds canonical values from decoded JSON, coercing the
// float64 numbers JSON produces back into the declared widths.
func debugUnwrap(t *presentation.Type, raw any) (any, error) {
	switch t.Kind() {
	case presentation.KindVoid:
		if raw != nil {
			return nil, fmt.Errorf("encoding: debug void carries %T: %w", raw, presentation.ErrTypeMismatch)
		}
		return nil, nil
	case presentation.KindBytes:
		s, ok := raw.(string)
		if !ok {
			return nil, fmt.Errorf("encoding: debug bytes wants base64 string, got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		out, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("encoding: debug bytes: %w", err)
		}
		return out, nil
	case presentation.KindUnion:
		m, ok := raw.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("encoding: debug union wants object, got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		name, ok := m["case"].(string)
		if !ok {
			return nil, fmt.Errorf("encoding: debug union missing case: %w", presentation.ErrTypeMismatch)
		}
		idx := t.CaseIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("encoding: debug union unknown case %q: %w", name, presentation.ErrTypeMismatch)
		}
		val, err := debugUnwrap(t.Cases()[idx].Type, m["value"])
		if err != nil {
			return nil, err
		}
		return presentation.Union{Case: name, Value: val}, nil
	case presentation.KindArray, presentation.KindVector:
		s, ok := raw.([]any)
		if !ok {
			if raw == nil && t.Kind() == presentation.KindVector {
				return []any{}, nil
			}
			return nil, fmt.Errorf("encoding: debug sequence wants array, got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		out := make([]any, len(s))
		for i, e := range s {
			v, err := debugUnwrap(t.Elem(), e)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			out[i] = v
		}
		if t.Kind() == presentation.KindArray && len(out) != t.Len() {
			return nil, fmt.Errorf("encoding: debug array wants %d elements, got %d: %w",
				t.Len(), len(out), presentation.ErrTypeMismatch)
		}
		return out, nil
	case presentation.KindStruct:
		m, ok := raw.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("encoding: debug struct wants object, got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		out := make(map[string]any, len(t.Fields()))
		for _, f := range t.Fields() {
			fv, present := m[f.Name]
			if !present {
				return nil, fmt.Errorf("encoding: debug struct missing field %q: %w", f.Name, presentation.ErrTypeMismatch)
			}
			v, err := debugUnwrap(f.Type, fv)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", f.Name, err)
			}
			out[f.Name] = v
		}
		return out, nil
	case presentation.KindInt64:
		s, ok := raw.(string)
		if !ok {
			return nil, fmt.Errorf("encoding: debug i64 wants string, got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		x, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("encoding: debug i64: %w", err)
		}
		return x, nil
	case presentation.KindUint64:
		s, ok := raw.(string)
		if !ok {
			return nil, fmt.Errorf("encoding: debug u64 wants string, got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		x, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("encoding: debug u64: %w", err)
		}
		return x, nil
	case presentation.KindBool:
		b, ok := raw.(bool)
		if !ok {
			return nil, fmt.Errorf("encoding: debug bool got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		return b, nil
	case presentation.KindString:
		s, ok := raw.(string)
		if !ok {
			return nil, fmt.Errorf("encoding: debug string got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		return s, nil
	default:
		f, ok := raw.(float64)
		if !ok {
			return nil, fmt.Errorf("encoding: debug number got %T: %w", raw, presentation.ErrTypeMismatch)
		}
		return debugNumber(t, f)
	}
}

func debugNumber(t *presentation.Type, f float64) (any, error) {
	switch t.Kind() {
	case presentation.KindFloat32:
		return float32(f), nil
	case presentation.KindFloat64:
		return f, nil
	}
	if f != math.Trunc(f) {
		return nil, fmt.Errorf("encoding: debug %s got fractional %v: %w", t, f, presentation.ErrTypeMismatch)
	}
	// Large unsigned values exceed int64; route them through uint64.
	if f >= math.MaxInt64 {
		v, err := presentation.Coerce(t, uint64(f))
		if err != nil {
			return nil, err
		}
		return v, nil
	}
	v, err := presentation.Coerce(t, int64(f))
	if err != nil {
		return nil, err
	}
	return v, nil
}
