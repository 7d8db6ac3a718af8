// Package presentation implements the PEPt "Presentation" subsystem (§6 of
// the paper): the datatypes and APIs available to the service programmer.
//
// The paper models variable/event/call payloads on a C-like type system
// (§4.1): booleans, fixed-width integers, floating point, character strings,
// and compositions of those (vector, struct, union). This package provides
// the type descriptors, canonical value representation, structural equality,
// a human-readable signature syntax with a parser, and a registry for named
// types. Wire representation belongs to the sibling encoding package.
package presentation

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the categories of the C-like type system.
type Kind uint8

// Kinds. They start at 1 so the zero Kind is invalid and detectable.
const (
	KindBool Kind = iota + 1
	KindInt8
	KindInt16
	KindInt32
	KindInt64
	KindUint8
	KindUint16
	KindUint32
	KindUint64
	KindFloat32
	KindFloat64
	KindString
	KindBytes
	KindArray  // fixed-length homogeneous sequence
	KindVector // variable-length homogeneous sequence
	KindStruct // named fields in declaration order
	KindUnion  // tagged alternative
	KindVoid   // payload-less union case
)

// String implements fmt.Stringer using the signature token for the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt8:
		return "i8"
	case KindInt16:
		return "i16"
	case KindInt32:
		return "i32"
	case KindInt64:
		return "i64"
	case KindUint8:
		return "u8"
	case KindUint16:
		return "u16"
	case KindUint32:
		return "u32"
	case KindUint64:
		return "u64"
	case KindFloat32:
		return "f32"
	case KindFloat64:
		return "f64"
	case KindString:
		return "str"
	case KindBytes:
		return "bytes"
	case KindArray:
		return "array"
	case KindVector:
		return "vector"
	case KindStruct:
		return "struct"
	case KindUnion:
		return "union"
	case KindVoid:
		return "void"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Field is one member of a struct type.
type Field struct {
	Name string
	Type *Type
}

// Case is one alternative of a union type. Tag values are assigned densely
// from 0 in declaration order and travel on the wire.
type Case struct {
	Name string
	Type *Type // KindVoid for tag-only cases
}

// Type is an immutable type descriptor. Construct with the factory functions
// (Bool, Int32, Array, StructOf, ...); the zero Type is invalid.
type Type struct {
	kind   Kind
	elem   *Type   // array, vector
	length int     // array
	fields []Field // struct
	cases  []Case  // union
	sig    string  // memoized canonical signature
}

// Pre-built singleton descriptors for the primitive types. They are safe to
// share because Type is immutable (signatures are computed eagerly at
// construction, so there is no lazy state to race on).
var (
	typeBool    = &Type{kind: KindBool, sig: "bool"}
	typeInt8    = &Type{kind: KindInt8, sig: "i8"}
	typeInt16   = &Type{kind: KindInt16, sig: "i16"}
	typeInt32   = &Type{kind: KindInt32, sig: "i32"}
	typeInt64   = &Type{kind: KindInt64, sig: "i64"}
	typeUint8   = &Type{kind: KindUint8, sig: "u8"}
	typeUint16  = &Type{kind: KindUint16, sig: "u16"}
	typeUint32  = &Type{kind: KindUint32, sig: "u32"}
	typeUint64  = &Type{kind: KindUint64, sig: "u64"}
	typeFloat32 = &Type{kind: KindFloat32, sig: "f32"}
	typeFloat64 = &Type{kind: KindFloat64, sig: "f64"}
	typeString  = &Type{kind: KindString, sig: "str"}
	typeBytes   = &Type{kind: KindBytes, sig: "bytes"}
	typeVoid    = &Type{kind: KindVoid, sig: "void"}
)

// Bool returns the boolean type descriptor.
func Bool() *Type { return typeBool }

// Int8 returns the 8-bit signed integer type descriptor.
func Int8() *Type { return typeInt8 }

// Int16 returns the 16-bit signed integer type descriptor.
func Int16() *Type { return typeInt16 }

// Int32 returns the 32-bit signed integer type descriptor.
func Int32() *Type { return typeInt32 }

// Int64 returns the 64-bit signed integer type descriptor.
func Int64() *Type { return typeInt64 }

// Uint8 returns the 8-bit unsigned integer type descriptor.
func Uint8() *Type { return typeUint8 }

// Uint16 returns the 16-bit unsigned integer type descriptor.
func Uint16() *Type { return typeUint16 }

// Uint32 returns the 32-bit unsigned integer type descriptor.
func Uint32() *Type { return typeUint32 }

// Uint64 returns the 64-bit unsigned integer type descriptor.
func Uint64() *Type { return typeUint64 }

// Float32 returns the 32-bit IEEE-754 type descriptor.
func Float32() *Type { return typeFloat32 }

// Float64 returns the 64-bit IEEE-754 type descriptor.
func Float64() *Type { return typeFloat64 }

// String_ returns the character-string type descriptor. (The underscore
// avoids shadowing the Stringer convention on Type.)
func String_() *Type { return typeString }

// Bytes returns the opaque byte-sequence type descriptor.
func Bytes() *Type { return typeBytes }

// Void returns the payload-less type used for tag-only union cases.
func Void() *Type { return typeVoid }

// ArrayOf returns a fixed-length array type of n elements of elem.
func ArrayOf(n int, elem *Type) *Type {
	return freeze(&Type{kind: KindArray, elem: elem, length: n})
}

// VectorOf returns a variable-length sequence type of elem.
func VectorOf(elem *Type) *Type {
	return freeze(&Type{kind: KindVector, elem: elem})
}

// StructOf returns a struct type with the given fields, in order.
func StructOf(fields ...Field) *Type {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	return freeze(&Type{kind: KindStruct, fields: fs})
}

// freeze computes the canonical signature once, making the descriptor safe
// for concurrent use forever after.
func freeze(t *Type) *Type {
	var b strings.Builder
	t.writeSig(&b)
	t.sig = b.String()
	return t
}

// F is shorthand for constructing a Field.
func F(name string, t *Type) Field { return Field{Name: name, Type: t} }

// UnionOf returns a union type with the given cases, in order. Tags are the
// declaration indices.
func UnionOf(cases ...Case) *Type {
	cs := make([]Case, len(cases))
	copy(cs, cases)
	return freeze(&Type{kind: KindUnion, cases: cs})
}

// C is shorthand for constructing a Case. A nil type means void (tag-only).
func C(name string, t *Type) Case {
	if t == nil {
		t = typeVoid
	}
	return Case{Name: name, Type: t}
}

// Kind returns the type's kind.
func (t *Type) Kind() Kind { return t.kind }

// Elem returns the element type of an array or vector, nil otherwise.
func (t *Type) Elem() *Type { return t.elem }

// Len returns the fixed length of an array, 0 otherwise.
func (t *Type) Len() int {
	if t.kind != KindArray {
		return 0
	}
	return t.length
}

// Fields returns the struct fields (shared slice; callers must not mutate).
func (t *Type) Fields() []Field { return t.fields }

// Cases returns the union cases (shared slice; callers must not mutate).
func (t *Type) Cases() []Case { return t.cases }

// FieldIndex returns the index of the named struct field, or -1.
func (t *Type) FieldIndex(name string) int {
	for i, f := range t.fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// CaseIndex returns the tag of the named union case, or -1.
func (t *Type) CaseIndex(name string) int {
	for i, c := range t.cases {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks that the descriptor is well formed: known kinds, positive
// array lengths, unique non-empty field/case names, void only inside unions,
// and recursively valid component types.
func (t *Type) Validate() error { return t.validate(false, 0) }

// maxTypeDepth bounds recursion so hostile descriptors cannot overflow the
// stack; real avionics payloads are shallow.
const maxTypeDepth = 32

func (t *Type) validate(insideUnionCase bool, depth int) error {
	if t == nil {
		return fmt.Errorf("presentation: nil type: %w", ErrInvalidType)
	}
	if depth > maxTypeDepth {
		return fmt.Errorf("presentation: type nesting exceeds %d: %w", maxTypeDepth, ErrInvalidType)
	}
	switch t.kind {
	case KindVoid:
		if !insideUnionCase {
			return fmt.Errorf("presentation: void outside union case: %w", ErrInvalidType)
		}
		return nil
	case KindBool, KindInt8, KindInt16, KindInt32, KindInt64,
		KindUint8, KindUint16, KindUint32, KindUint64,
		KindFloat32, KindFloat64, KindString, KindBytes:
		return nil
	case KindArray:
		if t.length <= 0 {
			return fmt.Errorf("presentation: array length %d: %w", t.length, ErrInvalidType)
		}
		return t.elem.validate(false, depth+1)
	case KindVector:
		return t.elem.validate(false, depth+1)
	case KindStruct:
		if len(t.fields) == 0 {
			return fmt.Errorf("presentation: empty struct: %w", ErrInvalidType)
		}
		seen := make(map[string]bool, len(t.fields))
		for _, f := range t.fields {
			if f.Name == "" {
				return fmt.Errorf("presentation: unnamed struct field: %w", ErrInvalidType)
			}
			if !validIdent(f.Name) {
				return fmt.Errorf("presentation: field name %q not an identifier: %w", f.Name, ErrInvalidType)
			}
			if seen[f.Name] {
				return fmt.Errorf("presentation: duplicate field %q: %w", f.Name, ErrInvalidType)
			}
			seen[f.Name] = true
			if err := f.Type.validate(false, depth+1); err != nil {
				return fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
		return nil
	case KindUnion:
		if len(t.cases) == 0 {
			return fmt.Errorf("presentation: empty union: %w", ErrInvalidType)
		}
		seen := make(map[string]bool, len(t.cases))
		for _, c := range t.cases {
			if c.Name == "" {
				return fmt.Errorf("presentation: unnamed union case: %w", ErrInvalidType)
			}
			if !validIdent(c.Name) {
				return fmt.Errorf("presentation: case name %q not an identifier: %w", c.Name, ErrInvalidType)
			}
			if seen[c.Name] {
				return fmt.Errorf("presentation: duplicate case %q: %w", c.Name, ErrInvalidType)
			}
			seen[c.Name] = true
			if err := c.Type.validate(true, depth+1); err != nil {
				return fmt.Errorf("case %q: %w", c.Name, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("presentation: unknown kind %d: %w", t.kind, ErrInvalidType)
	}
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// String returns the canonical structural signature, e.g.
// "{lat:f64,lon:f64,fixes:[]u8}". Equal signatures imply structural equality.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	if t.sig != "" {
		return t.sig
	}
	// Hand-constructed Type literals (tests only) fall back to a fresh
	// walk; factory-built descriptors always have sig set.
	var b strings.Builder
	t.writeSig(&b)
	return b.String()
}

func (t *Type) writeSig(b *strings.Builder) {
	switch t.kind {
	case KindArray:
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(t.length))
		b.WriteByte(']')
		t.elem.writeSig(b)
	case KindVector:
		b.WriteString("[]")
		t.elem.writeSig(b)
	case KindStruct:
		b.WriteByte('{')
		for i, f := range t.fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			f.Type.writeSig(b)
		}
		b.WriteByte('}')
	case KindUnion:
		b.WriteByte('<')
		for i, c := range t.cases {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c.Name)
			b.WriteByte(':')
			c.Type.writeSig(b)
		}
		b.WriteByte('>')
	default:
		b.WriteString(t.kind.String())
	}
}

// Equal reports structural equality (field and case names included).
func (t *Type) Equal(other *Type) bool {
	if t == other {
		return true
	}
	if t == nil || other == nil {
		return false
	}
	return t.String() == other.String()
}

// ErrInvalidType tags descriptor validation failures.
var ErrInvalidType = errors.New("invalid type")

// ErrTypeMismatch tags value-vs-type check failures.
var ErrTypeMismatch = errors.New("type mismatch")
