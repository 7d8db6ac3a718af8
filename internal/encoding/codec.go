package encoding

import "uavmw/internal/presentation"

// Codec binds the package's one encode walk (AppendValue) and one decode
// walk (DecodeValue) to a type validated once, for callers that hold a
// descriptor for the lifetime of a topic.
type Codec struct {
	typ *presentation.Type
}

// Compile builds a codec for t. The descriptor must validate.
func Compile(t *presentation.Type) (*Codec, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Codec{typ: t}, nil
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
func (c *Codec) Decode(r *Reader) (any, error) { return DecodeValue(r, c.typ) }

// Marshal encodes into a fresh byte slice.
func (c *Codec) Marshal(v any) ([]byte, error) { return Marshal(c.typ, v) }

// Unmarshal decodes a full buffer, rejecting trailing bytes.
func (c *Codec) Unmarshal(data []byte) (any, error) { return Unmarshal(c.typ, data) }
