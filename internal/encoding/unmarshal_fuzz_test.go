package encoding

import (
	"bytes"
	"testing"

	"uavmw/internal/presentation"
)

// FuzzUnmarshal feeds arbitrary bytes, as a peer may send them, to the one
// decode walk under any signature. It must not panic; what it accepts must
// be canonical; and every accepted input must re-encode to exactly the bytes
// it came from, so each value has one wire form.
func FuzzUnmarshal(f *testing.F) {
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
		v, err := Unmarshal(typ, data)
		if err != nil {
			return
		}
		if err := presentation.Check(typ, v); err != nil {
			t.Fatalf("%s: decoded %#v is not canonical: %v", typ, v, err)
		}
		back, err := Marshal(typ, v)
		if err != nil {
			t.Fatalf("%s: decoded %#v does not encode: %v", typ, v, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%s: %x decodes to %#v, which encodes as %x", typ, data, v, back)
		}
	})
}
