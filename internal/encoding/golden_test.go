package encoding_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"uavmw/internal/encoding"
	"uavmw/internal/flightsim"
	"uavmw/internal/presentation"
	"uavmw/internal/presentation/ptest"
	"uavmw/internal/services"
)

// TestWireBytesAreGolden pins the binary encoding of the benchmark's three
// value shapes to the bytes the two-pass Coerce + Marshal path produced
// before the fused encoder replaced it (recorded at commit fe80e41): the
// telemetry sample, the alarm event, and the RPC arguments (a position) and
// return value. Every encode entry point must reproduce them.
func TestWireBytesAreGolden(t *testing.T) {
	cases := []struct {
		name string
		typ  *presentation.Type
		val  any
		want string
	}{
		{"TypePosition", services.TypePosition,
			services.PositionValue(flightsim.State{Lat: 41.275, Lon: 1.987, AltM: 120, HeadingDeg: 270, SpeedMS: 25, Waypoint: 2}),
			"4044a333333333333fffcac083126e9842f0000041c8000043870000030000000200"},
		{"TypeDetection", services.TypeDetection,
			map[string]any{"name": "det.alarm", "count": uint32(7), "x": uint32(1024), "y": uint32(768), "score": 0.875},
			"000000096465742e616c61726d0000000700000400000003003fec000000000000"},
		{"rpc return", presentation.MustParse("{ok:bool,index:u32}"),
			map[string]any{"ok": true, "index": uint32(0x25)},
			"0100000025"},
	}
	if !ptest.PositionType.Equal(services.TypePosition) || !ptest.DetectionType.Equal(services.TypeDetection) {
		t.Error("ptest's position/detection signatures drifted from the services descriptors")
	}
	for _, c := range cases {
		want, err := hex.DecodeString(c.want)
		if err != nil {
			t.Fatal(err)
		}
		header := []byte("hdr")
		appended, err := encoding.Binary{}.AppendValue(append([]byte(nil), header...), c.typ, c.val)
		if err != nil {
			t.Fatalf("%s: AppendValue: %v", c.name, err)
		}
		marshaled, err := encoding.Binary{}.Marshal(c.typ, c.val)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", c.name, err)
		}
		w := encoding.NewWriter(0)
		if err := encoding.MustCompile(c.typ).Encode(w, c.val); err != nil {
			t.Fatalf("%s: Codec.Encode: %v", c.name, err)
		}
		for path, got := range map[string][]byte{
			"AppendValue": appended[len(header):], "Marshal": marshaled, "Codec.Encode": w.Bytes(),
		} {
			if !bytes.Equal(got, want) {
				t.Errorf("%s via %s:\n got  %x\n want %x", c.name, path, got, want)
			}
		}
	}
}
