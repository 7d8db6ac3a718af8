package protocol

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/qos"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Type:     MTEvent,
		Flags:    0x3,
		Encoding: 1,
		Priority: qos.PriorityHigh,
		Channel:  "mission.photo",
		Seq:      987654321,
		Payload:  []byte("payload-bytes"),
	}
	raw, err := EncodeFrame(f)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	got, err := DecodeFrame(raw)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.Type != f.Type || got.Flags != f.Flags || got.Encoding != f.Encoding ||
		got.Priority != f.Priority || got.Channel != f.Channel || got.Seq != f.Seq {
		t.Errorf("header mismatch: %+v vs %+v", got, f)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("payload mismatch: %q", got.Payload)
	}
}

func TestFrameAllTypesRoundTrip(t *testing.T) {
	for mt := MTAnnounce; mt < mtMax; mt++ {
		raw, err := EncodeFrame(&Frame{Type: mt, Channel: "c", Seq: uint64(mt)})
		if err != nil {
			t.Fatalf("encode %v: %v", mt, err)
		}
		got, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("decode %v: %v", mt, err)
		}
		if got.Type != mt {
			t.Errorf("type %v decoded as %v", mt, got.Type)
		}
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	raw, err := EncodeFrame(&Frame{Type: MTHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 || got.Channel != "" {
		t.Errorf("got %+v", got)
	}
}

func TestFrameEncodeErrors(t *testing.T) {
	if _, err := EncodeFrame(&Frame{Type: 0}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero type: %v", err)
	}
	if _, err := EncodeFrame(&Frame{Type: mtMax}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("sentinel type: %v", err)
	}
	long := strings.Repeat("x", MaxChannelLen+1)
	if _, err := EncodeFrame(&Frame{Type: MTEvent, Channel: long}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("long channel: %v", err)
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	good, err := EncodeFrame(&Frame{Type: MTEvent, Channel: "c", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeFrame(nil); err == nil {
		t.Error("nil input must fail")
	}
	if _, err := DecodeFrame([]byte{0x00, 0x01, 1, 1}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad magic: %v", err)
	}
	bad := append([]byte{}, good...)
	bad[2] = 99 // version byte
	if _, err := DecodeFrame(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: %v", err)
	}
	bad2 := append([]byte{}, good...)
	bad2[3] = 0 // type byte
	if _, err := DecodeFrame(bad2); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad type: %v", err)
	}
	if _, err := DecodeFrame(good[:8]); err == nil {
		t.Error("truncated header must fail")
	}
	// Version 1 (u32 channel length, u64 seq) is refused, not misread.
	v1 := []byte{0x55, 0x41, 1, byte(MTEvent), 0, 0, 0, 0, 0, 0, 1, 'c', 0, 0, 0, 0, 0, 0, 0, 1}
	if _, err := DecodeFrame(v1); !errors.Is(err, ErrVersion) {
		t.Errorf("version 1 frame: %v", err)
	}
	// The seq has one wire form: an overlong uvarint is corrupt.
	head := []byte{0x55, 0x41, 2, byte(MTEvent), 0, 0, 0, 1, 'c'}
	if _, err := DecodeFrame(append(head[:9:9], 0x81, 0x00)); !errors.Is(err, encoding.ErrCorrupt) {
		t.Errorf("overlong seq: %v", err)
	}
	if _, err := DecodeFrame(append(head[:9:9], 0x81)); !errors.Is(err, encoding.ErrTruncated) {
		t.Errorf("truncated seq: %v", err)
	}
	if f, err := DecodeFrame(append(head[:9:9], 0x81, 0x01)); err != nil || f.Seq != 129 {
		t.Errorf("two-byte seq: %+v, %v", f, err)
	}
	// A budget flag implies a non-zero word.
	zeroBudget := append(append(head[:9:9], 1), 0, 0, 0, 0)
	zeroBudget[4] = FlagHasBudget
	if _, err := DecodeFrame(zeroBudget); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero budget word: %v", err)
	}
}

// FrameWireSize is exact at every seq width: the header is 8 bytes plus
// the channel plus the seq's uvarint.
func TestFrameWireSizeSeqWidths(t *testing.T) {
	for _, c := range []struct {
		seq   uint64
		width int
	}{{0, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}, {1<<21 - 1, 3}, {1 << 63, 10}, {math.MaxUint64, 10}} {
		f := &Frame{Type: MTEvent, Channel: "ch", Seq: c.seq, Payload: []byte{1}}
		raw, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := 8 + 2 + c.width + 1; len(raw) != want || FrameWireSize(f) != want {
			t.Errorf("seq %d: %d bytes, FrameWireSize %d, want %d", c.seq, len(raw), FrameWireSize(f), want)
		}
		if got, err := DecodeFrame(raw); err != nil || got.Seq != c.seq {
			t.Errorf("seq %d decoded as %v, %v", c.seq, got, err)
		}
	}
}

func TestFrameBudgetRoundTrip(t *testing.T) {
	// An MTCall carrying its remaining deadline budget must survive the
	// codec at microsecond granularity.
	f := &Frame{
		Type:     MTCall,
		Priority: qos.PriorityNormal,
		Channel:  "nav.compute",
		Seq:      42,
		Budget:   137 * time.Millisecond,
		Payload:  []byte{1, 2, 3},
	}
	raw, err := EncodeFrame(f)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	got, err := DecodeFrame(raw)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.Budget != f.Budget {
		t.Errorf("budget %v, want %v", got.Budget, f.Budget)
	}
	if got.Flags&FlagHasBudget == 0 {
		t.Error("FlagHasBudget not set on decode")
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("payload corrupted by budget word: %v", got.Payload)
	}
	if got.Seq != f.Seq || got.Channel != f.Channel {
		t.Errorf("header mismatch: %+v", got)
	}
}

func TestFrameBudgetEdgeCases(t *testing.T) {
	// Zero budget: no flag, no extra word, decodes to zero.
	raw, err := EncodeFrame(&Frame{Type: MTCall, Channel: "f", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Budget != 0 || got.Flags&FlagHasBudget != 0 {
		t.Errorf("zero budget leaked onto the wire: %+v", got)
	}

	// A stale FlagHasBudget with no budget must be cleared by encode, not
	// corrupt the payload framing.
	raw, err = EncodeFrame(&Frame{Type: MTCall, Flags: FlagHasBudget, Channel: "f", Seq: 1, Payload: []byte{9}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeFrame(raw); err != nil {
		t.Fatal(err)
	}
	if got.Budget != 0 || !bytes.Equal(got.Payload, []byte{9}) {
		t.Errorf("stale flag mishandled: %+v", got)
	}

	// Sub-microsecond budgets round up to the smallest wire value instead
	// of decoding to "no budget".
	raw, err = EncodeFrame(&Frame{Type: MTCall, Channel: "f", Seq: 1, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeFrame(raw); err != nil {
		t.Fatal(err)
	}
	if got.Budget != time.Microsecond {
		t.Errorf("tiny budget decoded as %v", got.Budget)
	}

	// Oversized budgets saturate rather than wrap.
	raw, err = EncodeFrame(&Frame{Type: MTCall, Channel: "f", Seq: 1, Budget: 100 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeFrame(raw); err != nil {
		t.Fatal(err)
	}
	if got.Budget != maxBudget {
		t.Errorf("oversized budget decoded as %v, want %v", got.Budget, maxBudget)
	}

	// Negative budgets are a programming error, rejected at encode.
	if _, err := EncodeFrame(&Frame{Type: MTCall, Channel: "f", Budget: -time.Second}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative budget: %v", err)
	}

	// A flagged frame truncated before the budget word must fail cleanly.
	raw, err = EncodeFrame(&Frame{Type: MTCall, Channel: "f", Seq: 1, Budget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(raw[:len(raw)-4]); err == nil {
		t.Error("truncated budget word accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MTEvent.String() != "event" || MTFileNack.String() != "file-nack" {
		t.Error("MsgType names wrong")
	}
	if MTBusy.String() != "busy" {
		t.Error("MTBusy name wrong")
	}
	if !strings.Contains(MsgType(200).String(), "200") {
		t.Error("unknown type string")
	}
	if MsgType(0).Valid() || mtMax.Valid() {
		t.Error("Valid() bounds wrong")
	}
}

// TestFrameAckBlock: a header ack block rides any frame after the seq and
// the budget word, is sized exactly by FrameWireSize, and acknowledges what
// the same list would as an MTAck. The flag follows the block: set with
// AckLargest, cleared without it.
func TestFrameAckBlock(t *testing.T) {
	seqs := []uint64{1 << 20, 1<<20 - 1, 1<<20 - 5, 1<<20 - 9, 1<<20 - 10}
	ranges, rest := AppendAckBlock(nil, seqs, 64)
	if len(rest) != 0 {
		t.Fatalf("a 64-byte room left %d seqs", len(rest))
	}
	for _, c := range []struct {
		name string
		f    Frame
		adds int // bytes the block adds
	}{
		{"lone ack", Frame{Type: MTCall, Channel: "fn", Seq: 1<<20 + 3, AckLargest: 1 << 20, Payload: []byte("args")}, 4},
		{"three ranges", Frame{Type: MTCall, Channel: "fn", Seq: 7, AckLargest: seqs[0], AckRanges: ranges}, 4 + len(ranges)},
		{"with budget", Frame{Type: MTCall, Flags: FlagHasAck, Channel: "fn", Seq: 7, Budget: time.Second, AckLargest: 9}, 2},
	} {
		plain := c.f
		plain.AckLargest, plain.AckRanges = 0, nil
		raw, err := EncodeFrame(&c.f)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(raw) - FrameWireSize(&plain); got != c.adds || FrameWireSize(&c.f) != len(raw) {
			t.Errorf("%s: the block adds %d bytes (want %d), FrameWireSize %d of %d", c.name, got, c.adds, FrameWireSize(&c.f), len(raw))
		}
		got, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Flags&FlagHasAck == 0 || got.AckLargest != c.f.AckLargest || !bytes.Equal(got.AckRanges, c.f.AckRanges) ||
			got.Budget != c.f.Budget || !bytes.Equal(got.Payload, c.f.Payload) {
			t.Errorf("%s: decoded as %+v", c.name, got)
		}
		var acked []uint64
		if err := EachAckBlockRange(got, func(lo, hi uint64) {
			for s := hi; s >= lo; s-- {
				acked = append(acked, s)
			}
		}); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.name == "three ranges" && !slices.Equal(acked, seqs) {
			t.Errorf("%s: acknowledges %v, want %v", c.name, acked, seqs)
		}
	}
	// A stale flag with no block is cleared; ranges with no largest seq
	// cannot be encoded.
	raw, err := EncodeFrame(&Frame{Type: MTEvent, Flags: FlagHasAck, Channel: "c", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeFrame(raw); err != nil || got.Flags&FlagHasAck != 0 || got.AckLargest != 0 {
		t.Errorf("stale ack flag: %+v, %v", got, err)
	}
	if _, err := EncodeFrame(&Frame{Type: MTEvent, Seq: 1, AckRanges: []byte{1}}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("ranges without a largest seq: %v", err)
	}
}

// TestFrameAckBlockRejects: every malformed block is refused, so a block
// has one wire form. These are the committed FuzzDecodeFrame seeds.
func TestFrameAckBlockRejects(t *testing.T) {
	head := []byte{0x55, 0x41, 2, byte(MTReturn), FlagHasAck, 0, byte(qos.PriorityNormal), 1, 'r', 5}
	for name, block := range map[string][]byte{
		"flag without block":     {},
		"overlong largest":       {0x80, 0x00, 0x00, 'o', 'k'},
		"zero largest":           {0x00, 0x00, 'o', 'k'},
		"ranges past the end":    {0x64, 0x05, 0x00, 0x01},
		"overlong ranges length": {0x64, 0x80, 0x00, 'o', 'k'},
		"lone zero list":         {0x64, 0x01, 0x00, 'o', 'k'},
		"over MaxAckSeqs":        {0xa0, 0x8d, 0x06, 0x04, 0xa0, 0x1f, 0x00, 0x64, 'o', 'k'},
	} {
		if f, err := DecodeFrame(append(head[:len(head):len(head)], block...)); err == nil {
			t.Errorf("%s: accepted as %+v", name, f)
		}
	}
	if _, err := DecodeFrame(append(head[:len(head):len(head)], 0x64, 0x00, 'o', 'k')); err != nil {
		t.Errorf("a well-formed lone ack: %v", err)
	}
}
