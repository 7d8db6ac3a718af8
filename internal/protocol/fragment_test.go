package protocol

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// fragmentAll materializes every fragment of raw the way a best-effort
// sender does: exact-size buffers, the message id as frame seq, no flags.
func fragmentAll(t testing.TB, raw []byte, msgID uint64, mtu int) [][]byte {
	t.Helper()
	split, err := Split(raw, msgID, mtu)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, split.Count())
	for i := range out {
		out[i] = split.Append(make([]byte, 0, split.WireSize(i, msgID)), i, msgID, 0)
		if len(out[i]) != split.WireSize(i, msgID) {
			t.Fatalf("fragment %d is %d bytes, WireSize said %d", i, len(out[i]), split.WireSize(i, msgID))
		}
	}
	return out
}

// epoch is the instant the reassembly tests offer their fragments at.
var epoch = time.Unix(1_000_000, 0)

// offer hands one fragment to p at epoch.
func offer(p *Peer, f *Frame) ([]byte, error) {
	msg, _, err := p.Offer(epoch, f)
	return msg, err
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, size := range []int{1401, 2800, 5000, 100_000} {
		raw := make([]byte, size)
		r.Read(raw)
		frags := fragmentAll(t, raw, 42, 1400)
		if len(frags) < 2 {
			t.Fatalf("size %d produced %d fragments", size, len(frags))
		}
		var ra Peer
		var out []byte
		for i, fr := range frags {
			f, err := DecodeFrame(fr)
			if err != nil {
				t.Fatalf("fragment %d decode: %v", i, err)
			}
			if f.Type != MTFragment {
				t.Fatalf("fragment %d type %v", i, f.Type)
			}
			got, err := offer(&ra, f)
			if err != nil {
				t.Fatalf("Offer %d: %v", i, err)
			}
			if i < len(frags)-1 && got != nil {
				t.Fatal("complete before final fragment")
			}
			if i == len(frags)-1 {
				out = got
			}
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("size %d: reassembly mismatch", size)
		}
		if len(ra.partials) != 0 || ra.partialBytes != 0 {
			t.Errorf("completed message still pending: %d partials charged %d bytes", len(ra.partials), ra.partialBytes)
		}
	}
}

func TestFragmentReassembleOutOfOrderAndDuplicates(t *testing.T) {
	raw := make([]byte, 10_000)
	rand.New(rand.NewSource(8)).Read(raw)
	frags := fragmentAll(t, raw, 7, 1400)
	// Shuffle and duplicate every fragment.
	order := rand.New(rand.NewSource(9)).Perm(len(frags))
	var ra Peer
	var out []byte
	offered := 0
	for _, idx := range order {
		f, _ := DecodeFrame(frags[idx])
		got, err := offer(&ra, f)
		if err != nil {
			t.Fatal(err)
		}
		offered++
		if got != nil {
			out = got
		}
		// Duplicate offer of same fragment must be harmless.
		if got2, err := offer(&ra, f); err != nil {
			t.Fatal(err)
		} else if got2 != nil && out == nil {
			out = got2
		}
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("out-of-order reassembly mismatch")
	}
}

func TestFragmentSenderIsolation(t *testing.T) {
	raw := make([]byte, 3000)
	frags := fragmentAll(t, raw, 5, 1400)
	ra := NewARQ(func(transport.NodeID, []byte) error { return nil }, WithClock(stillClock{}))
	defer ra.Close()
	// Same msgID from two senders must not cross-pollinate.
	f0, _ := DecodeFrame(frags[0])
	if got, _ := ra.Offer(epoch, "a", f0); got != nil {
		t.Fatal("premature completion")
	}
	for i, fr := range frags {
		f, _ := DecodeFrame(fr)
		got, err := ra.Offer(epoch, "b", f)
		if err != nil {
			t.Fatal(err)
		}
		if i == len(frags)-1 && got == nil {
			t.Fatal("sender b never completed")
		}
	}
	if ra.Partials() != 1 {
		t.Errorf("pending = %d, want 1 (sender a partial)", ra.Partials())
	}
}

// TestFragmentTTLExpiry leaves a message half reassembled: the peer's
// deadline is when the partial expires, OnTimer keeps it up to then and
// drops it after, and a later fragment of another message restarts
// nothing of it.
func TestFragmentTTLExpiry(t *testing.T) {
	raw := make([]byte, 3000)
	frags := fragmentAll(t, raw, 11, 1400)
	var ra Peer
	f0, _ := DecodeFrame(frags[0])
	if _, err := offer(&ra, f0); err != nil {
		t.Fatal(err)
	}
	if len(ra.partials) != 1 {
		t.Fatal("fragment not pending")
	}
	expiry := epoch.Add(ReassemblyTTL)
	if at := ra.Deadline(); at.Before(expiry) || at.After(expiry.Add(time.Millisecond)) {
		t.Errorf("deadline %v after the fragment, want the %v TTL", at.Sub(epoch), ReassemblyTTL)
	}
	var due Due
	ra.OnTimer(expiry, DefaultARQRetries, &due)
	if len(ra.partials) != 1 {
		t.Fatal("partial dropped before its TTL ran out")
	}
	ra.OnTimer(expiry.Add(time.Millisecond), DefaultARQRetries, &due)
	if len(ra.partials) != 0 || ra.partialBytes != 0 || !ra.Deadline().IsZero() {
		t.Errorf("expired partial not dropped: %d partials charged %d bytes", len(ra.partials), ra.partialBytes)
	}
}

func TestFragmentBadInputs(t *testing.T) {
	var p Peer
	ra := &p
	// Non-fragment frame.
	if _, err := offer(ra, &Frame{Type: MTEvent}); err == nil {
		t.Error("non-fragment frame must fail")
	}
	// Truncated fragment header.
	if _, err := offer(ra, &Frame{Type: MTFragment, Payload: []byte{1, 2}}); err == nil {
		t.Error("truncated header must fail")
	}
	// index >= total.
	w := fragHeader(1, 5, 2)
	if _, err := offer(ra, &Frame{Type: MTFragment, Payload: w}); err == nil {
		t.Error("index >= total must fail")
	}
	// total == 0.
	w = fragHeader(1, 0, 0)
	if _, err := offer(ra, &Frame{Type: MTFragment, Payload: w}); err == nil {
		t.Error("zero total must fail")
	}
}

func fragHeader(msgID uint64, index, total uint16) []byte {
	out := make([]byte, 12)
	for i := 0; i < 8; i++ {
		out[7-i] = byte(msgID >> (8 * i))
	}
	out[8], out[9] = byte(index>>8), byte(index)
	out[10], out[11] = byte(total>>8), byte(total)
	return out
}

func TestFragmentTooManyFragments(t *testing.T) {
	raw := make([]byte, maxFragments+1)
	if _, err := Split(raw, 1, fragOverhead+1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("fragment count beyond cap: err = %v, want ErrBadFrame", err)
	}
	// An MTU the fragment headers alone fill cannot carry anything.
	if _, err := Split(raw, 1, fragOverhead); !errors.Is(err, ErrBadFrame) {
		t.Errorf("mtu with no room for data: err = %v, want ErrBadFrame", err)
	}
}

// TestSplitRefusesWhatReassemblyCannotHold finds the largest message Split
// takes at the default MTU: it reassembles at a peer, fragments in any
// order, within the peer's budget and evicting nothing, while one byte more
// is refused at the sender, where it would otherwise be acknowledged
// fragment by fragment and then evict itself.
func TestSplitRefusesWhatReassemblyCannotHold(t *testing.T) {
	chunk := DefaultMTU - fragOverhead
	largest := reassemblyBudget
	for ; largest > 0; largest-- {
		if partialCharge(largest, (largest+chunk-1)/chunk) <= reassemblyBudget {
			break
		}
	}
	if largest < 1_000_000 {
		t.Fatalf("the largest message is %d bytes, want about 1 MB", largest)
	}
	if _, err := Split(make([]byte, largest+1), 1, DefaultMTU); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Split of %d bytes: %v, want ErrBadFrame", largest+1, err)
	}

	raw := make([]byte, largest)
	rand.New(rand.NewSource(5)).Read(raw)
	frags := fragmentAll(t, raw, 9, DefaultMTU)
	rand.New(rand.NewSource(6)).Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
	var p Peer
	var out []byte
	for i, fr := range frags {
		f, err := DecodeFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		msg, evicted, err := p.Offer(epoch, f)
		if err != nil || evicted != 0 {
			t.Fatalf("fragment %d of %d: %d evicted, %v", i, len(frags), evicted, err)
		}
		if p.partialBytes > reassemblyBudget {
			t.Fatalf("fragment %d of %d: the partial is charged %d bytes, over the %d budget", i, len(frags), p.partialBytes, reassemblyBudget)
		}
		out = msg
	}
	if !bytes.Equal(out, raw) {
		t.Errorf("the %d-byte message did not reassemble", largest)
	}
}

func TestFragmentMTUDefault(t *testing.T) {
	raw := make([]byte, DefaultMTU+1)
	frags := fragmentAll(t, raw, 1, 0)
	if len(frags) != 2 {
		t.Errorf("default MTU fragmentation produced %d parts", len(frags))
	}
}

// TestFragmentsFitMTUAndInheritPriority is the fragmenter's contract over
// frame sizes {mtu+1, 2·mtu, 5000, 100 000} × every priority: every emitted
// datagram is at most mtu bytes with its headers (the reason fragments
// exist), carries the original frame's priority in its own header so
// priority-peeking send paths (ARQ resends, egress laning) keep every
// fragment in the original class, takes the sender's per-fragment seq and
// flags, and the set reassembles to the original bytes. Reliable fragments
// draw their seq after the split, so every other fragment takes a 10-byte
// seq: the split must budget for the widest one.
func TestFragmentsFitMTUAndInheritPriority(t *testing.T) {
	const mtu = 1400
	for _, pr := range qos.Levels() {
		for _, size := range []int{mtu + 1, 2 * mtu, 5000, 100_000} {
			f := &Frame{Type: MTFileChunk, Priority: pr, Channel: "big", Seq: 7}
			f.Payload = make([]byte, size-FrameWireSize(f))
			rand.New(rand.NewSource(int64(size))).Read(f.Payload)
			raw, err := EncodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			split, err := Split(raw, 7, mtu)
			if err != nil {
				t.Fatal(err)
			}
			if split.Count() < 2 {
				t.Fatalf("%d bytes at %v: expected fragmentation, got %d part(s)", size, pr, split.Count())
			}
			var ra Peer
			var out []byte
			for i := 0; i < split.Count(); i++ {
				seq := uint64(100 + i)
				if i%2 == 1 {
					seq = math.MaxUint64 - uint64(i)
				}
				part := split.Append(nil, i, seq, FlagAckRequired)
				if len(part) > mtu || len(part) != split.WireSize(i, seq) {
					t.Fatalf("%d bytes at %v: fragment %d is %d bytes (WireSize %d), mtu %d",
						size, pr, i, len(part), split.WireSize(i, seq), mtu)
				}
				if got := PeekPriority(part); got != pr {
					t.Fatalf("PeekPriority(fragment %d) = %v, want %v", i, got, pr)
				}
				pf, err := DecodeFrame(part)
				if err != nil {
					t.Fatal(err)
				}
				if pf.Type != MTFragment || pf.Priority != pr || pf.Seq != seq || pf.Flags != FlagAckRequired {
					t.Fatalf("fragment %d header = %v pr %v seq %d flags %#x, want fragment pr %v seq %d flags %#x",
						i, pf.Type, pf.Priority, pf.Seq, pf.Flags, pr, seq, FlagAckRequired)
				}
				if out, err = offer(&ra, pf); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out, raw) {
				t.Fatalf("%d bytes at %v: reassembly differs from the original frame", size, pr)
			}
		}
	}
}
