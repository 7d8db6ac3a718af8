package fabrictest

import (
	"errors"
	"testing"

	"uavmw/internal/fabric"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
)

// The double is every side interface an engine feature-tests for.
var (
	_ fabric.Fabric       = (*Fabric)(nil)
	_ fabric.Clocked      = (*Fabric)(nil)
	_ fabric.Instrumented = (*Fabric)(nil)
)

// TestRecordIsACopy changes the caller's frame and payload after each kind
// of send, as an engine recycling its pooled buffers does, and checks that
// neither the record nor a held completion's frame moves.
func TestRecordIsACopy(t *testing.T) {
	f := New(t, "n")
	f.Hold("held")
	sends := []func(*protocol.Frame){
		func(fr *protocol.Frame) { _ = f.SendBestEffort("peer", fr) },
		func(fr *protocol.Frame) { _ = f.SendGroup("g", fr) },
		func(fr *protocol.Frame) { f.SendReliable("peer", fr, qos.ReliableARQ, nil) },
		func(fr *protocol.Frame) { f.SendReliable("held", fr, qos.ReliableARQ, nil) },
	}
	for _, send := range sends {
		payload := []byte("payload")
		fr := &protocol.Frame{Type: protocol.MTEvent, Channel: "t", Seq: 9, Payload: payload}
		send(fr)
		fr.Type, fr.Channel, fr.Seq = protocol.MTSample, "changed", 10
		copy(payload, "changed")
	}
	got := f.Sent()
	if len(got) != len(sends) || got[3].Held == nil || got[3].Held.Frame != got[3].Frame {
		t.Fatalf("recorded %+v, want %d sends, the last one held", got, len(sends))
	}
	for i, s := range got {
		if fr := s.Frame; fr.Type != protocol.MTEvent || fr.Channel != "t" || fr.Seq != 9 || string(fr.Payload) != "payload" {
			t.Errorf("send %d recorded as %v %q seq %d %q after the caller changed its frame",
				i, fr.Type, fr.Channel, fr.Seq, fr.Payload)
		}
	}
}

// TestZeroSeqIsAssigned checks the double numbers frames as the container
// does: a zero Seq is drawn from the node's counter and written into the
// caller's frame, a non-zero one is kept, and a batch's zero stays zero.
func TestZeroSeqIsAssigned(t *testing.T) {
	f := New(t, "n")
	if id := f.NextSeq(); id != 1 {
		t.Fatalf("first NextSeq = %d, want 1", id)
	}
	zero := &protocol.Frame{Type: protocol.MTEvent}
	_ = f.SendGroup("g", zero)
	kept := &protocol.Frame{Type: protocol.MTEvent, Seq: 77}
	f.SendReliable("peer", kept, qos.ReliableARQ, nil)
	batch := &protocol.Frame{Type: protocol.MTBatch}
	_ = f.SendBestEffort("peer", batch)
	if zero.Seq != 2 || kept.Seq != 77 || batch.Seq != 0 {
		t.Fatalf("seqs after send: zero %d, set %d, batch %d; want 2, 77, 0", zero.Seq, kept.Seq, batch.Seq)
	}
	for i, want := range []uint64{2, 77, 0} {
		if got := f.Sent()[i].Frame.Seq; got != want {
			t.Errorf("send %d recorded with seq %d, want %d", i, got, want)
		}
	}
	if id := f.NextSeq(); id != 3 {
		t.Errorf("NextSeq after one assignment = %d, want 3", id)
	}
}

// TestHeldCompletionFiresOnce releases one held send twice and closes the
// double twice with another still held: each completion fires exactly
// once, the released one with the test's outcome, the other with
// ErrClosed.
func TestHeldCompletionFiresOnce(t *testing.T) {
	f := New(t, "n")
	f.Hold()
	var outcomes [2][]error
	for i := range outcomes {
		f.SendReliable("peer", &protocol.Frame{Type: protocol.MTCall}, qos.ReliableARQ,
			func(err error) { outcomes[i] = append(outcomes[i], err) })
	}
	if len(outcomes[0])+len(outcomes[1]) != 0 {
		t.Fatalf("held sends completed before release: %v", outcomes)
	}
	released := errors.New("released")
	first := f.NextHeld()
	first.Release(released)
	first.Release(nil)
	f.Close()
	f.Close()
	first.Release(nil)
	f.NextHeld().Release(nil)
	if len(outcomes[0]) != 1 || outcomes[0][0] != released {
		t.Errorf("released send completed with %v, want once with %v", outcomes[0], released)
	}
	if len(outcomes[1]) != 1 || !errors.Is(outcomes[1][0], ErrClosed) {
		t.Errorf("send held at close completed with %v, want once with ErrClosed", outcomes[1])
	}
}
