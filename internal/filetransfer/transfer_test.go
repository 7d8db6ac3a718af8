package filetransfer

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

func subscribeFrame(name string, token uint64) *protocol.Frame {
	return &protocol.Frame{Type: protocol.MTFileSubscribe, Channel: name,
		Payload: binary.BigEndian.AppendUint64(nil, token)}
}

func ackFrame(name string, revision, token uint64) *protocol.Frame {
	return &protocol.Frame{Type: protocol.MTFileAck, Channel: name, Payload: appendAck(nil, revision, token)}
}

func subscribed(o *Offer, node transport.NodeID) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.subscribers[node] != nil
}

// The completion ack of a fetch that has returned can reach the publisher
// after the same node's next subscribe. It names the old fetch and must not
// end the new one's subscription.
func TestAckEndsOnlyTheFetchItNames(t *testing.T) {
	e := New(fabrictest.New(t, "pub"))
	o, err := e.Offer("file", "svc", seqBytes(3000), qos.TransferQoS{ChunkSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	e.HandleSubscribe("sub", subscribeFrame("file", 1))
	e.HandleNack("sub", &protocol.Frame{Type: protocol.MTFileNack, Channel: "file",
		Payload: appendMissing(binary.BigEndian.AppendUint64(nil, 1), []bool{true, false, true})})
	e.HandleSubscribe("sub", subscribeFrame("file", 2))
	o.mu.Lock()
	restarted := o.subscribers["sub"].missing == nil
	o.mu.Unlock()
	if !restarted {
		t.Error("a subscribe under a new token kept the previous fetch's missing set")
	}
	e.HandleAck("sub", ackFrame("file", 1, 1))
	if !subscribed(o, "sub") {
		t.Fatal("the previous fetch's ack cancelled the current subscription")
	}
	e.HandleAck("sub", ackFrame("file", 1, 2))
	if subscribed(o, "sub") {
		t.Fatal("the current fetch's ack left it subscribed")
	}
}

// A fetch takes its transfer from the provider it subscribed to and from
// nobody else on the group.
func TestFetchIgnoresOtherSenders(t *testing.T) {
	f := fabrictest.New(t, "sub")
	provides(f, "pub", "file")
	e := New(f)
	got := startFetch(t, e, "file")
	want, forged := seqBytes(2500), make([]byte, 2500)
	for i := 0; i < 3; i++ {
		e.HandleChunk("mallory", chunkFrame("file", 9, forged, 1000, i))
	}
	for i := 0; i < 3; i++ {
		e.HandleChunk("pub", chunkFrame("file", 1, want, 1000, i))
	}
	if res := <-got; res.err != nil || res.rev != 1 || !bytes.Equal(res.data, want) {
		t.Fatalf("fetch: rev %d err %v, %d bytes", res.rev, res.err, len(res.data))
	}
}

// The last chunk of a multi-chunk file says nothing about the size of the
// others, so heard before anything else of its revision it cannot be placed:
// it is dropped, the next query's NACK names it, and the file still arrives
// byte-identical.
func TestLastChunkFirstIsRecoveredByNack(t *testing.T) {
	f := fabrictest.New(t, "sub")
	provides(f, "pub", "file")
	e := New(f)
	got := startFetch(t, e, "file")
	const chunkSize = 1000
	want := seqBytes(3*chunkSize + 17)
	for _, i := range []int{3, 1, 0, 2} {
		e.HandleChunk("pub", chunkFrame("file", 1, want, chunkSize, i))
	}
	e.HandleQuery("pub", &protocol.Frame{Type: protocol.MTFileQuery, Channel: "file",
		Payload: appendFileMeta(nil, 1, 0, chunkSize, 4)})
	var nack *protocol.Frame
	for _, fr := range f.Frames(fabrictest.Reliable) {
		if fr.Type == protocol.MTFileNack {
			nack = fr
		}
	}
	if nack == nil {
		t.Fatal("no NACK after a round that could not place the last chunk")
	}
	wantNack := appendMissing(binary.BigEndian.AppendUint64(nil, 1), []bool{true, true, true, false})
	if !bytes.Equal(nack.Payload, wantNack) {
		t.Fatalf("NACK = %x, want %x (chunk 3 alone)", nack.Payload, wantNack)
	}
	e.HandleChunk("pub", chunkFrame("file", 1, want, chunkSize, 3))
	if res := <-got; res.err != nil || !bytes.Equal(res.data, want) {
		t.Fatalf("fetch: err %v, %d bytes, want %d identical", res.err, len(res.data), len(want))
	}
}

// Geometry is a peer's word: nothing a frame says may size a buffer past the
// bound, index outside it, or contradict what the fetch has adopted.
func TestFetchRejectsBadGeometry(t *testing.T) {
	meta := func(t protocol.MsgType, revision, size uint64, chunkSize, chunks uint32) *protocol.Frame {
		return &protocol.Frame{Type: t, Channel: "file", Payload: appendFileMeta(nil, revision, size, chunkSize, chunks)}
	}
	chunk := func(revision uint64, index, total uint32, n int) *protocol.Frame {
		return &protocol.Frame{Type: protocol.MTFileChunk, Channel: "file",
			Payload: appendChunk(nil, revision, index, total, make([]byte, n))}
	}
	const limit = 1 << 16
	tests := []struct {
		name  string
		first *protocol.Frame // adopted, or nil
		fr    *protocol.Frame
	}{
		{"announce of zero chunks", nil, meta(protocol.MTFileAnnounce, 1, 0, 100, 0)},
		{"announce of zero chunk size", nil, meta(protocol.MTFileAnnounce, 1, 0, 0, 4)},
		{"announce past the bound", nil, meta(protocol.MTFileAnnounce, 1, limit+1, 1<<10, 1<<7)},
		{"announce overflowing int", nil, meta(protocol.MTFileAnnounce, 1, 1<<63, 1<<31, 1<<31)},
		{"announced size below its last chunk", nil, meta(protocol.MTFileAnnounce, 1, 300, 100, 4)},
		{"announced size above its chunks", nil, meta(protocol.MTFileAnnounce, 1, 401, 100, 4)},
		{"query past the bound", nil, meta(protocol.MTFileQuery, 1, 0, 1<<10, 1<<7)},
		{"chunk past the bound", nil, chunk(1, 0, 1<<20, 1<<10)},
		{"chunk index beyond total", nil, chunk(1, 4, 4, 100)},
		{"chunk of zero total", nil, chunk(1, 0, 0, 100)},
		{"empty chunk", nil, chunk(1, 0, 4, 0)},
		{"last chunk before any geometry", nil, chunk(1, 3, 4, 50)},
		{"chunk total disagrees", chunk(1, 0, 4, 100), chunk(1, 1, 5, 100)},
		{"short middle chunk", chunk(1, 0, 4, 100), chunk(1, 1, 4, 99)},
		{"long middle chunk", chunk(1, 0, 4, 100), chunk(1, 1, 4, 101)},
		{"long last chunk", chunk(1, 0, 4, 100), chunk(1, 3, 4, 101)},
		{"last chunk against announced size", meta(protocol.MTFileAnnounce, 1, 350, 100, 4), chunk(1, 3, 4, 51)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := fabrictest.New(t, "sub")
			provides(f, "pub", "file")
			e := New(f)
			e.maxFile = limit
			startFetch(t, e, "file")
			e.mu.Lock()
			st := e.fetches["file"]
			e.mu.Unlock()
			deliver := func(fr *protocol.Frame) {
				switch fr.Type {
				case protocol.MTFileAnnounce:
					e.HandleAnnounce("pub", fr)
				case protocol.MTFileQuery:
					e.HandleQuery("pub", fr)
				default:
					e.HandleChunk("pub", fr)
				}
			}
			if tt.first != nil {
				deliver(tt.first)
			}
			st.mu.Lock()
			bufBefore, receivedBefore, sizeBefore := len(st.buf), st.received, st.size
			st.mu.Unlock()
			deliver(tt.fr)
			st.mu.Lock()
			defer st.mu.Unlock()
			if len(st.buf) != bufBefore || st.received != receivedBefore || st.size != sizeBefore {
				t.Fatalf("frame accepted: buffer %d → %d bytes, received %d → %d, size %d → %d",
					bufBefore, len(st.buf), receivedBefore, st.received, sizeBefore, st.size)
			}
		})
	}
}

func TestOfferRejectsFilesPastTheBound(t *testing.T) {
	e := New(fabrictest.New(t, "pub"))
	e.maxFile = 4000
	if _, err := e.Offer("big", "svc", make([]byte, 3001), qos.TransferQoS{ChunkSize: 1000}); err != nil {
		t.Fatalf("four chunks of 1000 fit a 4000-byte bound: %v", err)
	}
	if _, err := e.Offer("bigger", "svc", make([]byte, 4001), qos.TransferQoS{ChunkSize: 1000}); err == nil {
		t.Fatal("five chunks of 1000 accepted under a 4000-byte bound")
	}
}

// TestWireGolden pins the payloads of one three-chunk transfer with one NACK
// round: announce, chunk, query and NACK are byte-identical to what the
// engine has always put on the wire (the golden was recorded before the
// chunk, meta and RLE encoders became append-style), so old and new nodes
// still exchange files; subscribe and ack, which gained the fetch token, are
// not in it.
func TestWireGolden(t *testing.T) {
	subF := fabrictest.New(t, "sub")
	provides(subF, "pub", "g")
	// The publisher's rounds wait on virtual time, which stands still while
	// this test runs: no round can time out between its query and the ack
	// that answers it and repeat into the record.
	v := clock.NewVirtual()
	pubF := onVirtual(t, "pub", v)
	pub := New(pubF)
	sub := New(subF)
	v.Run(func() { wireGoldenRounds(t, pub, pubF, sub, subF) })
}

func wireGoldenRounds(t *testing.T, pub *Engine, pubF *fabrictest.Fabric, sub *Engine, subF *fabrictest.Fabric) {
	data := seqBytes(25)
	o, err := pub.Offer("g", "svc", data, qos.TransferQoS{ChunkSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	group := func() []*protocol.Frame { return pubF.GroupFrames("f:g") }
	roundsSent := func(n int) {
		t.Helper()
		waitFor(t, "a completion query", func() bool { return pubF.Count(fabrictest.Group, protocol.MTFileQuery) >= n })
	}

	// Round one, to a subscriber that then leaves: the whole file.
	pub.HandleSubscribe("other", &protocol.Frame{Type: protocol.MTFileSubscribe, Channel: "g"})
	roundsSent(1)
	pub.HandleAck("other", ackFrame("g", 1, 0))
	waitInactive(t, o)
	first := group()

	// The receiver hears it without chunk 1 and says so.
	got := startFetch(t, sub, "g")
	for _, fr := range first {
		switch {
		case fr.Type == protocol.MTFileAnnounce:
			sub.HandleAnnounce("pub", fr)
		case fr.Type == protocol.MTFileQuery:
			sub.HandleQuery("pub", fr)
		case binary.BigEndian.Uint32(fr.Payload[8:]) != 1:
			sub.HandleChunk("pub", fr)
		}
	}
	var nack *protocol.Frame
	for _, fr := range subF.Frames(fabrictest.Reliable) {
		if fr.Type == protocol.MTFileNack {
			nack = fr
		}
	}
	if nack == nil {
		t.Fatal("receiver sent no NACK")
	}

	// The NACK round: the publisher learns the gap before its loop starts,
	// so the round is exactly the missing chunk.
	pub.HandleNack("sub", nack)
	pub.HandleSubscribe("sub", &protocol.Frame{Type: protocol.MTFileSubscribe, Channel: "g"})
	roundsSent(2)
	pub.HandleAck("sub", ackFrame("g", 1, 0))
	second := group()[len(first):]
	for _, fr := range second {
		if fr.Type == protocol.MTFileChunk {
			sub.HandleChunk("pub", fr)
		}
	}
	if res := <-got; res.err != nil || !bytes.Equal(res.data, data) {
		t.Fatalf("fetch: err %v, got %x want %x", res.err, res.data, data)
	}

	var b strings.Builder
	line := func(fr *protocol.Frame) {
		b.WriteString(fr.Type.String() + " " + hex.EncodeToString(fr.Payload) + "\n")
	}
	for _, fr := range first {
		line(fr)
	}
	line(nack)
	for _, fr := range second {
		line(fr)
	}
	path := filepath.Join("testdata", "wire_three_chunks_one_nack.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("wire payloads changed:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// A steady-state round allocates nothing per chunk: the publisher slices
// data into one pooled frame and one pooled payload. Measured as the
// difference between serving a 16-chunk and a 1024-chunk file, start of the
// loop to its exit, which cancels everything a round costs once.
func TestRoundAllocatesNothingPerChunk(t *testing.T) {
	perTransfer := func(chunks int) float64 {
		f := fabrictest.New(t, "pub")
		f.Discard(nil)
		e := New(f)
		o, err := e.Offer("file", "svc", make([]byte, chunks*1000), qos.TransferQoS{ChunkSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		sub, ack := subscribeFrame("file", 1), ackFrame("file", 1, 1)
		return testing.AllocsPerRun(20, func() {
			round := f.Count(fabrictest.Group, protocol.MTFileQuery)
			e.HandleSubscribe("sub", sub)
			for f.Count(fabrictest.Group, protocol.MTFileQuery) == round {
				time.Sleep(50 * time.Microsecond)
			}
			e.HandleAck("sub", ack)
			waitInactive(t, o)
		})
	}
	small, big := perTransfer(16), perTransfer(1024)
	if perChunk := (big - small) / (1024 - 16); perChunk >= 0.01 {
		t.Fatalf("%.0f allocs to serve 16 chunks, %.0f to serve 1024: %.3f per chunk, want 0", small, big, perChunk)
	}
}

// Once the reassembly buffer exists, placing a chunk allocates nothing.
func TestHandleChunkAllocatesNothing(t *testing.T) {
	f := fabrictest.New(t, "sub")
	provides(f, "pub", "file")
	e := New(f)
	startFetch(t, e, "file")
	data := seqBytes(8 * 1000)
	fr := chunkFrame("file", 1, data, 1000, 3)
	e.HandleChunk("pub", chunkFrame("file", 1, data, 1000, 0)) // adopts the geometry
	e.mu.Lock()
	st := e.fetches["file"]
	e.mu.Unlock()
	allocs := testing.AllocsPerRun(200, func() {
		e.HandleChunk("pub", fr)
		st.mu.Lock()
		if !st.have[3] {
			t.Error("chunk 3 not placed")
		}
		st.have[3] = false
		st.received--
		st.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("HandleChunk: %.1f allocs per chunk, want 0", allocs)
	}
}

// Control frames allocate nothing: the NACK a completion query draws and the
// ack a completing chunk sends each ride a pooled frame and a pooled payload,
// both recycled once the fabric has encoded them.
func TestControlFramesAllocateNothing(t *testing.T) {
	// The double keeps nothing; the test keeps the last control frame, its
	// payload copied into a buffer it owns, so the copy costs no allocation
	// and what is left is the engine's own.
	var control protocol.Frame
	controlPayload := make([]byte, 0, 64)
	f := fabrictest.New(t, "sub")
	f.Discard(func(_ transport.NodeID, fr *protocol.Frame) {
		control = *fr
		control.Payload = append(controlPayload[:0], fr.Payload...)
		controlPayload = control.Payload
	})
	e := New(f)
	const chunkSize, chunks, runs = 1000, 4, 200
	// A fetch of pub's file that holds every chunk but the last.
	st := &fetchState{name: "file", token: 7, provider: "pub", refs: 1}
	e.fetches["file"] = st
	data := seqBytes(chunks*chunkSize - 10)
	for i := 0; i < chunks-1; i++ {
		e.HandleChunk("pub", chunkFrame("file", 1, data, chunkSize, i))
	}
	query := &protocol.Frame{Type: protocol.MTFileQuery, Channel: "file",
		Payload: appendFileMeta(nil, 1, 0, chunkSize, chunks)}
	if allocs := testing.AllocsPerRun(runs, func() { e.HandleQuery("pub", query) }); allocs != 0 {
		t.Errorf("NACK: %.1f allocs, want 0", allocs)
	}
	wantNack := appendMissing(binary.BigEndian.AppendUint64(nil, 1), []bool{true, true, true, false})
	if control.Type != protocol.MTFileNack || !bytes.Equal(control.Payload, wantNack) {
		t.Fatalf("sent %v %x, want the NACK %x", control.Type, control.Payload, wantNack)
	}

	// The last chunk completes the fetch. Each run then reopens it one chunk
	// short and completes it again.
	last := chunkFrame("file", 1, data, chunkSize, chunks-1)
	e.HandleChunk("pub", last)
	complete := func() {
		st.mu.Lock()
		st.data, st.have[chunks-1] = nil, false
		st.received--
		st.mu.Unlock()
		e.HandleChunk("pub", last)
	}
	if allocs := testing.AllocsPerRun(runs, complete); allocs != 0 {
		t.Errorf("ack: %.1f allocs, want 0", allocs)
	}
	if wantAck := appendAck(nil, 1, st.token); control.Type != protocol.MTFileAck || !bytes.Equal(control.Payload, wantAck) {
		t.Fatalf("sent %v %x, want the ack %x", control.Type, control.Payload, wantAck)
	}
	if !bytes.Equal(st.data, data) {
		t.Fatal("the completing chunk did not complete the file")
	}
}
