package filetransfer

import (
	"bytes"
	"context"
	"testing"
	"time"

	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// FuzzFileTransferFrames feeds the engine's frame handlers — which take
// their payloads from the network — two things at once.
//
// hostile is a stream of arbitrary payloads (type byte, address byte, length
// byte, payload bytes) of all six file-transfer frame types from two
// misbehaving senders, addressed to three resources of one engine: "good",
// which it is fetching from an honest provider; "evil", which it is fetching
// from one of the hostile senders, so every geometry check sees a provider's
// word; and "out", which it offers to a subscriber, so ack, NACK and
// subscribe payloads reach the publisher side. None may panic, and none may
// size a reassembly buffer past the engine's bound.
//
// file, chunkSeed and order describe the well-formed transfer of "good":
// file cut into chunks of a size picked by chunkSeed, delivered in the
// duplicated, shuffled order the order bytes spell out (255 is the announce)
// and then once each in sequence, one hostile frame between every two. The
// fetch must return file byte-identical whatever the hostile senders said.
func FuzzFileTransferFrames(f *testing.F) {
	// More seeds are committed under testdata/fuzz/FuzzFileTransferFrames.
	const announce, chunk, query, ack, nack = 0, 1, 2, 3, 4
	f.Add([]byte{}, []byte("a file that needs more than one chunk"), uint8(7), []byte{})
	f.Add([]byte{}, []byte("0123456789abcdef"), uint8(0), []byte{15, 15, 255, 0, 7, 7, 3}) // one-byte chunks
	f.Add([]byte{}, []byte("tiny"), uint8(63), []byte{0, 0})                               // one chunk
	f.Add([]byte{1, 1, 200, 9}, bytes.Repeat([]byte{'r'}, 513), uint8(40), []byte{12})     // truncated op stream

	f.Fuzz(func(t *testing.T, hostile, file []byte, chunkSeed uint8, order []byte) {
		const bound = 1 << 16
		if len(file) == 0 || len(file) > bound/2 {
			t.Skip()
		}
		fab := fabrictest.New(t, "n")
		provides(fab, "pub", "good")
		provides(fab, "mallory", "evil")
		e := New(fab)
		e.maxFile = bound
		offer, err := e.Offer("out", "svc", seqBytes(2500), qos.TransferQoS{ChunkSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		offer.slowest = time.Hour // a round ends on an answer, not on its wait
		defer offer.Close()
		e.HandleSubscribe("gs", subscribeFrame("out", 5))
		good := startFetch(t, e, "good")
		ctx, cancel := context.WithCancel(context.Background())
		evilFetch := startFetchCtx(ctx, t, e, "evil")
		defer func() {
			cancel()
			<-evilFetch
		}()

		rest := hostile
		oneHostile := func() {
			if len(rest) < 3 {
				return
			}
			n := min(int(rest[2]), len(rest)-3)
			fr := &protocol.Frame{
				Channel: []string{"good", "evil", "out"}[rest[1]%3],
				Payload: rest[3 : 3+n],
			}
			from := transport.NodeID([]string{"mallory", "gs"}[rest[1]/3%2])
			switch rest[0] % 6 {
			case announce:
				e.HandleAnnounce(from, fr)
			case chunk:
				e.HandleChunk(from, fr)
			case query:
				e.HandleQuery(from, fr)
			case ack:
				e.HandleAck(from, fr)
			case nack:
				e.HandleNack(from, fr)
			default:
				e.HandleSubscribe(from, fr)
			}
			rest = rest[3+n:]
		}

		chunkSize := 1 + int(chunkSeed)%64
		total := chunkCount(len(file), chunkSize)
		meta := &protocol.Frame{Channel: "good",
			Payload: appendFileMeta(nil, 1, uint64(len(file)), uint32(chunkSize), uint32(total))}
		for _, b := range order {
			oneHostile()
			if b == 255 {
				e.HandleAnnounce("pub", meta)
			} else {
				e.HandleChunk("pub", chunkFrame("good", 1, file, chunkSize, int(b)%total))
			}
		}
		for i := 0; i < total; i++ {
			oneHostile()
			e.HandleChunk("pub", chunkFrame("good", 1, file, chunkSize, i))
		}
		for len(rest) >= 3 {
			oneHostile()
		}

		if res := <-good; res.err != nil || res.rev != 1 || !bytes.Equal(res.data, file) {
			t.Fatalf("well-formed transfer: rev %d err %v, %d bytes for a file of %d", res.rev, res.err, len(res.data), len(file))
		}
		e.mu.Lock()
		st := e.fetches["evil"] // gone if the hostile provider served a whole file
		e.mu.Unlock()
		if st != nil {
			st.mu.Lock()
			if len(st.buf) > bound || len(st.buf) != len(st.have)*st.chunkSize {
				t.Fatalf("hostile provider sized a %d-byte buffer for %d chunks of %d under a bound of %d",
					len(st.buf), len(st.have), st.chunkSize, bound)
			}
			st.mu.Unlock()
		}
	})
}
