package filetransfer_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/filetransfer"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// chunkTap counts the file chunks a node puts on the wire, by index, and
// its completion queries.
type chunkTap struct {
	transport.Transport
	mu      sync.Mutex
	chunks  map[uint32]int
	queries int
}

func (t *chunkTap) count(datagram []byte) {
	fr, err := protocol.DecodeFrame(datagram)
	if err != nil {
		return
	}
	frames := []*protocol.Frame{fr}
	if fr.Type == protocol.MTBatch {
		inner, err := protocol.DecodeBatch(fr.Payload)
		if err != nil {
			return
		}
		frames = frames[:0]
		for _, raw := range inner {
			if f, err := protocol.DecodeFrame(raw); err == nil {
				frames = append(frames, f)
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range frames {
		switch {
		case f.Type == protocol.MTFileQuery:
			t.queries++
		case f.Type == protocol.MTFileChunk && len(f.Payload) >= 12:
			t.chunks[binary.BigEndian.Uint32(f.Payload[8:])]++
		}
	}
}

func (t *chunkTap) Send(to transport.NodeID, payload []byte) error {
	t.count(payload)
	return t.Transport.Send(to, payload)
}

func (t *chunkTap) SendGroup(group string, payload []byte) error {
	t.count(payload)
	return t.Transport.SendGroup(group, payload)
}

// counts reports how many distinct chunks were sent, how many of them more
// than once, and how many queries.
func (t *chunkTap) counts() (distinct, repeated, queries int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.chunks {
		if n > 1 {
			repeated++
		}
	}
	return len(t.chunks), repeated, t.queries
}

// filePair builds a publisher offering want and a subscriber on bus, both on
// the virtual clock v, and returns the subscriber once it knows the file.
// The publisher's datagrams pass through tap. Call from inside v.Run.
func filePair(t *testing.T, v *clock.Virtual, bus *transport.Bus, tap *chunkTap, want []byte) *core.Node {
	t.Helper()
	node := func(id transport.NodeID, wrap func(transport.Transport) transport.Transport) *core.Node {
		ep, err := bus.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		n, err := core.NewNode(core.WithClock(v), core.WithDatagram(wrap(ep)),
			core.WithAnnouncePeriod(25*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Run(func() { _ = n.Close() }) })
		return n
	}
	pub := node("camera", func(ep transport.Transport) transport.Transport { tap.Transport = ep; return tap })
	sub := node("storage", func(ep transport.Transport) transport.Transport { return ep })
	if _, err := pub.Files().Offer("frame", "camera", want, qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	for deadline := v.Now().Add(5 * time.Second); sub.Directory().ProviderCount(naming.KindFile, "frame") == 0; {
		if v.Now().After(deadline) {
			t.Fatal("provider never discovered")
		}
		v.Sleep(time.Millisecond)
	}
	return sub
}

func fetch(t *testing.T, n *core.Node, want []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, _, err := n.Files().Fetch(ctx, "frame", filetransfer.FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fetched %d bytes that differ from the %d offered", len(got), len(want))
	}
}

// A fetch that starts as the previous one returns, the bench's file_bulk
// pattern, is served at once: the first round ends on the ack that
// completes the first fetch, not after a wait.
func TestBackToBackFetchesEndOnTheirAnswers(t *testing.T) {
	v := clock.NewVirtual()
	want := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	v.Run(func() {
		bus := transport.NewBus()
		defer bus.Close()
		sub := filePair(t, v, bus, &chunkTap{chunks: make(map[uint32]int)}, want)
		start := v.Now()
		fetch(t, sub, want)
		fetch(t, sub, want)
		if took := v.Since(start); took >= filetransfer.DefaultQueryWindow/4 {
			t.Fatalf("two back-to-back fetches took %v, want well under one %v query window",
				took, filetransfer.DefaultQueryWindow)
		}
	})
}

// On a link whose answers take longer than five query windows, the round
// waits them out: no chunk is sent twice, and the subscriber is not struck
// out, which takes DefaultMaxStrikes+1 queries in a row left unanswered.
func TestSlowAnswersNeitherStrikeNorRepeat(t *testing.T) {
	v := clock.NewVirtual()
	want := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	// A query and its answer cross the link once each: six windows.
	latency := 3 * filetransfer.DefaultQueryWindow
	tap := &chunkTap{chunks: make(map[uint32]int)}
	v.Run(func() {
		bus := transport.NewSimBus(transport.SimConfig{Latency: latency, Clock: v})
		defer bus.Close()
		sub := filePair(t, v, bus, tap, want)
		fetch(t, sub, want)
		v.Sleep(4 * latency) // the completing ack reaches the publisher and ends its rounds
	})
	total := (len(want) + filetransfer.DefaultChunkSize - 1) / filetransfer.DefaultChunkSize
	distinct, repeated, queries := tap.counts()
	if repeated != 0 || distinct != total {
		t.Errorf("%d of %d chunks sent, %d of them more than once; want each of %d once",
			distinct, total, repeated, total)
	}
	if queries > filetransfer.DefaultMaxStrikes {
		t.Errorf("%d queries for one fetch: enough unanswered ones to strike its subscriber out", queries)
	}
}

// Two fetches of one resource in flight at once share its fetch state, and
// the completing chunk wakes both.
func TestConcurrentFetchesOfOneFileBothComplete(t *testing.T) {
	v := clock.NewVirtual()
	want := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	v.Run(func() {
		bus := transport.NewSimBus(transport.SimConfig{Latency: time.Millisecond, Clock: v})
		defer bus.Close()
		sub := filePair(t, v, bus, &chunkTap{chunks: make(map[uint32]int)}, want)
		fetched := clock.NewWaitGroup(v)
		for i := range 2 {
			fetched.Add(1)
			v.Go(func() {
				defer fetched.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				got, _, err := sub.Files().Fetch(ctx, "frame", filetransfer.FetchOptions{})
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("fetch %d: %d bytes, err %v; want the %d offered", i, len(got), err, len(want))
				}
			})
		}
		fetched.Wait()
	})
}
