package filetransfer

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// provides makes node the directory's provider of the named file.
func provides(f *fabrictest.Fabric, node transport.NodeID, names ...string) {
	recs := make([]naming.Record, len(names))
	for i, name := range names {
		recs[i] = naming.Record{Kind: naming.KindFile, Name: name, Service: "svc", Node: node}
	}
	f.Directory().Apply(&naming.Announcement{Node: node, Epoch: 1, Version: 1, Records: recs})
}

// onVirtual is a double on a virtual clock: the engine's rounds wait on
// virtual time, which stands still while a test goroutine registered with
// the clock is running.
func onVirtual(t testing.TB, self transport.NodeID, v *clock.Virtual) *fabrictest.Fabric {
	f := fabrictest.New(t, self)
	f.Clk = v
	return f
}

// waitFor polls cond for up to five seconds, yielding at first — what the
// tests wait for is usually one goroutine switch away — then sleeping.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for spins := 0; !cond(); spins++ {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		if spins < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

type fetched struct {
	data []byte
	rev  uint64
	err  error
}

// startFetch runs e.Fetch(name) on its own goroutine, for five seconds at
// most, and returns once the fetch has subscribed to its provider, so frames
// fed to the engine's handlers from then on reach it.
func startFetch(t testing.TB, e *Engine, name string) <-chan fetched {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return startFetchCtx(ctx, t, e, name)
}

func startFetchCtx(ctx context.Context, t testing.TB, e *Engine, name string) <-chan fetched {
	t.Helper()
	out := make(chan fetched, 1)
	go func() {
		data, rev, err := e.Fetch(ctx, name, FetchOptions{})
		out <- fetched{data, rev, err}
	}()
	waitFor(t, "fetch to subscribe", func() bool {
		e.mu.Lock()
		st := e.fetches[name]
		e.mu.Unlock()
		if st == nil {
			return false
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.provider != ""
	})
	return out
}

func seqBytes(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	return data
}

func chunkFrame(name string, revision uint64, data []byte, chunkSize, i int) *protocol.Frame {
	total := chunkCount(len(data), chunkSize)
	return &protocol.Frame{Type: protocol.MTFileChunk, Channel: name,
		Payload: appendChunk(nil, revision, uint32(i), uint32(total), chunkAt(data, chunkSize, i))}
}

func TestOfferValidation(t *testing.T) {
	e := New(fabrictest.New(t, "n"))
	if _, err := e.Offer("x", "svc", nil, qos.TransferQoS{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty data: %v", err)
	}
	if _, err := e.Offer("x", "svc", []byte("d"), qos.TransferQoS{ChunkSize: -1}); err == nil {
		t.Error("bad QoS accepted")
	}
	if _, err := e.Offer("x", "svc", []byte("d"), qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Offer("x", "svc", []byte("d"), qos.TransferQoS{}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestOfferUpdateAndClose(t *testing.T) {
	e := New(fabrictest.New(t, "n"))
	o, err := e.Offer("cfg", "svc", []byte("v1"), qos.TransferQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Revision() != 1 {
		t.Errorf("initial revision %d", o.Revision())
	}
	rev, err := o.Update([]byte("v2"))
	if err != nil || rev != 2 {
		t.Errorf("Update: rev=%d err=%v", rev, err)
	}
	data, rev2 := o.Data()
	if string(data) != "v2" || rev2 != 2 {
		t.Errorf("Data = %q rev %d", data, rev2)
	}
	if _, err := o.Update(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty update: %v", err)
	}
	o.Close()
	o.Close() // idempotent
	if _, err := o.Update([]byte("v3")); !errors.Is(err, ErrClosed) {
		t.Errorf("update after close: %v", err)
	}
	// Name reusable after close.
	if _, err := e.Offer("cfg", "svc", []byte("v1"), qos.TransferQoS{}); err != nil {
		t.Errorf("reoffer after close: %v", err)
	}
}

func TestLocalBypassFetch(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	if _, err := e.Offer("local", "svc", []byte("content"), qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	got, rev, err := e.Fetch(context.Background(), "local", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "content" || rev != 1 {
		t.Errorf("got %q rev %d", got, rev)
	}
	// Bypass must not touch the network at all.
	if len(f.Frames(fabrictest.BestEffort)) != 0 || len(f.Frames(fabrictest.Reliable)) != 0 {
		t.Error("local fetch sent frames")
	}
	// Returned slice must be a copy.
	got[0] = 'X'
	data, _ := func() ([]byte, uint64) {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.offers["local"].Data()
	}()
	if data[0] != 'c' {
		t.Error("local fetch aliased offer data")
	}
}

func TestFetchNoProviderTimesOut(t *testing.T) {
	e := New(fabrictest.New(t, "n"))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := e.Fetch(ctx, "ghost", FetchOptions{}); !errors.Is(err, ErrNoProvider) {
		t.Errorf("want ErrNoProvider, got %v", err)
	}
}

func TestTransferLoopServesSubscriber(t *testing.T) {
	f := fabrictest.New(t, "pub")
	e := New(f)
	data := make([]byte, 2500)
	for i := range data {
		data[i] = byte(i)
	}
	o, err := e.Offer("file", "svc", data, qos.TransferQoS{ChunkSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// A remote node subscribes: the loop must multicast all chunks.
	e.HandleSubscribe("subscriber", &protocol.Frame{Type: protocol.MTFileSubscribe, Channel: "file"})

	deadline := time.Now().Add(2 * time.Second)
	for {
		chunks := f.Count(fabrictest.Group, protocol.MTFileChunk)
		if chunks >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d chunk frames multicast", chunks)
		}
		time.Sleep(time.Millisecond)
	}
	// ACK removes the subscriber and the loop idles.
	e.HandleAck("subscriber", &protocol.Frame{
		Type: protocol.MTFileAck, Channel: "file", Payload: appendAck(nil, 1, 77),
	})
	deadline = time.Now().Add(2 * time.Second)
	for {
		o.mu.Lock()
		n := len(o.subscribers)
		o.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber not removed after ACK")
		}
		time.Sleep(time.Millisecond)
	}
}

// A subscriber that answers no query gets the first round's chunks and no
// more: until it answers, its needs are unknown. It is dropped after its
// DefaultMaxStrikes+1st unanswered query, the waits before them doubling
// from DefaultQueryWindow, and the loop stops.
func TestSilentSubscriberDropped(t *testing.T) {
	v := clock.NewVirtual()
	f := onVirtual(t, "pub", v)
	e := New(f)
	const chunks = 4
	o, err := e.Offer("file", "svc", make([]byte, chunks*1000), qos.TransferQoS{ChunkSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Six waits of 1, 2, 4, 8, 16 and 32 query windows.
	const bound = 63*DefaultQueryWindow + time.Millisecond
	v.Run(func() {
		start := v.Now()
		e.HandleSubscribe("ghost", subscribeFrame("file", 1))
		for {
			o.mu.Lock()
			n, active := len(o.subscribers), o.active
			o.mu.Unlock()
			if n == 0 && !active {
				return
			}
			if v.Since(start) > bound {
				t.Fatalf("ghost subscriber not dropped within %v (n=%d active=%v)", bound, n, active)
			}
			v.Sleep(time.Millisecond)
		}
	})
	if got := f.Count(fabrictest.Group, protocol.MTFileChunk); got != chunks {
		t.Errorf("%d chunks sent to a subscriber that answered no query, want the first round's %d", got, chunks)
	}
	if got := f.Count(fabrictest.Group, protocol.MTFileQuery); got != DefaultMaxStrikes+1 {
		t.Errorf("%d queries before the drop, want %d", got, DefaultMaxStrikes+1)
	}
}

func TestNackFromUnknownSubscriberAdopted(t *testing.T) {
	// §4.4 late join: a NACK from a node that joined the multicast group
	// without an explicit subscribe still enters the subscriber set.
	f := fabrictest.New(t, "pub")
	e := New(f)
	if _, err := e.Offer("file", "svc", make([]byte, 3000), qos.TransferQoS{ChunkSize: 1000}); err != nil {
		t.Fatal(err)
	}
	w := encoding.NewWriter(32)
	w.Uint64(1)
	w.Raw(appendMissing(nil, []bool{false, true, false}))
	e.HandleNack("late", &protocol.Frame{Type: protocol.MTFileNack, Channel: "file", Payload: w.Bytes()})

	e.mu.Lock()
	o := e.offers["file"]
	e.mu.Unlock()
	o.mu.Lock()
	st := o.subscribers["late"]
	o.mu.Unlock()
	if st == nil {
		t.Fatal("late NACKer not adopted as subscriber")
	}
	if len(st.missing) != 3 || !st.missing[0] || st.missing[1] || !st.missing[2] {
		t.Errorf("missing set = %v", st.missing)
	}
}

func TestPeerGoneDropsSubscribers(t *testing.T) {
	f := fabrictest.New(t, "pub")
	e := New(f)
	if _, err := e.Offer("file", "svc", make([]byte, 10), qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("dying", &protocol.Frame{Type: protocol.MTFileSubscribe, Channel: "file"})
	e.PeerGone("dying")
	e.mu.Lock()
	o := e.offers["file"]
	e.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.subscribers) != 0 {
		t.Error("dead peer still subscribed")
	}
}

func TestRecordsExposeOffers(t *testing.T) {
	e := New(fabrictest.New(t, "pub"))
	if _, err := e.Offer("a", "svc", []byte("x"), qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	recs := e.Records()
	if len(recs) != 1 || recs[0].Kind != naming.KindFile || recs[0].Name != "a" || recs[0].Node != "pub" {
		t.Errorf("Records = %+v", recs)
	}
}

// waitInactive polls until the offer's transfer loop has exited.
func waitInactive(t *testing.T, o *Offer) {
	t.Helper()
	waitFor(t, "the transfer loop to exit", func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return !o.active
	})
}

// TestCloseAbortsQueryWindow pins the fast-shutdown property: Close must
// not wait out the wait for a query's answers (the loop's wait is
// abortable).
func TestCloseAbortsQueryWindow(t *testing.T) {
	f := fabrictest.New(t, "pub")
	e := New(f)
	o, err := e.Offer("big", "svc", make([]byte, 4096), qos.TransferQoS{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	o.slowest = 15 * time.Second // as if the last answer took that long: a 30 s wait
	o.addSubscriber("sub", 0)
	time.Sleep(20 * time.Millisecond) // loop is now inside the query window
	start := time.Now()
	o.Close()
	waitInactive(t, o)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v against a 30s query window", elapsed)
	}
}
