package filetransfer_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"uavmw/internal/core"
	"uavmw/internal/filetransfer"
	"uavmw/internal/naming"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// TestStaleAckDoesNotCancelNextFetch fetches the same small file back to
// back over two real containers. A fetch's completion ack leaves after Fetch
// has returned, so it can reach the provider after the next fetch's
// subscribe; when acks named no fetch it deleted that subscription and about
// one fetch in two hundred waited out its whole timeout.
func TestStaleAckDoesNotCancelNextFetch(t *testing.T) {
	fetches := 1000
	if testing.Short() {
		fetches = 200
	}
	bus := transport.NewBus()
	node := func(id transport.NodeID) *core.Node {
		ep, err := bus.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		n, err := core.NewNode(core.WithDatagram(ep),
			core.WithAnnouncePeriod(25*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	pub, sub := node("camera"), node("storage")
	want := bytes.Repeat([]byte("0123456789"), 300)
	if _, err := pub.Files().Offer("frame", "camera", want, qos.TransferQoS{}); err != nil {
		t.Fatal(err)
	}
	pub.AnnounceNow()
	for deadline := time.Now().Add(5 * time.Second); sub.Directory().ProviderCount(naming.KindFile, "frame") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("provider never discovered")
		}
		time.Sleep(time.Millisecond)
	}
	timeouts := 0
	for i := 0; i < fetches; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		got, _, err := sub.Files().Fetch(ctx, "frame", filetransfer.FetchOptions{})
		cancel()
		switch {
		case err != nil:
			timeouts++
		case !bytes.Equal(got, want):
			t.Fatalf("fetch %d returned %d bytes that differ from the offer", i, len(got))
		}
	}
	if timeouts != 0 {
		t.Fatalf("%d of %d back-to-back fetches timed out", timeouts, fetches)
	}
}
