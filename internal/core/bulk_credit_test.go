package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"uavmw/internal/filetransfer"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// bulkUnreleased reads how many of the bulk datagrams n's bearer handed the
// bus a receiver still holds.
func bulkUnreleased(n *Node) int64 {
	bearer := n.links.Bearers()[0].Name
	return n.Metrics().Gauge("egress", "bulk_unreleased", metrics.L("bearer", bearer)).Value()
}

// TestBulkCreditReturnsToZero: every bulk datagram a node hands the bus
// gives its credit back once its last receiver is done with it — after a
// completed fetch, and when either end closes in the middle of one.
func TestBulkCreditReturnsToZero(t *testing.T) {
	data := make([]byte, 8<<20) // ~7,000 chunks: long enough to close into
	for i := range data {
		data[i] = byte(i * 13)
	}
	pair := func(t *testing.T) (camera, storage *Node) {
		bus := transport.NewBus()
		camera, storage = newBusNode(t, bus, "camera"), newBusNode(t, bus, "storage")
		if _, err := camera.Files().Offer("frame", "camera", data, qos.TransferQoS{}); err != nil {
			t.Fatal(err)
		}
		syncNodes(t, camera, storage)
		waitUntil(t, 2*time.Second, "file record", func() bool {
			return storage.Directory().ProviderCount(naming.KindFile, "frame") == 1
		})
		return camera, storage
	}
	// midFetch starts a fetch on storage and returns once camera has sent
	// part of the file; the fetch's error arrives on the channel.
	midFetch := func(t *testing.T, camera, storage *Node) <-chan error {
		fetched := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, _, err := storage.Files().Fetch(ctx, "frame", filetransfer.FetchOptions{})
			fetched <- err
		}()
		waitUntil(t, 5*time.Second, "the transfer to start", func() bool {
			return counter(t, camera, "egress", "sent", metrics.L("class", "bulk")) > 500
		})
		return fetched
	}

	t.Run("transfer", func(t *testing.T) {
		camera, storage := pair(t)
		got, _, err := storage.Files().Fetch(context.Background(), "frame", filetransfer.FetchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("fetched bytes differ from the offer")
		}
		waitUntil(t, 2*time.Second, "camera's credit to return", func() bool { return bulkUnreleased(camera) == 0 })
	})
	t.Run("receiver closes", func(t *testing.T) {
		camera, storage := pair(t)
		fetched := midFetch(t, camera, storage)
		if err := storage.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-fetched; !errors.Is(err, filetransfer.ErrClosed) {
			t.Fatalf("fetch on the closed receiver: %v, want ErrClosed", err)
		}
		waitUntil(t, 2*time.Second, "camera's credit to return", func() bool { return bulkUnreleased(camera) == 0 })
	})
	t.Run("sender closes", func(t *testing.T) {
		camera, storage := pair(t)
		fetched := midFetch(t, camera, storage)
		if err := camera.Close(); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 2*time.Second, "camera's credit to return", func() bool { return bulkUnreleased(camera) == 0 })
		_ = storage.Close()
		<-fetched
	})
}
