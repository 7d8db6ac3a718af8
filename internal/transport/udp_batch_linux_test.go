//go:build linux && (amd64 || arm64)

package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSendBatchSteadyStateAllocs gates the sendmmsg path: sealing into
// pooled envelopes, the reused header arrays, and the RawConn.Write callback
// — one method value built with the connection, its progress kept on the
// writer — leave nothing for a steady stream of batches to allocate.
func TestSendBatchSteadyStateAllocs(t *testing.T) {
	sink := unreadSocket(t)
	a, err := NewUDP("a", "127.0.0.1:0", map[NodeID]string{"sink": sink.LocalAddr().String()})
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer func() { _ = a.Close() }()
	msgs := []BatchMessage{
		{To: "sink", Payload: make([]byte, 64)},
		{To: "sink", Payload: make([]byte, 200)},
	}
	send := func() {
		if err := a.SendBatch(msgs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("SendBatch: %v allocs/op, want 0", allocs)
	}
}

// TestMmsgReadAllocs gates the recvmmsg path the same way: one read of one
// queued datagram allocates nothing.
func TestMmsgReadAllocs(t *testing.T) {
	conn := unreadSocket(t)
	rd, ok := newDatagramReader(conn).(*mmsgReader)
	if !ok {
		t.Skip("no raw access to the socket")
	}
	if allocs := readAllocs(t, conn, rd); allocs != 0 {
		t.Errorf("mmsgReader.read: %v allocs/op, want 0", allocs)
	}
}

// TestSendBatchWriterReuse drives one transport's batch writer from several
// goroutines at once. The sendmmsg callback keeps its progress on the shared
// writer, which only batchMu serialises: every batch must still go out whole
// (run with -race).
func TestSendBatchWriterReuse(t *testing.T) {
	a, b := newUDPPair(t)
	var received atomic.Int64
	b.SetHandler(func(Packet) { received.Add(1) })

	const senders, batches, perBatch = 4, 40, 3
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msgs := make([]BatchMessage, perBatch)
			for i := range msgs {
				msgs[i] = BatchMessage{To: "b", Payload: make([]byte, 32)}
			}
			for i := 0; i < batches; i++ {
				if err := a.SendBatch(msgs); err != nil {
					t.Errorf("SendBatch: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const total = senders * batches * perBatch
	if st := a.Stats(); st.PacketsWire != total || st.PacketsDropped != 0 {
		t.Errorf("wire, dropped = %d, %d, want %d, 0", st.PacketsWire, st.PacketsDropped, total)
	}
	// Loopback may shed under a slow reader, so arrival is only sanity.
	deadline := time.Now().Add(2 * time.Second)
	for received.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if received.Load() == 0 {
		t.Error("nothing arrived")
	}
}
