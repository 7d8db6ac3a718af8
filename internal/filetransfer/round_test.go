package filetransfer

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

func nackFrame(name string, revision uint64, missing []bool) *protocol.Frame {
	return &protocol.Frame{Type: protocol.MTFileNack, Channel: name,
		Payload: appendMissing(binary.BigEndian.AppendUint64(nil, revision), missing)}
}

// A new fetch's subscribe settles what the node's previous fetch owed the
// round's query, so the round ends at once and the new fetch is served,
// rather than after the wait.
func TestResubscribeEndsTheOwedWait(t *testing.T) {
	v := clock.NewVirtual()
	f := onVirtual(t, "pub", v)
	e := New(f)
	const chunks = 3
	o, err := e.Offer("file", "svc", seqBytes(chunks*1000), qos.TransferQoS{ChunkSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	sent := func(mt protocol.MsgType) int { return f.Count(fabrictest.Group, mt) }
	v.Run(func() {
		defer func() {
			o.Close()
			waitInactive(t, o)
		}()
		e.HandleSubscribe("sub", subscribeFrame("file", 1))
		v.Sleep(DefaultQueryWindow / 4) // round one is out and waits for its answer
		if q := sent(protocol.MTFileQuery); q != 1 {
			t.Fatalf("%d queries a quarter window into the first round, want 1", q)
		}
		e.HandleSubscribe("sub", subscribeFrame("file", 2))
		v.Sleep(time.Millisecond)
		if q, c := sent(protocol.MTFileQuery), sent(protocol.MTFileChunk); q != 2 || c != 2*chunks {
			t.Fatalf("1 ms after a new fetch subscribed: %d queries and %d chunks, want 2 and %d", q, c, 2*chunks)
		}
	})
}

// TestStaleAnswerSettlesOnce races everything that settles an owed answer —
// the round's ACKs and NACKs, a duplicate NACK, a new fetch's subscribe,
// PeerGone with a late ack behind it, Close and the wait's own deadline — and
// checks that the offer's owed count never leaves the number of subscribers
// flagged as owing: an answer settled twice, or never, would part the two.
func TestStaleAnswerSettlesOnce(t *testing.T) {
	const runs = 10
	for run := 0; run < runs; run++ {
		f := fabrictest.New(t, "pub")
		e := New(f)
		o, err := e.Offer("file", "svc", seqBytes(3000), qos.TransferQoS{ChunkSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		subs := []transport.NodeID{"a", "b", "c", "d"}
		for i, node := range subs {
			e.HandleSubscribe(node, subscribeFrame("file", uint64(i+1)))
		}
		waitFor(t, "the first query", func() bool { return f.Count(fabrictest.Group, protocol.MTFileQuery) > 0 })
		check := func() {
			o.mu.Lock()
			flagged := 0
			for _, st := range o.subscribers {
				if st.owed {
					flagged++
				}
			}
			owed := o.owed
			o.mu.Unlock()
			if owed < 0 || owed != flagged {
				t.Errorf("run %d: owed count %d, %d subscribers owe", run, owed, flagged)
			}
		}
		nack := nackFrame("file", 1, []bool{true, false, true})
		racers := []func(){
			func() { e.HandleAck("a", ackFrame("file", 1, 1)) },
			func() { e.HandleNack("b", nack) },
			func() { e.HandleSubscribe("b", subscribeFrame("file", 9)) },
			func() { e.PeerGone("c") },
			func() { e.HandleAck("c", ackFrame("file", 1, 3)) },
			func() { e.HandleNack("d", nack) },
			func() { e.HandleNack("d", nack) },
			func() {
				if run%2 == 1 {
					o.Close()
				}
			},
		}
		// From at once to past the first wait's deadline.
		delay := time.Duration(run) * 2 * DefaultQueryWindow / runs
		var wg sync.WaitGroup
		for _, race := range racers {
			wg.Add(1)
			go func(race func()) {
				defer wg.Done()
				time.Sleep(delay)
				race()
				check()
			}(race)
		}
		wg.Wait()
		o.Close()
		waitInactive(t, o)
		check()
	}
}
