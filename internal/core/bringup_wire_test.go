package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

var updateBringup = flag.Bool("update-bringup", false, "rewrite testdata/bringup_wire.golden from this run")

// tapTransport logs every datagram the container hands its transport.
type tapTransport struct {
	transport.Transport
	mu  sync.Mutex
	log []string
}

func (t *tapTransport) tap(dest string, payload []byte) {
	t.mu.Lock()
	t.log = append(t.log, fmt.Sprintf("%s>%s %x", t.Node(), dest, payload))
	t.mu.Unlock()
}

// trace renders the log so far, one datagram per line.
func (t *tapTransport) trace() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.log, "\n") + "\n"
}

func (t *tapTransport) Send(to transport.NodeID, payload []byte) error {
	t.tap(string(to), payload)
	return t.Transport.Send(to, payload)
}

func (t *tapTransport) SendGroup(group string, payload []byte) error {
	t.tap(group, payload)
	return t.Transport.SendGroup(group, payload)
}

// TestBringUpWireBytesGolden pins what two containers put on the wire while
// they find each other — the introduction announce, heartbeat digests, a
// late joiner's sync request and the snapshot reply with its ack, a
// registration delta — byte for byte, under a fixed epoch on a virtual clock. The
// golden was recorded before discovery and bearer selection moved out of
// core.Node; the move must not show on the wire.
func TestBringUpWireBytesGolden(t *testing.T) {
	const golden = "testdata/bringup_wire.golden"
	var got string
	v := clock.NewVirtual()
	v.Run(func() {
		// Epochs are the construction instant plus this counter; pin it so
		// the run does not depend on how many nodes earlier tests built.
		defer epochSalt.Store(epochSalt.Swap(0))
		net := transport.NewSimBus(transport.SimConfig{Seed: 1, Latency: time.Millisecond, Clock: v})
		defer net.Close()
		node := func(id transport.NodeID) (*tapTransport, *Node) {
			ep, err := net.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			tap := &tapTransport{Transport: ep}
			n, err := NewNode(WithClock(v), WithDatagram(tap), WithAnnouncePeriod(100*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			return tap, n
		}
		// Every payload in the scenario carries one record: a multi-record
		// offer is encoded in map order, which no seed fixes.
		a, na := node("a")
		// a's ticks fall on multiples of 100 ms, b's 50 ms later: no two
		// beacons share a virtual instant.
		v.Sleep(250 * time.Millisecond) // a introduces itself at its first tick, then beacons
		b, nb := node("b")
		v.Sleep(225 * time.Millisecond) // b syncs a's catalog off its next digest, then introduces itself
		if _, err := na.Variables().Offer("gps.position", "gps", gpsType, qos.VariableQoS{}); err != nil {
			t.Error(err)
		}
		v.Sleep(100 * time.Millisecond) // the delta, then one more digest each
		if got := nb.Directory().NodeRecordCount("a"); got != 2 {
			t.Errorf("b holds %d of a's 2 records (bearer + variable)", got)
		}
		if got := na.Directory().NodeRecordCount("b"); got != 1 {
			t.Errorf("a holds %d of b's 1 record (bearer)", got)
		}
		// The trace ends here: Close waits off the clock, so how many
		// beacons the other node fits in meanwhile is not reproducible.
		got = a.trace() + b.trace()
		_ = na.Close()
		_ = nb.Close()
	})
	if *updateBringup {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("bring-up wire trace differs from %s (rerun with -update-bringup only for a deliberate wire change)\ngot:\n%swant:\n%s",
			golden, got, want)
	}
}
