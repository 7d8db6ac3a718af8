package egress

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// funcSelector adapts closures to the Selector interface.
type funcSelector struct {
	mu      sync.Mutex
	unicast func(to transport.NodeID, pr qos.Priority) string
	group   func(group string, pr qos.Priority) []string
}

func (s *funcSelector) Unicast(to transport.NodeID, pr qos.Priority) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unicast == nil {
		return ""
	}
	return s.unicast(to, pr)
}

func (s *funcSelector) Group(group string, pr qos.Priority) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.group == nil {
		return nil
	}
	return s.group(group, pr)
}

func (s *funcSelector) set(unicast func(transport.NodeID, qos.Priority) string, group func(string, qos.Priority) []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unicast, s.group = unicast, group
}

// twoBearers builds a plane with wifi+radio bearers on fresh senders.
func twoBearers(t *testing.T, wifiCfg, radioCfg Config) (*Plane, *gateSender, *gateSender) {
	t.Helper()
	wifi, radio := &gateSender{}, &gateSender{}
	p := NewPlane()
	if err := p.AddBearer("wifi", wifi, wifiCfg); err != nil {
		t.Fatal(err)
	}
	if err := p.AddBearer("radio", radio, radioCfg); err != nil {
		t.Fatal(err)
	}
	return p, wifi, radio
}

func TestSingleBearerCompat(t *testing.T) {
	s := &gateSender{}
	p := New(s, Config{})
	defer p.Close()
	names := p.Bearers()
	if len(names) != 1 || names[0] != DefaultBearer {
		t.Fatalf("Bearers() = %v, want [%s]", names, DefaultBearer)
	}
	if err := p.Enqueue("gs", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 1, 8)); err != nil {
		t.Fatal(err)
	}
	waitSends(t, s, 1)
}

func TestAddBearerValidation(t *testing.T) {
	p := NewPlane()
	if err := p.AddBearer("", &gateSender{}, Config{}); err == nil {
		t.Error("empty bearer name accepted")
	}
	if err := p.AddBearer("wifi", &gateSender{}, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddBearer("wifi", &gateSender{}, Config{}); err == nil {
		t.Error("duplicate bearer name accepted")
	}
	p.Close()
	if err := p.AddBearer("late", &gateSender{}, Config{}); err == nil {
		t.Error("AddBearer after Close accepted")
	}
}

func TestSelectorRoutesUnicastPerClass(t *testing.T) {
	p, wifi, radio := twoBearers(t, Config{}, Config{})
	defer p.Close()
	sel := &funcSelector{}
	sel.set(func(_ transport.NodeID, pr qos.Priority) string {
		if pr >= qos.PriorityHigh {
			return "radio"
		}
		return "wifi"
	}, nil)
	p.SetSelector(sel)

	if err := p.Enqueue("gs", qos.PriorityCritical, frameBytes(t, protocol.MTEvent, qos.PriorityCritical, 1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue("gs", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, 2, 8)); err != nil {
		t.Fatal(err)
	}
	radioRecs := waitSends(t, radio, 1)
	wifiRecs := waitSends(t, wifi, 1)
	if seqs := decodeAll(t, radioRecs); len(seqs) != 1 || seqs[0] != 1 {
		t.Errorf("radio carried %v, want the critical frame (seq 1)", seqs)
	}
	if seqs := decodeAll(t, wifiRecs); len(seqs) != 1 || seqs[0] != 2 {
		t.Errorf("wifi carried %v, want the bulk frame (seq 2)", seqs)
	}
	if sent := counter(t, p, "wifi", "sent", qos.PriorityBulk); sent != 1 {
		t.Errorf("wifi sent %d bulk frames, want 1", sent)
	}
	if agg := counter(t, p, "wifi", "sent") + counter(t, p, "radio", "sent"); agg != 2 {
		t.Errorf("aggregate sent = %d, want 2", agg)
	}
}

func TestUnknownSelectorNameFallsBackToDefault(t *testing.T) {
	p, wifi, _ := twoBearers(t, Config{}, Config{})
	defer p.Close()
	sel := &funcSelector{}
	sel.set(func(transport.NodeID, qos.Priority) string { return "satcom" }, nil)
	p.SetSelector(sel)
	if err := p.Enqueue("gs", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 7, 8)); err != nil {
		t.Fatal(err)
	}
	waitSends(t, wifi, 1) // wifi registered first = default
}

func TestEnqueueOnPinsBearer(t *testing.T) {
	p, _, radio := twoBearers(t, Config{}, Config{})
	defer p.Close()
	sel := &funcSelector{}
	sel.set(func(transport.NodeID, qos.Priority) string { return "wifi" }, nil)
	p.SetSelector(sel)
	// An ack that arrived on radio must be answered on radio, whatever the
	// selector prefers for fresh traffic.
	if err := p.EnqueueTo(Dest{Node: "gs", Bearer: "radio"}, qos.PriorityCritical, frameBytes(t, protocol.MTAck, qos.PriorityCritical, 3, 0)); err != nil {
		t.Fatal(err)
	}
	waitSends(t, radio, 1)
}

func TestGroupFramesRideEverySelectedBearerOnce(t *testing.T) {
	p, wifi, radio := twoBearers(t, Config{}, Config{})
	defer p.Close()
	sel := &funcSelector{}
	sel.set(nil, func(string, qos.Priority) []string {
		return []string{"wifi", "radio", "wifi"} // duplicate collapses
	})
	p.SetSelector(sel)
	if err := p.EnqueueTo(Dest{Group: "uavmw.disco"}, qos.PriorityNormal, frameBytes(t, protocol.MTHeartbeat, qos.PriorityNormal, 9, 16)); err != nil {
		t.Fatal(err)
	}
	wifiRecs := waitSends(t, wifi, 1)
	radioRecs := waitSends(t, radio, 1)
	time.Sleep(10 * time.Millisecond)
	if n := len(wifi.snapshot()); n != 1 {
		t.Errorf("wifi got %d copies, want 1", n)
	}
	if wifiRecs[0].group != "uavmw.disco" || radioRecs[0].group != "uavmw.disco" {
		t.Error("group datagrams should carry the group key")
	}
}

func TestPerBearerBulkPacingIsIndependent(t *testing.T) {
	// wifi bulk is starved by a tiny rate; radio is unshaped and must not
	// inherit wifi's wait.
	p, wifi, radio := twoBearers(t,
		Config{BulkRateBPS: 1, BulkBurst: 1},
		Config{})
	defer p.Close()
	sel := &funcSelector{}
	sel.set(func(to transport.NodeID, _ qos.Priority) string {
		if to == "far" {
			return "radio"
		}
		return "wifi"
	}, nil)
	p.SetSelector(sel)
	// The bucket starts full, so wifi's first frame passes and repays a
	// deficit; the second must wait essentially forever at 1 B/s.
	for seq := uint64(1); seq <= 2; seq++ {
		if err := p.Enqueue("near", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, seq, 600)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Enqueue("far", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, 3, 600)); err != nil {
		t.Fatal(err)
	}
	waitSends(t, radio, 1) // radio drains immediately
	waitSends(t, wifi, 1)  // wifi's burst-funded first frame
	time.Sleep(20 * time.Millisecond)
	if n := len(wifi.snapshot()); n != 1 {
		t.Errorf("wifi should be waiting for tokens after 1 send, sent %d", n)
	}
	if counter(t, p, "wifi", "bulk_waits") == 0 {
		t.Error("wifi bearer should have recorded bulk waits")
	}
}

func TestRerouteMovesQueuedFramesToSurvivingBearer(t *testing.T) {
	p, wifi, radio := twoBearers(t, Config{}, Config{})
	defer p.Close()
	wifiDown := false
	var mu sync.Mutex
	sel := &funcSelector{}
	sel.set(func(transport.NodeID, qos.Priority) string {
		mu.Lock()
		defer mu.Unlock()
		if wifiDown {
			return "radio"
		}
		return "wifi"
	}, nil)
	p.SetSelector(sel)

	// Hold wifi's wire so frames stay queued behind the first datagram.
	wifi.gate = make(chan struct{})
	for seq := uint64(1); seq <= 4; seq++ {
		if err := p.Enqueue("gs", qos.PriorityHigh, frameBytes(t, protocol.MTEvent, qos.PriorityHigh, seq, 700)); err != nil {
			t.Fatal(err)
		}
	}
	waitDequeued(t, p, qos.PriorityHigh, 1) // drainer holds frame 1 at the gate

	mu.Lock()
	wifiDown = true
	mu.Unlock()
	moved := p.Reroute("wifi")
	if moved == 0 {
		t.Fatal("Reroute moved nothing")
	}
	recs := waitSends(t, radio, moved)
	seqs := decodeAll(t, recs)
	if len(seqs) != moved {
		t.Fatalf("radio carried %d frames, want %d", len(seqs), moved)
	}
	if rerouted := counter(t, p, "wifi", "rerouted"); rerouted != uint64(moved) {
		t.Errorf("wifi rerouted = %d, want %d", rerouted, moved)
	}
	close(wifi.gate) // release the in-flight frame
}

// Reroute releases a bulk producer waiting for room on the drained bearer:
// the frame it was holding takes the room the drain made, the ones after it
// are routed afresh.
func TestRerouteReleasesWaitingBulkProducer(t *testing.T) {
	p, wifi, radio := twoBearers(t, Config{CoalesceMax: -1}, Config{CoalesceMax: -1})
	defer p.Close()
	var wifiDown atomic.Bool
	sel := &funcSelector{}
	sel.set(func(transport.NodeID, qos.Priority) string {
		if wifiDown.Load() {
			return "radio"
		}
		return "wifi"
	}, nil)
	p.SetSelector(sel)

	wifi.gate = make(chan struct{})
	const n = bulkWindow + 4
	done := bulkProducer(t, p, 1, n)
	// 1 at the gate, a window's worth queued, the producer holds the next.
	waitParkedAt(t, p, "wifi", 1+bulkWindow)

	wifiDown.Store(true)
	if moved := p.Reroute("wifi"); moved != bulkWindow {
		t.Fatalf("Reroute moved %d frames, want the %d queued", moved, bulkWindow)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("producer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reroute left the producer parked")
	}
	waitSends(t, radio, n-2) // the moved window, then the two after the held frame
	if got := counter(t, p, "wifi", "enqueued", qos.PriorityBulk); got != bulkWindow+2 {
		t.Errorf("wifi accepted %d bulk frames, want the %d before the reroute and the one held across it", got, bulkWindow+1)
	}
	if dropped := counter(t, p, "wifi", "dropped") + counter(t, p, "radio", "dropped"); dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	close(wifi.gate)
}

func TestRerouteGroupFramesAvoidDeadBearer(t *testing.T) {
	p, wifi, radio := twoBearers(t, Config{}, Config{})
	defer p.Close()
	sel := &funcSelector{}
	// Discovery-style fan-out: the selector always names both bearers.
	sel.set(nil, func(string, qos.Priority) []string { return []string{"wifi", "radio"} })
	p.SetSelector(sel)

	wifi.gate = make(chan struct{})
	for seq := uint64(1); seq <= 3; seq++ {
		if err := p.EnqueueTo(Dest{Group: "uavmw.disco"}, qos.PriorityNormal, frameBytes(t, protocol.MTHeartbeat, qos.PriorityNormal, seq, 700)); err != nil {
			t.Fatal(err)
		}
	}
	waitSends(t, radio, 3)                    // radio copies drain freely
	waitDequeued(t, p, qos.PriorityNormal, 4) // wifi's drainer holds one at the gate
	before := len(radio.snapshot())

	moved := p.Reroute("wifi")
	if moved == 0 {
		t.Fatal("Reroute moved nothing")
	}
	// The stranded wifi copies must land on radio — never back on wifi.
	waitSends(t, radio, before+moved)
	if got := counter(t, p, "wifi", "enqueued", qos.PriorityNormal); got != 3 {
		t.Errorf("wifi re-accepted rerouted group frames (enqueued %d, want the original 3)", got)
	}
	close(wifi.gate)
}

// queuedAt reports how many frames bearer holds for node at class pr.
func queuedAt(p *Plane, bearer string, node transport.NodeID, pr qos.Priority) int {
	p.mu.RLock()
	b := p.bearers[bearer]
	p.mu.RUnlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if ln := b.lanes[destKey{node: node}]; ln != nil {
		return ln.size(pr.Index())
	}
	return 0
}

// A bulk producer parks once its lane holds bulkWindow frames, while
// DefaultQueueCap keeps bounding everything that does not wait: another
// class on the same lane queues up to DefaultQueueCap and sheds its
// oldest past it, and Reroute lands bulk frames on a lane already at the
// window without waiting.
func TestBulkWindowBoundsProducer(t *testing.T) {
	p, wifi, radio := twoBearers(t, Config{}, Config{})
	defer p.Close()
	sel := &funcSelector{}
	sel.set(func(transport.NodeID, qos.Priority) string { return "radio" }, nil)
	p.SetSelector(sel)
	wifi.gate, radio.gate = make(chan struct{}), make(chan struct{})
	// 600-byte chunks never coalesce, so every frame is one datagram.
	chunk := func(seq uint64) []byte {
		return frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, seq, 600)
	}
	onRadio, onWifi := Dest{Node: "gs", Bearer: "radio"}, Dest{Node: "gs", Bearer: "wifi"}

	const n = 3 * bulkWindow
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = chunk(uint64(i + 1))
	}
	done := make(chan error, 1)
	go func() {
		for _, raw := range raws {
			if err := p.EnqueueTo(onRadio, qos.PriorityBulk, raw); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// One frame at the gate, a window's worth queued, the producer holds the next.
	waitParkedAt(t, p, "radio", 1+bulkWindow)
	if got := queuedAt(p, "radio", "gs", qos.PriorityBulk); got != bulkWindow {
		t.Fatalf("producer parked with %d bulk frames queued, want %d", got, bulkWindow)
	}

	const over = 10
	for seq := uint64(1); seq <= DefaultQueueCap+over; seq++ {
		if err := p.EnqueueTo(onRadio, qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, seq, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if got := queuedAt(p, "radio", "gs", qos.PriorityNormal); got != DefaultQueueCap {
		t.Errorf("normal lane holds %d frames, want DefaultQueueCap = %d", got, DefaultQueueCap)
	}
	if dropped := counter(t, p, "radio", "dropped", qos.PriorityNormal); dropped != over {
		t.Errorf("normal dropped = %d, want %d", dropped, over)
	}

	for seq := uint64(1); seq <= 1+bulkWindow; seq++ {
		if err := p.EnqueueTo(onWifi, qos.PriorityBulk, chunk(1000+seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitDequeued(t, p, qos.PriorityBulk, 2) // each drainer holds one at its gate
	if moved := p.Reroute("wifi"); moved != bulkWindow {
		t.Fatalf("Reroute moved %d frames, want %d", moved, bulkWindow)
	}
	if got := queuedAt(p, "radio", "gs", qos.PriorityBulk); got != 2*bulkWindow {
		t.Errorf("radio bulk lane holds %d frames after the reroute, want %d", got, 2*bulkWindow)
	}
	if got := counter(t, p, "radio", "enqueued", qos.PriorityBulk); got != 1+2*bulkWindow {
		t.Errorf("radio accepted %d bulk frames, want %d: the producer ran on past the rerouted ones", got, 1+2*bulkWindow)
	}

	close(radio.gate)
	close(wifi.gate)
	if err := <-done; err != nil {
		t.Fatalf("producer: %v", err)
	}
	if dropped := counter(t, p, "radio", "dropped", qos.PriorityBulk) + counter(t, p, "wifi", "dropped", qos.PriorityBulk); dropped != 0 {
		t.Errorf("bulk dropped = %d, want 0", dropped)
	}
}
