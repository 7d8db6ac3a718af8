package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"uavmw/internal/events"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/services"
	"uavmw/internal/transport"
)

const (
	alarmRate    = 2000 // events per second, fixed schedule
	alarmPeriod  = time.Second / alarmRate
	alarmTimeout = time.Second
	alarmTopic   = "payload.detection"
)

// Per-event delivery state bits.
const (
	alarmReceived uint32 = 1 << iota // handler got it, payload verified
	alarmAcked                       // Publish returned nil
)

// alarm is alarm_paced_udp (§4.2): a critical reliable event, publisher →
// subscriber over UDP loopback sockets, published open loop on a fixed
// schedule. An op completes when the handler received the event intact
// and the publisher saw it acknowledged.
type alarm struct {
	*harness
	pub  *events.Publisher
	pool valuePool
	// state[seq] collects the two halves of an op and from[seq] is the
	// instant its latency is timed from, in ns since epoch; both are
	// sized for the longest run so the handler never allocates or locks.
	state []atomic.Uint32
	from  []atomic.Int64
	epoch time.Time
	next  uint32 // generator's sequence counter
}

// alarmIdent finds an event's trace id: the generator writes the per-topic
// sequence number into count, and the event engine carries its own
// per-topic sequence (the same number) in the event payload header.
type alarmIdent struct{}

func (alarmIdent) value(_ *presentation.Type, v any) (traceID, bool) {
	m, _ := v.(map[string]any)
	count, ok := m["count"].(uint32)
	if !ok {
		return traceID{}, false
	}
	return traceID{flow: 1, seq: count}, false
}

func (alarmIdent) frame(f *protocol.Frame) (traceID, bool) {
	if f.Type != protocol.MTEvent || f.Channel != alarmTopic {
		return traceID{}, false
	}
	_, seq, _, err := protocol.DecodeEventPayload(f.Payload)
	if err != nil {
		return traceID{}, false
	}
	return traceID{flow: 1, seq: uint32(seq)}, false
}

// alarmMaxEvents bounds one instance's events: 60 s of schedule.
const alarmMaxEvents = 60 * alarmRate

func udpPair(a, b transport.NodeID) (*transport.UDP, *transport.UDP, error) {
	// The deployment path of cmd/uavnode without routed multicast.
	ta, err := transport.NewUDP(a, "127.0.0.1:0", nil, transport.WithUnicastFanout())
	if err != nil {
		return nil, nil, err
	}
	tb, err := transport.NewUDP(b, "127.0.0.1:0", nil, transport.WithUnicastFanout())
	if err != nil {
		_ = ta.Close()
		return nil, nil, err
	}
	if err := ta.AddPeer(b, tb.LocalAddr()); err == nil {
		err = tb.AddPeer(a, ta.LocalAddr())
	}
	if err != nil {
		_ = ta.Close()
		_ = tb.Close()
		return nil, nil, err
	}
	return ta, tb, nil
}

func buildAlarm(seed int64, tr *tracer) (_ instance, err error) {
	rng := rand.New(rand.NewSource(seed))
	w := &alarm{
		harness: newHarness(tr),
		pool:    detectionPool(rng, alarmTopic),
		state:   make([]atomic.Uint32, alarmMaxEvents+1),
		from:    make([]atomic.Int64, alarmMaxEvents+1),
		epoch:   time.Now(),
	}
	defer w.closeOnError(&err)
	if tr != nil {
		tr.ident = alarmIdent{}
	}
	ta, tb, err := udpPair("uav", "gcs")
	if err != nil {
		return nil, err
	}
	uav, err := w.addNode(ta)
	if err != nil {
		_ = tb.Close() // not yet the harness's to close
		return nil, err
	}
	gcs, err := w.addNode(tb)
	if err != nil {
		return nil, err
	}
	q := qos.EventQoS{Reliability: qos.ReliableARQ, Priority: qos.PriorityCritical}
	if w.pub, err = uav.Events().Offer(alarmTopic, "bench", services.TypeDetection, q); err != nil {
		return nil, err
	}
	if _, err = gcs.Events().Subscribe(alarmTopic, services.TypeDetection, q, w.onEvent); err != nil {
		return nil, err
	}
	if err := w.discovered(); err != nil {
		return nil, fmt.Errorf("alarm_paced_udp: %w", err)
	}
	if err := waitFor("event subscription", 5*time.Second, func() bool { return len(w.pub.Subscribers()) > 0 }); err != nil {
		return nil, fmt.Errorf("alarm_paced_udp: %w", err)
	}
	// First correct op, due now.
	w.publish(time.Now())
	if err := waitFor("first event", 5*time.Second, func() bool { return w.ok.Load() > 0 }); err != nil {
		return nil, fmt.Errorf("alarm_paced_udp: %w", err)
	}
	return w, nil
}

// settle records one half of an op and completes it when both are in.
func (w *alarm) settle(seq uint32, half uint32, lat time.Duration) {
	// Each half is recorded once (onEvent filters duplicates), so adding
	// the bit sets it.
	if w.state[seq].Add(half) == alarmReceived|alarmAcked {
		w.ok.Add(1)
	}
	if half == alarmReceived {
		w.lat.add(lat)
	}
}

// publish sends the next event; from is the instant its latency is timed
// from.
func (w *alarm) publish(from time.Time) {
	w.next++
	seq := w.next
	v := w.pool.send[int(seq)%poolSize]
	v["count"] = seq
	w.from[seq].Store(int64(from.Sub(w.epoch)))
	w.attempted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), alarmTimeout)
	t0 := w.tr.start()
	err := w.pub.Publish(ctx, v)
	w.tr.finishCall(t0, traceID{flow: 1, seq: seq})
	cancel()
	if err != nil {
		w.fail(err.Error())
		return
	}
	w.settle(seq, alarmAcked, 0)
}

// onEvent is the subscriber handler. Latency runs from the instant the
// schedule gives the event (see pacer), so a stall in the system is
// charged to every event it delayed.
func (w *alarm) onEvent(v any, _ transport.NodeID) {
	now := time.Now()
	got, _ := v.(map[string]any)
	seq, _ := got["count"].(uint32)
	t0 := w.tr.start()
	defer w.tr.finishCallback(t0, traceID{flow: 1, seq: seq})
	if seq == 0 || int(seq) >= len(w.state) || w.state[seq].Load()&alarmReceived != 0 {
		return // not ours, or a duplicate delivery
	}
	if !valueMatches(got, w.pool.want[int(seq)%poolSize], "count", seq) {
		w.fail("event payload differs from the one published")
		return
	}
	w.settle(seq, alarmReceived, now.Sub(w.epoch)-time.Duration(w.from[seq].Load()))
}

func (w *alarm) run() {
	// The schedule starts now, numbered on from the set-up's events.
	sched := &pacer{start: time.Now().Add(-time.Duration(w.next) * alarmPeriod), period: alarmPeriod}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for w.next < alarmMaxEvents {
			from, late, ok := sched.next(w.next+1, time.Now, sleepStop, w.stopCh)
			if !ok {
				return
			}
			w.genLate.add(late)
			t0 := time.Now()
			w.publish(from)
			sched.done(time.Since(t0))
		}
	}()
}

func (w *alarm) stop() {
	w.stopGenerators()
	// Handlers may trail the last ack by a scheduler hop.
	settled := func() bool { return w.ok.Load()+w.failed.Load() >= w.attempted.Load() }
	_ = waitFor("drain", alarmTimeout, settled)
	if a, done := w.attempted.Load(), w.ok.Load()+w.failed.Load(); a > done {
		w.failN("event acknowledged but never delivered to the handler", a-done)
	}
}
