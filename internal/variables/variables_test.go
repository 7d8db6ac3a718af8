package variables

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
)

var posType = presentation.MustParse("{lat:f64,lon:f64}")

// encodeSamplePayload builds the payload a remote publisher would send.
func encodeSamplePayload(enc encoding.Encoding, t *presentation.Type, v any, ts time.Time, validity time.Duration, pub uint32) ([]byte, error) {
	body, err := enc.Marshal(t, v)
	if err != nil {
		return nil, err
	}
	return append(appendSampleHeader(nil, ts, validity, pub), body...), nil
}

func TestSamplePayloadRoundTrip(t *testing.T) {
	enc := encoding.Binary{}
	ts := time.Unix(1_750_000_000, 123456789)
	val := map[string]any{"lat": 41.0, "lon": 2.0}
	payload, err := encodeSamplePayload(enc, posType, val, ts, 750*time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, gotTS, validity, pub, err := decodeSamplePayload(enc, posType, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !presentation.EqualValues(val, got) {
		t.Errorf("value %v", got)
	}
	if !gotTS.Equal(ts) {
		t.Errorf("ts %v vs %v", gotTS, ts)
	}
	if validity != 750*time.Millisecond {
		t.Errorf("validity %v", validity)
	}
	if pub != 7 {
		t.Errorf("incarnation %d, want 7", pub)
	}
	if _, _, _, _, err := decodeSamplePayload(enc, posType, payload[:4]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestOfferValidation(t *testing.T) {
	e := New(fabrictest.New(t, "n"))
	if _, err := e.Offer("v", "svc", presentation.ArrayOf(0, presentation.Int8()), qos.VariableQoS{}); err == nil {
		t.Error("invalid type accepted")
	}
	if _, err := e.Offer("v", "svc", posType, qos.VariableQoS{Validity: -1}); err == nil {
		t.Error("invalid QoS accepted")
	}
	if _, err := e.Offer("v", "svc", posType, qos.VariableQoS{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Offer("v", "svc", posType, qos.VariableQoS{}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate: %v", err)
	}
	if e.PublisherCount() != 1 {
		t.Errorf("PublisherCount = %d", e.PublisherCount())
	}
}

func TestPublishMulticastsAndCaches(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	p, err := e.Offer("v", "svc", posType, qos.VariableQoS{Validity: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(map[string]any{"lat": 1.0, "lon": 2.0}); err != nil {
		t.Fatal(err)
	}
	frames := f.GroupFrames("v:v")
	if len(frames) != 1 || frames[0].Type != protocol.MTSample || frames[0].Seq != 1 {
		t.Fatalf("frames = %+v", frames)
	}
	v, _, ok := p.Snapshot()
	if !ok || !presentation.EqualValues(v, map[string]any{"lat": 1.0, "lon": 2.0}) {
		t.Error("snapshot not cached")
	}
	// Coercion failures surface.
	if err := p.Publish("garbage"); err == nil {
		t.Error("bad value accepted")
	}
	p.Close()
	if err := p.Publish(map[string]any{"lat": 1.0, "lon": 2.0}); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close: %v", err)
	}
}

func TestOnChangeOnlySuppression(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	p, err := e.Offer("v", "svc", posType, qos.VariableQoS{OnChangeOnly: true, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	val := map[string]any{"lat": 1.0, "lon": 2.0}
	for i := 0; i < 5; i++ {
		if err := p.Publish(val); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(f.GroupFrames("v:v")); got != 1 {
		t.Errorf("unchanged value sent %d times, want 1", got)
	}
	// A changed value goes out immediately.
	if err := p.Publish(map[string]any{"lat": 9.0, "lon": 2.0}); err != nil {
		t.Fatal(err)
	}
	if got := len(f.GroupFrames("v:v")); got != 2 {
		t.Errorf("changed value not sent: %d frames", got)
	}
}

func TestSubscribeTypeMismatchRejected(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	f.Directory().Apply(&naming.Announcement{
		Node: "remote", Epoch: 1,
		Records: []naming.Record{{
			Kind: naming.KindVariable, Name: "v", Service: "svc",
			Node: "remote", TypeSig: "{x:i32}",
		}},
	})
	if _, err := e.Subscribe("v", posType, SubscribeOptions{}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("want ErrTypeMismatch, got %v", err)
	}
}

func TestSubscriptionLifecycle(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	s, err := e.Subscribe("v", posType, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(); !errors.Is(err, ErrNoValue) {
		t.Errorf("empty Get: %v", err)
	}
	if f.Joined("v:v") != 1 {
		t.Error("subscription did not join the group")
	}
	s.Close()
	s.Close() // idempotent
	if f.Joined("v:v") != 0 {
		t.Error("close did not leave the group")
	}
}

func TestHandleSampleDeliversAndOrders(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	var got atomic.Value
	s, err := e.Subscribe("v", posType, SubscribeOptions{
		OnSample: func(v any, _ time.Time) { got.Store(v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	enc := encoding.Binary{}
	mk := func(lat float64, seq uint64) *protocol.Frame {
		payload, err := encodeSamplePayload(enc, posType, map[string]any{"lat": lat, "lon": 0.0}, time.Now(), 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		return &protocol.Frame{
			Type: protocol.MTSample, Encoding: enc.ID(), Channel: "v",
			Seq: seq, Payload: payload,
		}
	}
	e.HandleSample("remote", mk(1.0, 5))
	v, _, err := s.Get()
	if err != nil || v.(map[string]any)["lat"] != 1.0 {
		t.Fatalf("first sample: %v %v", v, err)
	}
	// A reordered older sample must not overwrite.
	e.HandleSample("remote", mk(0.5, 3))
	v, _, _ = s.Get()
	if v.(map[string]any)["lat"] != 1.0 {
		t.Error("stale sample overwrote newer value")
	}
	// Newer seq wins.
	e.HandleSample("remote", mk(2.0, 6))
	v, _, _ = s.Get()
	if v.(map[string]any)["lat"] != 2.0 {
		t.Error("newer sample rejected")
	}
	samples, _ := s.Stats()
	if samples != 2 {
		t.Errorf("samples = %d, want 2 (stale one dropped)", samples)
	}
}

func TestHandleSnapshotReqRepliesReliably(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	p, err := e.Offer("v", "svc", posType, qos.VariableQoS{})
	if err != nil {
		t.Fatal(err)
	}
	// No value yet: no reply.
	e.HandleSnapshotReq("asker", &protocol.Frame{Type: protocol.MTSnapshotReq, Channel: "v"})
	if len(f.Frames(fabrictest.Reliable)) != 0 {
		t.Error("snapshot replied before any publish")
	}
	if err := p.Publish(map[string]any{"lat": 4.0, "lon": 5.0}); err != nil {
		t.Fatal(err)
	}
	e.HandleSnapshotReq("asker", &protocol.Frame{Type: protocol.MTSnapshotReq, Channel: "v"})
	if reliable := f.Frames(fabrictest.Reliable); len(reliable) != 1 || reliable[0].Type != protocol.MTSnapshotRep {
		t.Fatalf("reliable frames = %+v", reliable)
	}
}

func TestRecords(t *testing.T) {
	e := New(fabrictest.New(t, "node9"))
	if _, err := e.Offer("gps.position", "gps", posType, qos.VariableQoS{}); err != nil {
		t.Fatal(err)
	}
	recs := e.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Kind != naming.KindVariable || r.Name != "gps.position" ||
		r.Node != "node9" || r.TypeSig != posType.String() {
		t.Errorf("record = %+v", r)
	}
}

// sampleFrame builds an MTSample frame for subscriber-side handler tests.
func sampleFrame(t *testing.T, lat float64, pub uint32, seq uint64, ts time.Time) *protocol.Frame {
	t.Helper()
	enc := encoding.Binary{}
	payload, err := encodeSamplePayload(enc, posType, map[string]any{"lat": lat, "lon": 0.0}, ts, 0, pub)
	if err != nil {
		t.Fatal(err)
	}
	return &protocol.Frame{
		Type: protocol.MTSample, Encoding: enc.ID(), Channel: "v",
		Seq: seq, Payload: payload,
	}
}

func TestPublisherRestartResetsReorderFilter(t *testing.T) {
	// A restarted publisher starts a fresh seq numbering at 1. Before the
	// incarnation id rode on the wire, the subscriber's reorder filter
	// discarded every new sample until the new seq overtook the old
	// high-water mark; now the incarnation change resets the filter.
	e := New(fabrictest.New(t, "n"))
	s, err := e.Subscribe("v", posType, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// First incarnation, deep into its sequence numbering.
	e.HandleSample("remote", sampleFrame(t, 1.0, 101, 50, time.Now()))
	if v, _, err := s.Get(); err != nil || v.(map[string]any)["lat"] != 1.0 {
		t.Fatalf("first incarnation sample: %v %v", v, err)
	}
	// Publisher restarts: new incarnation, seq back to 1.
	e.HandleSample("remote", sampleFrame(t, 2.0, 202, 1, time.Now()))
	v, _, err := s.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v.(map[string]any)["lat"] != 2.0 {
		t.Fatal("restarted publisher's first sample discarded as reordered")
	}
	// The filter still works within the new incarnation.
	e.HandleSample("remote", sampleFrame(t, 3.0, 202, 3, time.Now()))
	e.HandleSample("remote", sampleFrame(t, 2.5, 202, 2, time.Now()))
	if v, _, _ := s.Get(); v.(map[string]any)["lat"] != 3.0 {
		t.Error("reorder filter broken after incarnation reset")
	}
	// A delayed duplicate from the dead incarnation (older publish
	// instant) must not flip the filter back and reinstall stale data.
	e.HandleSample("remote", sampleFrame(t, 0.5, 101, 50, time.Now().Add(-time.Minute)))
	if v, _, _ := s.Get(); v.(map[string]any)["lat"] != 3.0 {
		t.Error("pre-restart straggler overwrote the fresh value")
	}
	// And the current incarnation keeps flowing afterwards.
	e.HandleSample("remote", sampleFrame(t, 4.0, 202, 4, time.Now()))
	if v, _, _ := s.Get(); v.(map[string]any)["lat"] != 4.0 {
		t.Error("current incarnation rejected after straggler")
	}
}

func TestPublisherTakeoverWithLaggingClock(t *testing.T) {
	// A replacement publisher on another node whose clock lags the dead
	// one must not be locked out past the grace window: once the cached
	// sample's arrival is no longer recent, the incarnation change wins
	// regardless of the publisher timestamps.
	e := New(fabrictest.New(t, "n"))
	s, err := e.Subscribe("v", posType, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Dead publisher's clock ran a minute ahead.
	e.HandleSample("remote", sampleFrame(t, 1.0, 101, 9, time.Now().Add(time.Minute)))
	// Simulate the grace window having elapsed since that arrival.
	s.mu.Lock()
	s.rxAt = time.Now().Add(-2 * incarnationGrace)
	s.mu.Unlock()
	// Replacement publisher, accurate (therefore "older") clock.
	e.HandleSample("remote", sampleFrame(t, 5.0, 303, 1, time.Now()))
	if v, _, err := s.Get(); err != nil || v.(map[string]any)["lat"] != 5.0 {
		t.Fatalf("takeover publisher locked out: %v %v", v, err)
	}
}

func TestSnapshotOfOldValueIsStale(t *testing.T) {
	// A snapshot reply can carry a value published long ago; its age at
	// arrival (per the publisher clock, clamped >= 0) must count against
	// validity, so a long-expired value is not served as fresh just
	// because it arrived now.
	e := New(fabrictest.New(t, "n"))
	s, err := e.Subscribe("v", posType, SubscribeOptions{
		QoS: qos.VariableQoS{Validity: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e.HandleSnapshotRep("pub", sampleFrame(t, 1.0, 0, 0, time.Now().Add(-10*time.Minute)))
	if _, _, err := s.Get(); !errors.Is(err, ErrStale) {
		t.Errorf("10-minute-old snapshot served as fresh: %v", err)
	}
	// A genuinely fresh sample is served.
	e.HandleSample("remote", sampleFrame(t, 2.0, 55, 1, time.Now()))
	if v, _, err := s.Get(); err != nil || v.(map[string]any)["lat"] != 2.0 {
		t.Errorf("fresh sample: %v %v", v, err)
	}
	// And a publisher clock running ahead cannot subtract age.
	e.HandleSample("remote", sampleFrame(t, 3.0, 55, 2, time.Now().Add(time.Hour)))
	if v, _, err := s.Get(); err != nil || v.(map[string]any)["lat"] != 3.0 {
		t.Errorf("ahead-clock sample: %v %v", v, err)
	}
}

func TestRequireInitialWakesOnArrival(t *testing.T) {
	// The guaranteed-initial-value wait must wake as soon as the snapshot
	// reply lands, well before InitialTimeout, without polling.
	f := fabrictest.New(t, "n")
	e := New(f)
	f.Directory().Apply(&naming.Announcement{Node: "pub", Epoch: 1, Records: []naming.Record{
		{Kind: naming.KindVariable, Name: "v", Service: "svc", Node: "pub", TypeSig: posType.String()},
	}})

	const arriveAfter = 30 * time.Millisecond
	go func() {
		time.Sleep(arriveAfter)
		e.HandleSnapshotRep("pub", sampleFrame(t, 9.0, 0, 0, time.Now()))
	}()
	start := time.Now()
	s, err := e.Subscribe("v", posType, SubscribeOptions{
		RequireInitial: true,
		InitialTimeout: 2 * time.Second,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, _, err := s.Get(); err != nil || v.(map[string]any)["lat"] != 9.0 {
		t.Fatalf("initial value: %v %v", v, err)
	}
	if elapsed >= time.Second {
		t.Errorf("initial wait took %v; should wake at ~%v", elapsed, arriveAfter)
	}
}

func TestSilenceUsesReceiverClock(t *testing.T) {
	// The publisher's embedded timestamp is an hour in the past (clock
	// skew); the OnTimeout warning must report silence measured from the
	// receiver-side arrival instant, not a bogus ~1h duration.
	e := New(fabrictest.New(t, "n"))
	silences := make(chan time.Duration, 4)
	s, err := e.Subscribe("v", posType, SubscribeOptions{
		QoS:       qos.VariableQoS{Period: 20 * time.Millisecond, DeadlineFactor: 2},
		OnTimeout: func(d time.Duration) { silences <- d },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	skewed := time.Now().Add(-time.Hour)
	e.HandleSample("remote", sampleFrame(t, 1.0, 77, 1, skewed))
	select {
	case silence := <-silences:
		if silence < 0 || silence > 10*time.Second {
			t.Errorf("silence = %v; want a small receiver-side duration", silence)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no timeout warning fired")
	}
}

func TestForeignEncodingIgnored(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	s, err := e.Subscribe("v", posType, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e.HandleSample("remote", &protocol.Frame{
		Type: protocol.MTSample, Encoding: 99, Channel: "v", Seq: 1,
		Payload: []byte{1, 2, 3},
	})
	if _, _, err := s.Get(); !errors.Is(err, ErrNoValue) {
		t.Error("foreign-encoded sample was accepted")
	}
}

// TestSnapshotReadAPIs covers the public last-value read surface the
// ground gateway builds its cache on: Publisher.Snapshot before/after a
// publish, Subscription.Snapshot ignoring validity, and both returning
// copies rather than aliases of the cached value.
func TestSnapshotReadAPIs(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	p, err := e.Offer("v", "svc", posType, qos.VariableQoS{Validity: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := p.Snapshot(); ok {
		t.Fatal("Publisher.Snapshot reported a value before any publish")
	}
	s, err := e.Subscribe("v", posType, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, ok := s.Snapshot(); ok {
		t.Fatal("Subscription.Snapshot reported a value before any sample")
	}

	want := map[string]any{"lat": 1.0, "lon": 2.0}
	if err := p.Publish(want); err != nil {
		t.Fatal(err)
	}
	v, ts, ok := p.Snapshot()
	if !ok || ts.IsZero() || !presentation.EqualValues(v, want) {
		t.Fatalf("Publisher.Snapshot = %v, %v, %v", v, ts, ok)
	}
	// Mutating the returned map must not touch the cache.
	v.(map[string]any)["lat"] = -99.0
	if again, _, _ := p.Snapshot(); !presentation.EqualValues(again, want) {
		t.Fatal("Publisher.Snapshot aliases its cache")
	}

	// The local bypass delivered the sample to the subscription; its
	// snapshot serves the cached value even after validity lapses, where
	// Get reports ErrStale.
	sv, _, ok := s.Snapshot()
	if !ok || !presentation.EqualValues(sv, want) {
		t.Fatalf("Subscription.Snapshot = %v, %v", sv, ok)
	}
	sv.(map[string]any)["lon"] = -99.0
	time.Sleep(15 * time.Millisecond)
	if _, _, err := s.Get(); !errors.Is(err, ErrStale) {
		t.Fatalf("Get past validity: %v", err)
	}
	if again, _, ok := s.Snapshot(); !ok || !presentation.EqualValues(again, want) {
		t.Fatalf("stale Snapshot = %v, %v (want cached value, no staleness)", again, ok)
	}
}
