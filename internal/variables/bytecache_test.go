package variables

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/presentation/ptest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
)

// TestPublishAllocatesNothing is the publish-side gate of the fused
// coerce+append encoder: one telemetry sample, header to SendGroup, with
// no allocation at all.
func TestPublishAllocatesNothing(t *testing.T) {
	// The double drops every send unrecorded, so the gate measures the
	// engine alone.
	f := fabrictest.New(t, "n")
	f.Discard(nil)
	e := New(f)
	p, err := e.Offer("nav.position", "svc", ptest.PositionType, qos.VariableQoS{Validity: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	val := ptest.PositionValue()
	if err := p.Publish(val); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := p.Publish(val); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Publish allocates %.1f times per sample, want 0", allocs)
	}
}

// TestHandleSampleAllocatesDecodeFloor pins the receive side at exactly
// what the map[string]any callback contract costs to decode: the record
// that carries the value to the scheduler is reused. The floor itself is
// held to the map and one scalar slab, so a decode regression cannot pass.
func TestHandleSampleAllocatesDecodeFloor(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	s, err := e.Subscribe("nav.position", ptest.PositionType, SubscribeOptions{OnSample: func(any, time.Time) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	enc := encoding.Binary{}
	payload, err := encodeSamplePayload(enc, ptest.PositionType, ptest.PositionValue(), time.Now(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	floor := testing.AllocsPerRun(200, func() {
		if _, err := enc.Unmarshal(ptest.PositionType, payload[sampleHeaderLen:]); err != nil {
			t.Fatal(err)
		}
	})
	if floor > 3 {
		t.Fatalf("decoding a position allocates %.1f times, want at most 3", floor)
	}
	fr := &protocol.Frame{Type: protocol.MTSample, Encoding: enc.ID(), Channel: "nav.position", Payload: payload}
	seq := uint64(0)
	got := testing.AllocsPerRun(200, func() {
		seq++
		fr.Seq = seq
		e.HandleSample("remote", fr)
	})
	if got != floor {
		t.Fatalf("HandleSample allocates %.1f times, want the decode floor %.1f", got, floor)
	}
	if samples, _ := s.Stats(); samples < 200 {
		t.Fatalf("only %d samples were accepted; the gate measured a drop path", samples)
	}
}

func TestOnChangeOnlyComparesEncodedBytes(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	p, err := e.Offer("v", "svc", posType, qos.VariableQoS{OnChangeOnly: true, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	publish := func(lat float64) int {
		t.Helper()
		if err := p.Publish(map[string]any{"lat": lat, "lon": 2.0}); err != nil {
			t.Fatal(err)
		}
		return len(f.GroupFrames("v:v"))
	}
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // a second NaN payload
	steps := []struct {
		name string
		lat  float64
		want int
	}{
		{"first value", 0.0, 1},
		{"same value, other Go spelling of the same bits", 0.0, 1},
		{"-0.0 after +0.0 encodes differently: a change", math.Copysign(0, -1), 2},
		{"NaN", math.NaN(), 3},
		{"the same NaN again", math.NaN(), 3},
		{"a NaN with another payload: a change", nan2, 4},
	}
	for _, st := range steps {
		if got := publish(st.lat); got != st.want {
			t.Fatalf("%s: %d frames sent so far, want %d", st.name, got, st.want)
		}
	}
	// A coercible spelling of an unchanged value is still unchanged.
	if err := p.Publish(map[string]any{"lat": nan2, "lon": 2}); err != nil {
		t.Fatal(err)
	}
	if got := len(f.GroupFrames("v:v")); got != 4 {
		t.Fatalf("int spelling of an unchanged field counted as a change: %d frames", got)
	}
}

// TestCachedValueSurvivesCallerMutation covers the byte cache's ownership:
// the publisher keeps bytes, not the caller's map, so writes to that map
// after Publish reach neither Snapshot, nor the snapshot reply, nor a local
// subscriber — and every reader gets its own copy.
func TestCachedValueSurvivesCallerMutation(t *testing.T) {
	f := fabrictest.New(t, "n")
	e := New(f)
	blobType := presentation.MustParse("{tag:bytes,lat:f64}")
	p, err := e.Offer("v", "svc", blobType, qos.VariableQoS{Validity: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []any
	subs := make([]*Subscription, 2)
	for i := range subs {
		if subs[i], err = e.Subscribe("v", blobType, SubscribeOptions{
			OnSample: func(v any, _ time.Time) { delivered = append(delivered, v) },
		}); err != nil {
			t.Fatal(err)
		}
		defer subs[i].Close()
	}

	tag := []byte{1, 2, 3}
	val := map[string]any{"tag": tag, "lat": 7.0}
	want := map[string]any{"tag": []byte{1, 2, 3}, "lat": 7.0}
	before := time.Now()
	if err := p.Publish(val); err != nil {
		t.Fatal(err)
	}
	tag[0], val["lat"] = 99, -1.0

	snap, ts, ok := p.Snapshot()
	if !ok || !presentation.EqualValues(snap, want) {
		t.Fatalf("Snapshot after caller mutation = %#v", snap)
	}
	if ts.Before(before) || ts.After(time.Now()) {
		t.Fatalf("Snapshot timestamp %v is not the publish instant", ts)
	}

	// Local bypass: one private copy per subscriber.
	if len(delivered) != 2 {
		t.Fatalf("%d local deliveries, want 2", len(delivered))
	}
	delivered[0].(map[string]any)["tag"].([]byte)[1] = 42
	delivered[0].(map[string]any)["lat"] = 0.5
	if !presentation.EqualValues(delivered[1], want) {
		t.Fatalf("local subscribers share one value: %#v", delivered[1])
	}
	if got, _, err := subs[1].Get(); err != nil || !presentation.EqualValues(got, want) {
		t.Fatalf("subscription cache = %#v, %v", got, err)
	}

	// The snapshot reply is assembled from the cached bytes: the value as
	// published, under its publish instant.
	e.HandleSnapshotReq("asker", &protocol.Frame{Type: protocol.MTSnapshotReq, Channel: "v"})
	reliable := f.Frames(fabrictest.Reliable)
	reply := reliable[len(reliable)-1]
	got, replyTS, validity, pub, err := decodeSamplePayload(encoding.Binary{}, blobType, reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !presentation.EqualValues(got, want) || !replyTS.Equal(ts) || validity != time.Minute || pub != p.id {
		t.Fatalf("snapshot reply = %#v at %v (validity %v, incarnation %d), want %#v at %v",
			got, replyTS, validity, pub, want, ts)
	}
}

// TestRequireInitialCarriesOriginalTimestamp runs the guaranteed-initial-
// value exchange between two engines: the subscriber ends up with the last
// value under the instant it was published, not the instant it was asked for.
func TestRequireInitialCarriesOriginalTimestamp(t *testing.T) {
	pf, sf := fabrictest.New(t, "pub"), fabrictest.New(t, "sub")
	pe, se := New(pf), New(sf)
	p, err := pe.Offer("v", "svc", posType, qos.VariableQoS{Validity: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"lat": 3.0, "lon": 4.0}
	if err := p.Publish(want); err != nil {
		t.Fatal(err)
	}
	_, publishedAt, _ := p.Snapshot()
	time.Sleep(2 * time.Millisecond) // the request must not restamp the value

	sf.Directory().Apply(&naming.Announcement{Node: "pub", Epoch: 1, Records: pe.Records()})
	done := make(chan *Subscription, 1)
	go func() {
		s, err := se.Subscribe("v", posType, SubscribeOptions{RequireInitial: true})
		if err != nil {
			t.Errorf("Subscribe: %v", err)
		}
		done <- s
	}()
	// Carry the request to the publisher and the reply back.
	deadline := time.Now().Add(2 * time.Second)
	for len(sf.Frames(fabrictest.Reliable)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot request sent")
		}
		time.Sleep(time.Millisecond)
	}
	pe.HandleSnapshotReq("sub", sf.Frames(fabrictest.Reliable)[0])
	se.HandleSnapshotRep("pub", pf.Frames(fabrictest.Reliable)[0])
	s := <-done
	if s == nil {
		return
	}
	defer s.Close()
	got, ts, err := s.Get()
	if err != nil || !presentation.EqualValues(got, want) {
		t.Fatalf("initial value = %#v, %v", got, err)
	}
	if !ts.Equal(time.Unix(0, publishedAt.UnixNano())) {
		t.Fatalf("initial value stamped %v, published at %v", ts, publishedAt)
	}
	// The reply's header is the sample header, byte for byte.
	if n := binary.BigEndian.Uint64(pf.Frames(fabrictest.Reliable)[0].Payload); int64(n) != publishedAt.UnixNano() {
		t.Fatalf("reply header carries %d, want %d", n, publishedAt.UnixNano())
	}
}

// TestVirtualClockDrivesStalenessAndSilence is the regression test for the
// engine ignoring the injected clock: validity and silence detection must
// run on virtual time, with no wall-clock sleep anywhere.
func TestVirtualClockDrivesStalenessAndSilence(t *testing.T) {
	v := clock.NewVirtual()
	f := fabrictest.New(t, "n")
	f.Clk = v // as core.Node does
	e := New(f)
	const period = 20 * time.Millisecond // silence deadline 3 × period
	var (
		mu    sync.Mutex
		fired []time.Duration // virtual instants of the warnings, since start
		gaps  []time.Duration // the silence each warning reported
	)
	v.Run(func() {
		start := v.Now()
		p, err := e.Offer("v", "svc", posType, qos.VariableQoS{Validity: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Subscribe("v", posType, SubscribeOptions{
			QoS: qos.VariableQoS{Period: period},
			OnTimeout: func(silence time.Duration) {
				mu.Lock()
				fired = append(fired, v.Since(start))
				gaps = append(gaps, silence)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := p.Publish(map[string]any{"lat": 1.0, "lon": 2.0}); err != nil {
			t.Fatal(err)
		}
		if _, ts, err := s.Get(); err != nil || !ts.Equal(start) {
			t.Fatalf("fresh Get = %v at %v, want a value stamped with the virtual instant %v", err, ts, start)
		}
		v.Sleep(150 * time.Millisecond)
		if _, _, err := s.Get(); !errors.Is(err, ErrStale) {
			t.Fatalf("Get after 150 ms of virtual time with 100 ms validity: %v, want ErrStale", err)
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 2 || fired[0] != 3*period || fired[1] != 6*period {
		t.Fatalf("silence warnings at %v, want exactly the virtual deadlines [60ms 120ms]", fired)
	}
	if gaps[0] != 3*period || gaps[1] != 6*period {
		t.Fatalf("reported silences %v, want [60ms 120ms]", gaps)
	}
}
