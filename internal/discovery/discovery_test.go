package discovery

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/fabric/fabrictest"
	"uavmw/internal/metrics"
	"uavmw/internal/metrics/metricstest"
	"uavmw/internal/naming"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// The engine is driven here the way the container drives it — handler
// calls, AnnounceNow, flushOffer — on a fabric that records what it is
// asked to send and a virtual clock the test advances by sleeping. No
// loops run, so every assertion is on a settled state.

const (
	testEpoch  = 7
	testPeriod = 100 * time.Millisecond
)

// harness is an engine on a test double, with its hooks recorded. The
// double runs on a virtual clock and holds every reliable send in flight
// until the test releases it.
type harness struct {
	*Engine
	f         *fabrictest.Fabric
	offer     []naming.Record
	applied   []transport.NodeID
	gone      []transport.NodeID
	restarted []transport.NodeID
}

func newHarness(t *testing.T) *harness {
	h := &harness{f: fabrictest.New(t, "self")}
	h.f.Clk = clock.NewVirtual()
	h.f.Hold()
	h.Engine = New(h.f, Config{
		Epoch:        testEpoch,
		Period:       testPeriod,
		Offer:        func() []naming.Record { return h.offer },
		Load:         func() float64 { return 0 },
		OfferApplied: func(peer transport.NodeID) { h.applied = append(h.applied, peer) },
		PeerGone: func(peer transport.NodeID, restarted bool) {
			if restarted {
				h.restarted = append(h.restarted, peer)
			} else {
				h.gone = append(h.gone, peer)
			}
		},
		Tick: func() {},
	})
	return h
}

// errors reads the engine's typed-error count for one category.
func (h *harness) errors(t *testing.T, cat uerr.Category) uint64 {
	t.Helper()
	return metricstest.Counter(t, h.f.Metrics(), "discovery", "errors", metrics.L("category", cat.String()))
}

// variables returns n KindVariable records "prefix.i" offered by node.
func variables(node transport.NodeID, prefix string, n int) []naming.Record {
	recs := make([]naming.Record, n)
	for i := range recs {
		recs[i] = naming.Record{Kind: naming.KindVariable, Name: fmt.Sprintf("%s.%d", prefix, i), Service: "svc", Node: node, TypeSig: "{lat:f64,lon:f64}"}
	}
	return recs
}

func must(t *testing.T) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

func digest(t *testing.T, node transport.NodeID, epoch, version uint64) *protocol.Frame {
	return &protocol.Frame{Type: protocol.MTHeartbeat, Payload: must(t)(naming.EncodeDigest(
		&naming.Digest{Node: node, Epoch: epoch, Version: version, RecordCount: 1}))}
}

func syncReq(epoch, version uint64) *protocol.Frame {
	return &protocol.Frame{Type: protocol.MTSyncReq, Payload: naming.EncodeSyncRequest(
		&naming.SyncRequest{KnownEpoch: epoch, KnownVersion: version})}
}

// TestDigestGapRequestsOneSyncPerPeerPerPeriod: a digest the directory
// cannot match asks the peer for its records — once per peer per announce
// period however many digests expose the same gap, and again once the
// period has passed (the reply may have been lost).
func TestDigestGapRequestsOneSyncPerPeerPerPeriod(t *testing.T) {
	h := newHarness(t)
	steps := []struct {
		advance  time.Duration
		from     transport.NodeID
		wantReqs int // MTSyncReq frames this digest triggers
	}{
		{0, "p1", 1},
		{0, "p1", 0},
		{testPeriod / 2, "p1", 0},
		{0, "p2", 1}, // the throttle is per peer
		{testPeriod/2 - time.Nanosecond, "p1", 0},
		{time.Nanosecond, "p1", 1}, // one full period after p1's first request
		{0, "p2", 0},
	}
	h.f.Clk.(*clock.Virtual).Run(func() {
		for i, st := range steps {
			if st.advance > 0 {
				h.f.Clock().Sleep(st.advance)
			}
			h.HandleHeartbeat(st.from, digest(t, st.from, 3, 5))
			got := h.f.Take()
			if len(got) != st.wantReqs {
				t.Fatalf("step %d: digest from %s triggered %d sends, want %d", i, st.from, len(got), st.wantReqs)
			}
			for _, s := range got {
				if s.Frame.Type != protocol.MTSyncReq || s.To != st.from || s.Held != nil {
					t.Errorf("step %d: sent %v to %q (reliable %v), want a best-effort MTSyncReq to %s",
						i, s.Frame.Type, s.To, s.Held != nil, st.from)
				}
			}
		}
	})
	if got, want := metricstest.Counter(t, h.f.Metrics(), "discovery", "syncs_triggered"), uint64(len(steps)); got != want {
		t.Errorf("syncs_triggered = %d, want %d (suppressed detections count too)", got, want)
	}
	if got := metricstest.Counter(t, h.f.Metrics(), "discovery", "sync_requests_sent"); got != 3 {
		t.Errorf("sync_requests_sent = %d, want 3", got)
	}
}

// TestSyncRequestIsAnsweredByGapSize: a requester a few records behind in
// the current epoch gets one catch-up delta; a larger gap, an older epoch
// or a version outside the log gets the log's snapshot as one announcement
// — an empty one when the node offers nothing.
func TestSyncRequestIsAnsweredByGapSize(t *testing.T) {
	cases := []struct {
		name         string
		base         int // records at version 1
		gap          int // records registered after the requester's version
		knownEpoch   uint64
		knownVersion uint64
		wantDelta    bool
		wantNothing  bool
	}{
		{name: "one record behind", base: 10, gap: 1, knownEpoch: testEpoch, knownVersion: 1, wantDelta: true},
		{name: "64 records behind", base: 10, gap: syncDeltaMaxRecords, knownEpoch: testEpoch, knownVersion: 1, wantDelta: true},
		{name: "65 records behind", base: 10, gap: syncDeltaMaxRecords + 1, knownEpoch: testEpoch, knownVersion: 1},
		{name: "previous epoch", base: 10, gap: 1, knownEpoch: testEpoch - 1, knownVersion: 1},
		{name: "unknown node", base: 10, gap: 1},
		{name: "ahead of the log", base: 10, gap: 1, knownEpoch: testEpoch, knownVersion: 9},
		{name: "already current", base: 10, gap: 1, knownEpoch: testEpoch, knownVersion: 2, wantNothing: true},
		{name: "empty offer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			h.offer = variables("self", "base", tc.base)
			h.AnnounceNow() // version 1
			h.offer = append(h.offer, variables("self", "late", tc.gap)...)
			h.flushOffer() // version 2
			h.f.Take()

			h.HandleSyncReq("peer", syncReq(tc.knownEpoch, tc.knownVersion))
			got := h.f.Take()
			switch {
			case tc.wantNothing:
				if len(got) != 0 {
					t.Fatalf("answered a current requester with %d frames", len(got))
				}
				return
			case tc.wantDelta:
				if len(got) != 1 || got[0].Frame.Type != protocol.MTAnnounceDelta {
					t.Fatalf("answered with %d frames (first %v), want one MTAnnounceDelta", len(got), got[0].Frame.Type)
				}
				d, err := naming.DecodeDelta(got[0].Frame.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if d.Node != "self" || d.Epoch != testEpoch || d.From != tc.knownVersion || d.To != 2 || len(d.Added) != tc.gap {
					t.Errorf("catch-up delta = node %s epoch %d %d→%d with %d added, want self/%d %d→2 with %d",
						d.Node, d.Epoch, d.From, d.To, len(d.Added), testEpoch, tc.knownVersion, tc.gap)
				}
			default:
				if len(got) != 1 || got[0].Frame.Type != protocol.MTAnnounce {
					t.Fatalf("answered with %d frames (first %v), want one MTAnnounce", len(got), got[0].Frame.Type)
				}
				ann, err := naming.DecodeAnnouncement(got[0].Frame.Payload)
				if err != nil {
					t.Fatal(err)
				}
				recs, version := h.log.Snapshot()
				if ann.Node != "self" || ann.Epoch != testEpoch || ann.Version != version ||
					!slices.Equal(ann.Records, recs) {
					t.Errorf("snapshot = node %s epoch %d version %d with %d records, want the log's: self/%d version %d with %d",
						ann.Node, ann.Epoch, ann.Version, len(ann.Records), testEpoch, version, len(recs))
				}
				if len(recs) != tc.base+tc.gap {
					t.Errorf("the log holds %d records, the offer has %d", len(recs), tc.base+tc.gap)
				}
			}
			for i, s := range got {
				if s.To != "peer" || s.Held == nil || s.Frame.Priority != qos.PriorityHigh {
					t.Errorf("frame %d: to %q, reliable %v, priority %v; want a reliable PriorityHigh send to peer",
						i, s.To, s.Held != nil, s.Frame.Priority)
				}
			}
		})
	}
}

// TestFifthConcurrentSnapshotServeIsShed: four full-state replies may be
// in flight; the fifth request is dropped and counted as an admission
// failure, and a slot frees once a reply is acknowledged.
func TestFifthConcurrentSnapshotServeIsShed(t *testing.T) {
	h := newHarness(t)
	h.offer = variables("self", "v", 12)
	h.AnnounceNow()
	h.f.Take()

	var inFlight []fabrictest.Sent
	for i := 0; i < maxConcurrentSyncServes; i++ {
		h.HandleSyncReq(transport.NodeID(fmt.Sprintf("p%d", i)), syncReq(0, 0))
		reply := h.f.Take()
		if len(reply) != 1 {
			t.Fatalf("request %d was answered with %d frames, want 1", i, len(reply))
		}
		inFlight = append(inFlight, reply[0])
	}
	if got := h.errors(t, uerr.CatAdmission); got != 0 {
		t.Fatalf("%d requests shed below the cap", got)
	}

	h.HandleSyncReq("p4", syncReq(0, 0))
	if got := h.f.Take(); len(got) != 0 {
		t.Fatalf("fifth concurrent request was served %d frames", len(got))
	}
	if got := h.errors(t, uerr.CatAdmission); got != 1 {
		t.Fatalf("discovery.errors{category=admission} = %d, want 1", got)
	}

	inFlight[0].Held.Release(nil)
	h.HandleSyncReq("p4", syncReq(0, 0))
	if got := h.f.Take(); len(got) == 0 {
		t.Fatal("request not served after a reply completed")
	}
	if got := metricstest.Counter(t, h.f.Metrics(), "discovery", "sync_requests_served"); got != maxConcurrentSyncServes+1 {
		t.Errorf("sync_requests_served = %d, want %d", got, maxConcurrentSyncServes+1)
	}
}

// TestSnapshotRequestsCoalesceWhileInFlight: a peer whose snapshot reply is
// still in ARQ is not served a second one; its repeated requests are
// counted as coalesced, not shed, and take no serve slot. Once the reply
// completes, the peer's next request is served again.
func TestSnapshotRequestsCoalesceWhileInFlight(t *testing.T) {
	h := newHarness(t)
	h.offer = variables("self", "v", 12)
	h.AnnounceNow()
	h.f.Take()

	h.HandleSyncReq("p", syncReq(0, 0))
	reply := h.f.Take()
	if len(reply) != 1 {
		t.Fatalf("first request answered with %d frames, want 1", len(reply))
	}
	for i := 0; i < 3; i++ {
		h.HandleSyncReq("p", syncReq(0, 0))
	}
	if got := h.f.Take(); len(got) != 0 {
		t.Fatalf("requests during the reply were served %d frames", len(got))
	}
	counter := func(name string) uint64 { return metricstest.Counter(t, h.f.Metrics(), "discovery", name) }
	if got := counter("sync_requests_coalesced"); got != 3 {
		t.Errorf("sync_requests_coalesced = %d, want 3", got)
	}
	if got := h.errors(t, uerr.CatAdmission); got != 0 {
		t.Errorf("%d coalesced requests counted as shed", got)
	}
	// The coalesced peer holds one slot: three others are still served.
	for i := 0; i < maxConcurrentSyncServes-1; i++ {
		h.HandleSyncReq(transport.NodeID(fmt.Sprintf("q%d", i)), syncReq(0, 0))
		if got := h.f.Take(); len(got) != 1 {
			t.Fatalf("request from q%d answered with %d frames, want 1", i, len(got))
		}
	}

	reply[0].Held.Release(nil)
	h.HandleSyncReq("p", syncReq(0, 0))
	if got := h.f.Take(); len(got) != 1 {
		t.Fatalf("request after the reply completed answered with %d frames, want 1", len(got))
	}
	if got := counter("sync_requests_served"); got != maxConcurrentSyncServes+1 {
		t.Errorf("sync_requests_served = %d, want %d", got, maxConcurrentSyncServes+1)
	}
}

// TestMisattributedPayloadIsCountedNotApplied: a discovery payload naming
// another node than the one that sent it is a protocol violation — counted,
// and neither applied, answered nor taken as a sign of life.
func TestMisattributedPayloadIsCountedNotApplied(t *testing.T) {
	recs := variables("victim", "v", 2)
	cases := []struct {
		name   string
		handle func(*Engine, transport.NodeID, *protocol.Frame)
		frame  func(t *testing.T) *protocol.Frame
	}{
		{"announce", (*Engine).HandleAnnounce, func(t *testing.T) *protocol.Frame {
			return &protocol.Frame{Type: protocol.MTAnnounce, Payload: must(t)(naming.EncodeAnnouncement(
				&naming.Announcement{Node: "victim", Epoch: 1, Version: 1, Records: recs}))}
		}},
		{"heartbeat", (*Engine).HandleHeartbeat, func(t *testing.T) *protocol.Frame {
			return digest(t, "victim", 1, 1)
		}},
		{"delta", (*Engine).HandleAnnounceDelta, func(t *testing.T) *protocol.Frame {
			return &protocol.Frame{Type: protocol.MTAnnounceDelta, Payload: must(t)(naming.EncodeDelta(
				&naming.Delta{Node: "victim", Epoch: 1, From: 0, To: 1, Added: recs}))}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			tc.handle(h.Engine, "rogue", tc.frame(t))
			if got := h.errors(t, uerr.CatProtocol); got != 1 {
				t.Errorf("discovery.errors{category=protocol_violation} = %d, want 1", got)
			}
			for _, node := range []transport.NodeID{"victim", "rogue"} {
				if _, _, known := h.f.Directory().NodeVersion(node); known || h.f.Directory().NodeRecordCount(node) != 0 {
					t.Errorf("directory learned about %s from a misattributed frame", node)
				}
			}
			if len(h.Peers()) != 0 || len(h.applied) != 0 || len(h.f.Take()) != 0 {
				t.Errorf("peers %v, applied hooks %v: the frame must leave no trace", h.Peers(), h.applied)
			}
			// The same frame from its rightful sender is taken.
			tc.handle(h.Engine, "victim", tc.frame(t))
			if len(h.Peers()) != 1 {
				t.Errorf("frame from its own node not taken as a sign of life")
			}
		})
	}
}

// TestOfferFlushWaitsForIntroduction: registrations before the node has
// introduced itself put nothing on the wire and leave the log alone — they
// ride the full announce — and from then on each flush is one delta.
func TestOfferFlushWaitsForIntroduction(t *testing.T) {
	h := newHarness(t)
	h.offer = variables("self", "early", 3)
	h.flushOffer()
	if got := h.f.Take(); len(got) != 0 || h.OfferVersion() != 0 {
		t.Fatalf("pre-introduction flush sent %d frames and moved the log to version %d", len(got), h.OfferVersion())
	}

	h.AnnounceNow()
	got := h.f.Take()
	if len(got) != 1 || got[0].Frame.Type != protocol.MTAnnounce || got[0].Group == "" {
		t.Fatalf("introduction sent %d frames, want one multicast MTAnnounce", len(got))
	}
	ann, err := naming.DecodeAnnouncement(got[0].Frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Version != 1 || len(ann.Records) != 3 {
		t.Errorf("introduction carries version %d with %d records, want 1 with all 3", ann.Version, len(ann.Records))
	}

	h.flushOffer()
	if got := h.f.Take(); len(got) != 0 {
		t.Fatalf("flush of an unchanged offer sent %d frames", len(got))
	}
	h.offer = append(h.offer, variables("self", "late", 2)...)
	h.flushOffer()
	got = h.f.Take()
	if len(got) != 1 || got[0].Frame.Type != protocol.MTAnnounceDelta || got[0].Group == "" {
		t.Fatalf("flush sent %d frames, want one multicast MTAnnounceDelta", len(got))
	}
	d, err := naming.DecodeDelta(got[0].Frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if d.From != 1 || d.To != 2 || len(d.Added) != 2 || len(d.Withdrawn) != 0 {
		t.Errorf("delta %d→%d adds %d withdraws %d, want 1→2 adding 2", d.From, d.To, len(d.Added), len(d.Withdrawn))
	}
	if h.f.Directory().NodeRecordCount("self") != 5 {
		t.Errorf("local directory holds %d of the node's own 5 records", h.f.Directory().NodeRecordCount("self"))
	}
}

// TestHooksFollowTheDirectory: OfferApplied fires for what the directory
// accepted and not for what it rejected; PeerGone fires once the peer is
// purged.
func TestHooksFollowTheDirectory(t *testing.T) {
	h := newHarness(t)
	announce := func(epoch, version uint64, n int) *protocol.Frame {
		return &protocol.Frame{Type: protocol.MTAnnounce, Payload: must(t)(naming.EncodeAnnouncement(
			&naming.Announcement{Node: "peer", Epoch: epoch, Version: version, Records: variables("peer", "v", n)}))}
	}
	h.HandleAnnounce("peer", announce(2, 3, 2))
	if len(h.applied) != 1 {
		t.Fatalf("accepted announce fired OfferApplied %d times", len(h.applied))
	}
	h.HandleAnnounce("peer", announce(1, 9, 1)) // previous incarnation
	h.HandleAnnounce("peer", announce(2, 2, 1)) // rolled-back version
	if len(h.applied) != 1 || h.f.Directory().NodeRecordCount("peer") != 2 {
		t.Fatalf("rejected announces fired OfferApplied (%d calls) or changed the directory (%d records)",
			len(h.applied), h.f.Directory().NodeRecordCount("peer"))
	}
	h.HandleBye("peer")
	if len(h.gone) != 1 || h.gone[0] != "peer" || len(h.Peers()) != 0 || h.f.Directory().NodeRecordCount("peer") != 0 {
		t.Errorf("bye: gone hooks %v, peers %v, %d records left", h.gone, h.Peers(), h.f.Directory().NodeRecordCount("peer"))
	}
}

// TestNewEpochRestartsALivePeerOnce: a live peer heard under a newer epoch
// has restarted, and the container hears it once however many frames of
// the new incarnation follow; an older epoch is stale, and a peer that
// said goodbye comes back as a first contact, not a restart.
func TestNewEpochRestartsALivePeerOnce(t *testing.T) {
	h := newHarness(t)
	for _, epoch := range []uint64{3, 4, 4, 2} {
		h.HandleHeartbeat("peer", digest(t, "peer", epoch, 0))
	}
	if len(h.restarted) != 1 || h.restarted[0] != "peer" || len(h.gone) != 0 {
		t.Fatalf("epochs 3, 4, 4, 2: restarted %v, gone %v; want one restart and no departure", h.restarted, h.gone)
	}
	h.HandleBye("peer")
	h.HandleHeartbeat("peer", digest(t, "peer", 5, 0))
	if len(h.restarted) != 1 || len(h.gone) != 1 {
		t.Errorf("after a goodbye and a new epoch: restarted %v, gone %v; want the one restart and one departure", h.restarted, h.gone)
	}
}

// TestSteadySweepAllocatesNothing: the sweep every node runs every announce
// period, finding no failed peer, allocates nothing.
func TestSteadySweepAllocatesNothing(t *testing.T) {
	h := newHarness(t)
	now := h.clk.Now()
	for i := 0; i < 8; i++ {
		peer := transport.NodeID(fmt.Sprintf("peer%d", i))
		h.dir.Heard(peer, now)
	}
	h.sweep()
	if allocs := testing.AllocsPerRun(100, h.sweep); allocs != 0 {
		t.Errorf("steady-state sweep allocates %.1f times, want 0", allocs)
	}
	if got := len(h.Peers()); got != 8 || len(h.gone) != 0 {
		t.Errorf("after sweeping: %d live peers, %d gone; want 8 and 0", got, len(h.gone))
	}
}

// TestSweepRacesPeerFrames: peer frames arrive on several goroutines while
// the beacon sweeps, at the very instants it sweeps, as a node's ingress
// shards run beside its beacon loop. A peer that keeps talking is never
// reported gone; a peer that falls silent is reported once, at the first
// sweep past the failure deadline after its last frame.
func TestSweepRacesPeerFrames(t *testing.T) {
	const (
		every    = 3 * testPeriod // a peer's frame interval, on the beacon's instants
		deadline = time.Minute    // the double's directory's failure deadline
	)
	h := newHarness(t)
	v := h.f.Clk.(*clock.Virtual)
	start := v.Now()
	var mu sync.Mutex
	goneAt := map[transport.NodeID][]time.Time{}
	h.cfg.PeerGone = func(peer transport.NodeID, restarted bool) {
		mu.Lock()
		defer mu.Unlock()
		if !restarted {
			goneAt[peer] = append(goneAt[peer], v.Now())
		}
	}
	// Each peer talks until its stop instant; the zero instant never stops.
	stops := map[transport.NodeID]time.Time{
		"t0": {}, "t1": {}, "t2": {}, "t3": {},
		"q0": start.Add(20 * time.Second), "q1": start.Add(40 * time.Second),
	}
	last := map[transport.NodeID]*time.Time{}
	v.Run(func() {
		h.Start()
		wg := clock.NewWaitGroup(v)
		for peer, stop := range stops {
			beat, req := digest(t, peer, 3, 0), syncReq(testEpoch, 0)
			heard := new(time.Time)
			last[peer] = heard
			wg.Add(1)
			clock.Go(v, func() {
				defer wg.Done()
				for i := 0; stop.IsZero() || v.Now().Before(stop); i++ {
					if i%2 == 0 {
						h.HandleHeartbeat(peer, beat)
					} else {
						h.HandleSyncReq(peer, req)
					}
					*heard = v.Now()
					v.Sleep(every)
					if v.Now().Sub(start) > 40*time.Second+deadline+time.Second {
						return
					}
				}
			})
		}
		wg.Wait()
		h.Close()
	})
	for peer, stop := range stops {
		gone := goneAt[peer]
		if stop.IsZero() {
			if len(gone) != 0 {
				t.Errorf("%s kept talking and was reported gone at %v", peer, gone)
			}
			continue
		}
		if len(gone) != 1 {
			t.Errorf("%s fell silent and was reported gone %d times, want once", peer, len(gone))
			continue
		}
		if after := gone[0].Sub(*last[peer]); after <= deadline || after > deadline+testPeriod {
			t.Errorf("%s reported gone %v after its last frame, want within one period past the %v deadline", peer, after, deadline)
		}
	}
	if peers := h.Peers(); len(peers) != 4 {
		t.Errorf("live peers at the end: %v, want the four talkers", peers)
	}
}
