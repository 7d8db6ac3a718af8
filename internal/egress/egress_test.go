package egress

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/metrics/metricstest"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// gateSender records transmissions and can hold the drainer on a gate so
// tests can fill queues while the first datagram is "on the wire".
type gateSender struct {
	mu    sync.Mutex
	sends []sendRec
	gate  chan struct{} // when non-nil, each send blocks until a token
	errs  error
}

type sendRec struct {
	to    transport.NodeID
	group string
	raw   []byte
}

func (s *gateSender) Send(to transport.NodeID, payload []byte) error {
	return s.record(sendRec{to: to, raw: payload})
}

func (s *gateSender) SendGroup(group string, payload []byte) error {
	return s.record(sendRec{group: group, raw: payload})
}

func (s *gateSender) record(r sendRec) error {
	// The plane recycles the datagram when the send returns.
	r.raw = append([]byte(nil), r.raw...)
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sends = append(s.sends, r)
	return s.errs
}

func (s *gateSender) snapshot() []sendRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sendRec(nil), s.sends...)
}

func frameBytes(t *testing.T, typ protocol.MsgType, p qos.Priority, seq uint64, size int) []byte {
	t.Helper()
	raw, err := protocol.EncodeFrame(&protocol.Frame{
		Type: typ, Priority: p, Channel: "t", Seq: seq, Payload: make([]byte, size),
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decodeAll expands a sent datagram into its logical frames (unpacking
// batches) and returns their seqs in order.
func decodeAll(t *testing.T, recs []sendRec) []uint64 {
	t.Helper()
	var seqs []uint64
	for _, r := range recs {
		f, err := protocol.DecodeFrame(r.raw)
		if err != nil {
			t.Fatalf("decode sent datagram: %v", err)
		}
		if f.Type != protocol.MTBatch {
			seqs = append(seqs, f.Seq)
			continue
		}
		subs, err := protocol.DecodeBatch(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			inner, err := protocol.DecodeFrame(sub)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, inner.Seq)
		}
	}
	return seqs
}

// counter reads bearer's "egress" counter family name from the registry the
// bearer counts into: one class's series, or with no class the sum over
// classes. Reading a family the bearer never registered fails the test.
func counter(t testing.TB, p *Plane, bearer, name string, class ...qos.Priority) uint64 {
	t.Helper()
	p.mu.RLock()
	b := p.bearers[bearer]
	p.mu.RUnlock()
	if b == nil {
		t.Fatalf("no bearer %q", bearer)
	}
	match := []metrics.Label{metrics.L("bearer", bearer)}
	for _, pr := range class {
		match = append(match, metrics.L("class", pr.String()))
	}
	return metricstest.Counter(t, b.reg, "egress", name, match...)
}

// waitDequeued blocks until the drainer has popped n frames of class pr —
// i.e. the gated sender is now holding the wire and later enqueues will
// observably queue behind it.
func waitDequeued(t *testing.T, p *Plane, pr qos.Priority, n uint64) {
	t.Helper()
	dequeued := func() (total uint64) {
		for _, bearer := range p.Bearers() {
			total += counter(t, p, bearer, "sent", pr)
		}
		return total
	}
	deadline := time.Now().Add(5 * time.Second)
	for dequeued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("drainer never dequeued %d %v frames", n, pr)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitSends(t *testing.T, s *gateSender, want int) []sendRec {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := s.snapshot()
		if len(recs) >= want {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d datagrams sent", len(recs), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClassCountMatchesQoS(t *testing.T) {
	if numClasses != qos.NumLevels() {
		t.Fatalf("numClasses = %d, qos.NumLevels() = %d", numClasses, qos.NumLevels())
	}
}

// TestStrictPriorityOrdering is the regression test pinning the egress
// queue's ordering guarantee: with bulk frames queued ahead in time, a
// later-enqueued critical frame is transmitted first.
func TestStrictPriorityOrdering(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{CoalesceMax: -1})
	defer p.Close()

	// Hold the drainer on the first bulk frame while the rest queue up.
	if err := p.Enqueue("gs", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, 1, 600)); err != nil {
		t.Fatal(err)
	}
	waitDequeued(t, p, qos.PriorityBulk, 1)
	for seq := uint64(2); seq <= 6; seq++ {
		if err := p.Enqueue("gs", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, seq, 600)); err != nil {
			t.Fatal(err)
		}
	}
	// Enqueued last, must transmit before every still-queued bulk frame.
	if err := p.Enqueue("gs", qos.PriorityCritical, frameBytes(t, protocol.MTEvent, qos.PriorityCritical, 100, 40)); err != nil {
		t.Fatal(err)
	}
	close(s.gate) // release the wire
	recs := waitSends(t, s, 7)
	seqs := decodeAll(t, recs)
	if seqs[0] != 1 {
		t.Fatalf("first datagram seq = %d, want 1 (already draining)", seqs[0])
	}
	if seqs[1] != 100 {
		t.Fatalf("critical frame drained at position %v, want immediately after in-flight bulk (order %v)", seqs[1], seqs)
	}
	for i, want := range []uint64{2, 3, 4, 5, 6} {
		if seqs[2+i] != want {
			t.Fatalf("bulk order broken: %v", seqs)
		}
	}
}

func TestRoundRobinAcrossDestinationsWithinClass(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{CoalesceMax: -1})
	defer p.Close()
	if err := p.Enqueue("hold", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 1, 10)); err != nil {
		t.Fatal(err)
	}
	waitDequeued(t, p, qos.PriorityNormal, 1)
	for seq := uint64(10); seq < 13; seq++ {
		_ = p.Enqueue("a", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, seq, 10))
		_ = p.Enqueue("b", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, seq+10, 10))
	}
	close(s.gate)
	recs := waitSends(t, s, 7)
	// After the held frame, destinations a and b must alternate.
	var destOrder []transport.NodeID
	for _, r := range recs[1:] {
		destOrder = append(destOrder, r.to)
	}
	for i := 1; i < len(destOrder); i++ {
		if destOrder[i] == destOrder[i-1] {
			t.Fatalf("no round-robin: %v", destOrder)
		}
	}
}

func TestDropOldestOverflow(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{CoalesceMax: -1})
	defer p.Close()
	const pr = qos.PriorityLow // every class but bulk sheds its oldest
	_ = p.Enqueue("hold", pr, frameBytes(t, protocol.MTSample, pr, 1, 10))
	waitDequeued(t, p, pr, 1)
	const first, over = 10, 6 // over frames more than the queue holds
	for seq := uint64(first); seq < first+DefaultQueueCap+over; seq++ {
		_ = p.Enqueue("gs", pr, frameBytes(t, protocol.MTSample, pr, seq, 10))
	}
	close(s.gate)
	seqs := decodeAll(t, waitSends(t, s, 1+DefaultQueueCap))
	want := []uint64{1} // then the newest DefaultQueueCap survive, oldest dropped
	for seq := uint64(first + over); seq < first+DefaultQueueCap+over; seq++ {
		want = append(want, seq)
	}
	if !slices.Equal(seqs, want) {
		t.Fatalf("drop-oldest order = %v, want %v", seqs, want)
	}
	low := func(name string) uint64 { return counter(t, p, DefaultBearer, name, pr) }
	if dropped := low("dropped"); dropped != over {
		t.Fatalf("dropped = %d, want %d", dropped, over)
	}
	if enqueued, sent := low("enqueued"), low("sent"); enqueued != 1+DefaultQueueCap+over || sent != 1+DefaultQueueCap {
		t.Fatalf("enqueued/sent = %d/%d, want %d/%d", enqueued, sent, 1+DefaultQueueCap+over, 1+DefaultQueueCap)
	}
}

// bulkProducer offers n bulk chunks (seqs from..from+n-1) to "gs" from its
// own goroutine and reports the first enqueue error, or nil, on the channel.
func bulkProducer(t *testing.T, p *Plane, from uint64, n int) <-chan error {
	t.Helper()
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, from+uint64(i), 10)
	}
	done := make(chan error, 1)
	go func() {
		for _, raw := range raws {
			if err := p.Enqueue("gs", qos.PriorityBulk, raw); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// waitParkedAt blocks until bearer has accepted n bulk frames, then checks
// that a producer offering more stays parked there.
func waitParkedAt(t *testing.T, p *Plane, bearer string, n uint64) {
	t.Helper()
	enqueued := func() uint64 { return counter(t, p, bearer, "enqueued", qos.PriorityBulk) }
	deadline := time.Now().Add(5 * time.Second)
	for enqueued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("bulk enqueued = %d, want %d", enqueued(), n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := enqueued(); got != n {
		t.Fatalf("producer ran past a full lane: enqueued = %d, want %d", got, n)
	}
}

// A full bulk lane makes its producer wait: nothing is evicted, the lane
// never holds more than bulkWindow, and frames leave in the order offered.
func TestBulkProducerWaitsForRoom(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{CoalesceMax: -1})
	defer p.Close()
	const n = 1 + bulkWindow + 5
	done := bulkProducer(t, p, 1, n)
	// Frame 1 is at the gate, a window's worth fills the lane, the
	// producer holds the next.
	waitParkedAt(t, p, DefaultBearer, 1+bulkWindow)
	for sent := 1; sent <= 5; sent++ {
		s.gate <- struct{}{} // one datagram out, one slot free
		waitSends(t, s, sent)
		waitParkedAt(t, p, DefaultBearer, uint64(1+bulkWindow+sent))
	}
	close(s.gate)
	if err := <-done; err != nil {
		t.Fatalf("producer: %v", err)
	}
	seqs := decodeAll(t, waitSends(t, s, n))
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("bulk left out of order: %v", seqs)
		}
	}
	if dropped := counter(t, p, DefaultBearer, "dropped", qos.PriorityBulk); dropped != 0 {
		t.Fatalf("bulk dropped = %d, want 0", dropped)
	}
}

func TestCloseReleasesWaitingBulkProducer(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{CoalesceMax: -1})
	done := bulkProducer(t, p, 1, bulkWindow+4)
	waitParkedAt(t, p, DefaultBearer, 1+bulkWindow)
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiting producer got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the producer parked")
	}
	close(s.gate)
	<-closed
}

// The same wait on a virtual clock with a shaped bearer: the parked producer
// must not stall time — the bucket's wait fires, the drainer pops, the
// producer runs — and the lane's drain rate is the producer's rate.
func TestBulkProducerWaitsOnVirtualClock(t *testing.T) {
	v := clock.NewVirtual()
	s := &gateSender{}
	const rate, n, size = 10_000, 40, 1000
	var elapsed time.Duration
	var p *Plane
	var enqErr error
	v.Run(func() {
		p = New(s, Config{Clock: v, CoalesceMax: -1, BulkRateBPS: rate, BulkBurst: size})
		defer p.Close()
		start := v.Now()
		for seq := uint64(1); seq <= n && enqErr == nil; seq++ {
			enqErr = p.Enqueue("gs", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, seq, size))
		}
		elapsed = v.Since(start)
	})
	if enqErr != nil {
		t.Fatal(enqErr)
	}
	// The producer returns once the last frame is queued, so all but the
	// lane's worth, the one in transmission and the bucket's burst left at
	// the shaped rate first.
	wire := float64((n - bulkWindow - 2) * size)
	if min := time.Duration(wire / rate * float64(time.Second)); elapsed < min {
		t.Fatalf("producer offered %d frames in %v of virtual time, lane drains them in ≥ %v", n, elapsed, min)
	}
	seqs := decodeAll(t, s.snapshot())
	if len(seqs) != n {
		t.Fatalf("sent %d of %d frames", len(seqs), n)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("bulk left out of order: %v", seqs)
		}
	}
	if dropped := counter(t, p, DefaultBearer, "dropped", qos.PriorityBulk); dropped != 0 {
		t.Fatalf("bulk dropped = %d, want 0", dropped)
	}
}

func TestCoalescingPacksSmallFramesIntoOneDatagram(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{})
	defer p.Close()
	_ = p.Enqueue("hold", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 1, 10))
	waitDequeued(t, p, qos.PriorityNormal, 1)
	for seq := uint64(2); seq <= 9; seq++ {
		_ = p.Enqueue("gs", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, seq, 50))
	}
	close(s.gate)
	recs := waitSends(t, s, 2)
	if len(s.snapshot()) != 2 {
		t.Fatalf("sent %d datagrams, want 2 (hold + one batch)", len(s.snapshot()))
	}
	seqs := decodeAll(t, recs)
	if len(seqs) != 9 {
		t.Fatalf("decoded %d frames, want 9: %v", len(seqs), seqs)
	}
	for i, want := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		if seqs[i] != want {
			t.Fatalf("batch order = %v", seqs)
		}
	}
	if coalesced := counter(t, p, DefaultBearer, "coalesced", qos.PriorityNormal); coalesced != 8 {
		t.Fatalf("coalesced = %d, want 8", coalesced)
	}
	if datagrams := counter(t, p, DefaultBearer, "datagrams", qos.PriorityNormal); datagrams != 2 {
		t.Fatalf("datagrams = %d, want 2", datagrams)
	}
}

// TestCoalescingRespectsDatagramBudget: six 400-byte frames fit a batch
// datagram three at a time, so they leave in two batches, each within the
// MTU.
func TestCoalescingRespectsDatagramBudget(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{})
	defer p.Close()
	_ = p.Enqueue("hold", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 1, 10))
	waitDequeued(t, p, qos.PriorityNormal, 1)
	for seq := uint64(2); seq <= 7; seq++ {
		_ = p.Enqueue("gs", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, seq, 400))
	}
	close(s.gate)
	recs := waitSends(t, s, 3)
	for _, r := range recs {
		if len(r.raw) > protocol.DefaultMTU {
			t.Fatalf("datagram %d bytes exceeds the %d-byte MTU", len(r.raw), protocol.DefaultMTU)
		}
	}
	if got := len(decodeAll(t, recs)); got != 7 {
		t.Fatalf("frames delivered = %d, want 7", got)
	}
	if len(recs) != 3 {
		t.Fatalf("sent %d datagrams, want 3 (hold + two batches of three)", len(recs))
	}
}

func TestLargeFramesNeverCoalesce(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{})
	defer p.Close()
	_ = p.Enqueue("hold", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, 1, 10))
	waitDequeued(t, p, qos.PriorityBulk, 1)
	for seq := uint64(2); seq <= 4; seq++ {
		_ = p.Enqueue("gs", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, seq, 1200))
	}
	close(s.gate)
	recs := waitSends(t, s, 4)
	for _, r := range recs {
		f, err := protocol.DecodeFrame(r.raw)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == protocol.MTBatch {
			t.Fatal("1200-byte chunks were coalesced")
		}
	}
}

func TestBulkPacingShapesRate(t *testing.T) {
	s := &gateSender{}
	const rate = 100_000 // B/s
	p := New(s, Config{BulkRateBPS: rate, BulkBurst: 1200, CoalesceMax: -1})
	defer p.Close()
	const n, size = 20, 1000
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, uint64(i+1), size)
	}
	wire := len(raws[0]) * n
	start := time.Now()
	for _, raw := range raws {
		_ = p.Enqueue("gs", qos.PriorityBulk, raw)
	}
	waitSends(t, s, n)
	elapsed := time.Since(start)
	// First ~burst bytes pass free; the rest are paced at the rate.
	expect := time.Duration(float64(wire-1200) / rate * float64(time.Second))
	if elapsed < expect/2 {
		t.Fatalf("drained %d wire bytes in %v, pacing expects ≈%v", wire, elapsed, expect)
	}
	if elapsed > 4*expect {
		t.Fatalf("pacing too slow: %v for ≈%v of traffic", elapsed, expect)
	}
	if counter(t, p, DefaultBearer, "bulk_waits") == 0 {
		t.Fatal("pacer never throttled")
	}
}

func TestBulkPacingDoesNotDelayHigherClasses(t *testing.T) {
	s := &gateSender{}
	p := New(s, Config{BulkRateBPS: 10_000, BulkBurst: 600, CoalesceMax: -1})
	defer p.Close()
	// Saturate bulk far beyond the bucket.
	for seq := uint64(1); seq <= 10; seq++ {
		_ = p.Enqueue("gs", qos.PriorityBulk, frameBytes(t, protocol.MTFileChunk, qos.PriorityBulk, seq, 500))
	}
	time.Sleep(20 * time.Millisecond) // drainer now waiting on tokens
	start := time.Now()
	_ = p.Enqueue("gs", qos.PriorityCritical, frameBytes(t, protocol.MTEvent, qos.PriorityCritical, 99, 40))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if counter(t, p, DefaultBearer, "sent", qos.PriorityCritical) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("critical frame stuck behind bulk pacing")
		}
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("critical frame waited %v behind throttled bulk", waited)
	}
}

func TestCloseFlushesQueuedFrames(t *testing.T) {
	s := &gateSender{gate: make(chan struct{})}
	p := New(s, Config{CoalesceMax: -1})
	_ = p.Enqueue("hold", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 1, 10))
	waitDequeued(t, p, qos.PriorityNormal, 1)
	for seq := uint64(2); seq <= 5; seq++ {
		_ = p.EnqueueTo(Dest{Group: "g"}, qos.PriorityHigh, frameBytes(t, protocol.MTBye, qos.PriorityHigh, seq, 10))
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	close(s.gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if got := len(decodeAll(t, s.snapshot())); got != 5 {
		t.Fatalf("flushed %d frames, want 5", got)
	}
	if err := p.Enqueue("gs", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 9, 10)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
}

func TestGroupAndUnicastLanesAreIndependent(t *testing.T) {
	s := &gateSender{}
	p := New(s, Config{CoalesceMax: -1})
	defer p.Close()
	_ = p.Enqueue("gs", qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 1, 10))
	_ = p.EnqueueTo(Dest{Group: "gs"}, qos.PriorityNormal, frameBytes(t, protocol.MTSample, qos.PriorityNormal, 2, 10))
	recs := waitSends(t, s, 2)
	var uni, grp int
	for _, r := range recs {
		if r.group != "" {
			grp++
		} else {
			uni++
		}
	}
	if uni != 1 || grp != 1 {
		t.Fatalf("unicast/group sends = %d/%d, want 1/1", uni, grp)
	}
}

func TestCountersPerClassAndSummed(t *testing.T) {
	s := &gateSender{}
	p := New(s, Config{CoalesceMax: -1})
	defer p.Close()
	for i, pr := range qos.Levels() {
		_ = p.Enqueue(transport.NodeID(fmt.Sprintf("n%d", i)), pr, frameBytes(t, protocol.MTSample, pr, uint64(i+1), 20))
	}
	waitSends(t, s, 5)
	total := func(name string) uint64 { return counter(t, p, DefaultBearer, name) }
	if enqueued, sent, dropped := total("enqueued"), total("sent"), total("dropped"); enqueued != 5 || sent != 5 || dropped != 0 {
		t.Fatalf("enqueued, sent, dropped = %d, %d, %d, want 5, 5, 0", enqueued, sent, dropped)
	}
	for _, pr := range qos.Levels() {
		if sent := counter(t, p, DefaultBearer, "sent", pr); sent != 1 {
			t.Fatalf("class %v sent = %d, want 1", pr, sent)
		}
	}
}
