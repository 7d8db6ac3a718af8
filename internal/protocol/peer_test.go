package protocol

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"uavmw/internal/metrics"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// refPeer is the reference model of a Peer's contract, kept the naive way:
// maps of what is pending, held and half reassembled, each with its due
// time, and the dedup window's reference.
type refPeer struct {
	pending  map[uint64]*refRecord
	received *refDedup
	got      map[uint64]bool // every seq Seen, for the acks held of them
	held     []refHeld
	partials map[uint64]*refPartial
}

type refRecord struct {
	initial time.Duration
	attempt int
	due     time.Time
}

type refHeld struct {
	HeldAck
	due time.Time
}

type refPartial struct {
	frags    map[int]bool
	deadline time.Time
}

func newRefPeer() *refPeer {
	return &refPeer{
		pending:  map[uint64]*refRecord{},
		received: newRefDedup(DefaultDedupWindow),
		got:      map[uint64]bool{},
		partials: map[uint64]*refPartial{},
	}
}

// earliest is the soonest instant anything in the model waits for.
func (r *refPeer) earliest() time.Time {
	var at time.Time
	earlier := func(t time.Time) {
		if at.IsZero() || t.Before(at) {
			at = t
		}
	}
	for _, rec := range r.pending {
		earlier(rec.due)
	}
	for _, h := range r.held {
		earlier(h.due)
	}
	for _, m := range r.partials {
		earlier(m.deadline.Add(time.Nanosecond))
	}
	return at
}

// sortedKeys lists m's keys in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// refMessage is one message the reference test reassembles.
type refMessage struct {
	raw   []byte
	split Fragments
}

// TestPeerMatchesReference drives a Peer and the reference model with the
// same seeded mix of sends, acks (single, range and header ack block),
// timer runs, arrivals, held acks (hold, cancel, carry), fragment offers
// and forgets, with time moving on between them, and requires after every
// step that:
//   - each message's result fires exactly once, with success only for an
//     ack, and only the model's due messages are retransmitted or fail;
//   - no ack leaves the Peer, by OnTimer or Carry, for a seq it was not
//     holding, and each held ack leaves once;
//   - dedup answers match the reference window, and reassembly completes
//     exactly when a message's last missing fragment arrives;
//   - the pending, held and partial counts match the model, and Deadline is
//     never later than the earliest due record, held ack or partial.
//
// It ends by acknowledging everything still pending: the pending count
// returns to 0 and every result has fired.
func TestPeerMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runPeerReference(t, seed, 20_000) })
	}
}

func runPeerReference(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	const maxRetries = 3
	bearers := []string{"a", "b"}
	now := time.Unix(1_000_000, 0)
	var p Peer
	ref := newRefPeer()
	fired := map[uint64]int{}
	succeeded := map[uint64]bool{}
	everSent := map[uint64]bool{}
	nextSeq := uint64(0)
	result := func(seq uint64) ResultFunc {
		return func(err error) {
			fired[seq]++
			if err == nil {
				succeeded[seq] = true
			}
		}
	}
	// end runs the results of messages the Peer handed back as ended.
	end := func(op string, ms []Message, err error) {
		t.Helper()
		for _, m := range ms {
			if _, ok := ref.pending[m.Seq]; !ok {
				t.Fatalf("%s: ended seq %d, which the model holds no pending message for", op, m.Seq)
			}
			delete(ref.pending, m.Seq)
			m.Result(err)
		}
	}
	// acked checks that every ack the Peer gave back was held, and drops
	// it from the model.
	acked := func(op string, seqs []uint64, carried bool) {
		t.Helper()
		for _, seq := range seqs {
			i := slices.IndexFunc(ref.held, func(h refHeld) bool { return h.Seq == seq && (!carried || h.Reply) })
			if i < 0 || !ref.got[seq] {
				t.Fatalf("%s: an ack of seq %d, which was not held", op, seq)
			}
			ref.held = slices.Delete(ref.held, i, i+1)
		}
	}
	ackRange := func(op string, lo, hi uint64) {
		t.Helper()
		var want []uint64
		for seq := range ref.pending {
			if seq >= lo && seq <= hi {
				want = append(want, seq)
			}
		}
		slices.Sort(want)
		var got []uint64
		for {
			m, ok := p.Ack(now, lo, hi)
			if !ok {
				break
			}
			got = append(got, m.Seq)
			end(op, []Message{m}, nil)
			lo = m.Seq + 1
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s [%d, %d] completed %v, the model %v", op, lo, hi, got, want)
		}
	}
	messages := map[uint64]*refMessage{}
	nextMsg := uint64(0)
	var resent, failed, carried, reassembled int

	for op := 0; op < ops; op++ {
		now = now.Add(time.Duration(rng.Intn(8000)) * time.Microsecond)
		r := rng.Intn(100)
		func() {
			switch {
			case r < 20: // send, now and then a seq already in flight
				seq := nextSeq + 1
				if _, inFlight := ref.pending[nextSeq]; inFlight && rng.Intn(10) == 0 {
					seq = nextSeq
				} else {
					nextSeq++
				}
				ok := p.Send(now, seq, nil, result(seq))
				_, inFlight := ref.pending[seq]
				if ok == inFlight {
					t.Fatalf("send %d: accepted %v with the seq in flight %v", seq, ok, inFlight)
				}
				if ok {
					due := p.recs[p.search(seq)].due
					everSent[seq] = true
					ref.pending[seq] = &refRecord{initial: due.Sub(now), due: due}
					if due.Sub(now) < DefaultARQTimeout {
						t.Fatalf("send %d: first timeout %v, below %v", seq, due.Sub(now), DefaultARQTimeout)
					}
				}
			case r < 28: // ack one seq, sent or not
				seq := uint64(rng.Int63n(int64(nextSeq + 3)))
				ackRange("ack", seq, seq)
			case r < 33: // ack a range
				lo := uint64(rng.Int63n(int64(nextSeq + 3)))
				ackRange("ack range", lo, lo+uint64(rng.Intn(12)))
			case r < 37: // ack a header block over some pending seqs and some never sent
				var seqs []uint64
				for seq := range ref.pending {
					if rng.Intn(3) == 0 {
						seqs = append(seqs, seq)
					}
				}
				seqs = append(seqs, nextSeq+1+uint64(rng.Intn(5)))
				slices.Sort(seqs)
				slices.Reverse(seqs)
				seqs = slices.Compact(seqs)
				ranges, _ := AppendAckBlock(nil, seqs, 64)
				f := Frame{AckLargest: seqs[0], AckRanges: ranges}
				if err := EachAckBlockRange(&f, func(lo, hi uint64) { ackRange("ack block", lo, hi) }); err != nil {
					t.Fatal(err)
				}
			case r < 50: // the timer
				var due Due
				p.OnTimer(now, maxRetries, &due)
				var wantResend, wantFail []uint64
				for seq, rec := range ref.pending {
					switch {
					case now.Before(rec.due):
					case rec.attempt >= maxRetries:
						wantFail = append(wantFail, seq)
					default:
						rec.attempt++
						rec.due = now.Add(retryDelay(rec.initial, rec.attempt))
						wantResend = append(wantResend, seq)
					}
				}
				var gotResend []uint64
				for _, m := range due.Resend {
					gotResend = append(gotResend, m.Seq)
				}
				slices.Sort(gotResend)
				slices.Sort(wantResend)
				if !slices.Equal(gotResend, wantResend) {
					t.Fatalf("timer at op %d retransmitted %v, the model %v", op, gotResend, wantResend)
				}
				var gotFail []uint64
				for _, m := range due.Failed {
					gotFail = append(gotFail, m.Seq)
				}
				slices.Sort(gotFail)
				slices.Sort(wantFail)
				if !slices.Equal(gotFail, wantFail) {
					t.Fatalf("timer at op %d failed %v, the model %v", op, gotFail, wantFail)
				}
				end("timer", due.Failed, ErrTimeout)
				resent += len(due.Resend)
				failed += len(due.Failed)
				var wantAcks []uint64
				for _, h := range ref.held {
					if !now.Before(h.due) {
						wantAcks = append(wantAcks, h.Seq)
					}
				}
				var gotAcks []uint64
				for _, a := range due.Acks {
					gotAcks = append(gotAcks, a.Seq)
				}
				if !slices.Equal(gotAcks, wantAcks) {
					t.Fatalf("timer at op %d sent held acks %v, the model %v", op, gotAcks, wantAcks)
				}
				acked("timer", gotAcks, false)
				for id, m := range ref.partials {
					if now.After(m.deadline) {
						delete(ref.partials, id)
					}
				}
			case r < 62: // an arrival, mostly new, sometimes a repeat or a jump
				// Seqs start at 1: a zero largest seq means no ack block.
				seq := 1 + uint64(rng.Intn(200))
				if rng.Intn(3) != 0 {
					seq = 1 + uint64(len(ref.got)) + uint64(rng.Intn(3))
				}
				if got, want := p.Seen(seq), ref.received.seen(seq); got != want {
					t.Fatalf("Seen(%d) = %v, the reference window %v", seq, got, want)
				}
				ref.got[seq] = true
			case r < 72: // hold the ack of a received call or reply
				if len(ref.got) == 0 {
					return
				}
				seqs := sortedKeys(ref.got)
				a := HeldAck{
					Bearer:   bearers[rng.Intn(len(bearers))],
					Seq:      seqs[rng.Intn(len(seqs))],
					Priority: qos.Priority(rng.Intn(4)),
					Reply:    rng.Intn(2) == 0,
				}
				if slices.ContainsFunc(ref.held, func(h refHeld) bool { return h.Seq == a.Seq }) {
					return // one ack per arrival: a repeat's ack is not held
				}
				p.Hold(now, a)
				due := p.held[len(p.held)-1].due
				ref.held = append(ref.held, refHeld{a, due})
				if due != now.Add(MaxAckDelay) {
					t.Fatalf("hold due %v after the arrival, want %v", due.Sub(now), MaxAckDelay)
				}
			case r < 76: // a reply leaves: cancel its call's held ack
				if len(ref.held) == 0 {
					return
				}
				seq := ref.held[rng.Intn(len(ref.held))].Seq
				want := slices.IndexFunc(ref.held, func(h refHeld) bool { return h.Seq == seq && !h.Reply })
				if got := p.Cancel(seq); got != (want >= 0) {
					t.Fatalf("Cancel(%d) = %v, the model holds a call ack %v", seq, got, want >= 0)
				}
				if want >= 0 {
					ref.held = slices.Delete(ref.held, want, want+1)
				}
			case r < 82: // a frame leaves: carry the held reply acks it may
				bearer, pr := bearers[rng.Intn(len(bearers))], qos.Priority(rng.Intn(4))
				var b AckBlock
				largest, ranges := p.Carry(bearer, pr, 4+rng.Intn(40), &b)
				if largest == 0 {
					return
				}
				var seqs []uint64
				f := Frame{AckLargest: largest, AckRanges: ranges}
				if err := EachAckBlockRange(&f, func(lo, hi uint64) {
					for seq := lo; seq <= hi; seq++ {
						seqs = append(seqs, seq)
					}
				}); err != nil {
					t.Fatalf("carried block: %v", err)
				}
				for _, seq := range seqs {
					i := slices.IndexFunc(ref.held, func(h refHeld) bool { return h.Seq == seq })
					if i < 0 || !ref.held[i].Reply || ref.held[i].Bearer != bearer || ref.held[i].Priority > pr {
						t.Fatalf("a %v frame on %s carried the ack of %d, which it may not", pr, bearer, seq)
					}
				}
				acked("carry", seqs, true)
				carried += len(seqs)
			case r < 95: // a fragment of one of a few messages in flight
				if len(messages) < 3 || rng.Intn(20) == 0 {
					nextMsg++
					raw := make([]byte, 1+rng.Intn(400))
					rng.Read(raw)
					split, err := Split(raw, nextMsg, fragOverhead+1+rng.Intn(100))
					if err != nil {
						t.Fatal(err)
					}
					messages[nextMsg] = &refMessage{raw: raw, split: split}
				}
				ids := sortedKeys(messages)
				id := ids[rng.Intn(len(ids))]
				m := messages[id]
				i := rng.Intn(m.split.Count())
				f, err := DecodeFrame(m.split.Append(nil, i, id, 0))
				if err != nil {
					t.Fatal(err)
				}
				got, evicted, err := p.Offer(now, f)
				if err != nil || evicted != 0 {
					t.Fatalf("fragment %d of message %d: evicted %d, %v", i, id, evicted, err)
				}
				rm := ref.partials[id]
				if rm == nil {
					rm = &refPartial{frags: map[int]bool{}}
					ref.partials[id] = rm
				}
				rm.frags[i] = true
				rm.deadline = now.Add(ReassemblyTTL)
				if complete := len(rm.frags) == m.split.Count(); complete != (got != nil) {
					t.Fatalf("fragment %d of message %d: completed %v, the model %v", i, id, got != nil, complete)
				}
				if got != nil {
					if !bytes.Equal(got, m.raw) {
						t.Fatalf("message %d reassembled to other bytes", id)
					}
					delete(ref.partials, id)
					delete(messages, id)
					reassembled++
				}
			default: // the peer is forgotten: everything it held ends
				var due Due
				p.Drain(&due)
				end("forget", due.Failed, ErrPeerForgotten)
				var gotAcks []uint64
				for _, a := range due.Acks {
					gotAcks = append(gotAcks, a.Seq)
				}
				acked("forget", gotAcks, false)
				if len(ref.held) != 0 || len(ref.pending) != 0 {
					t.Fatalf("forget left %d held acks and %d pending messages", len(ref.held), len(ref.pending))
				}
				p, ref = Peer{}, newRefPeer()
				clear(messages)
			}
		}()

		if got, want := len(p.recs), len(ref.pending); got != want {
			t.Fatalf("op %d: %d pending, the model %d", op, got, want)
		}
		if got, want := len(p.held), len(ref.held); got != want {
			t.Fatalf("op %d: %d held, the model %d", op, got, want)
		}
		if got, want := len(p.partials), len(ref.partials); got != want {
			t.Fatalf("op %d: %d partials, the model %d", op, got, want)
		}
		if at, want := p.Deadline(), ref.earliest(); at.IsZero() != want.IsZero() || at.After(want) {
			t.Fatalf("op %d: deadline %v, the earliest due is %v", op, at, want)
		}
	}

	ackRange("final ack", 0, nextSeq)
	if len(p.recs) != 0 {
		t.Fatalf("%d messages pending after the final ack", len(p.recs))
	}
	for seq := range everSent {
		if fired[seq] != 1 {
			t.Fatalf("message %d: result fired %d times", seq, fired[seq])
		}
	}
	for seq := range succeeded {
		if !everSent[seq] {
			t.Fatalf("seq %d acknowledged but never sent", seq)
		}
	}
	t.Logf("%d messages: %d acknowledged, %d retransmissions, %d timed out; %d reply acks carried; %d messages reassembled",
		len(everSent), len(succeeded), resent, failed, carried, reassembled)
}

// TestReassemblyBudgetBoundsAPeer floods one peer's reassembly with 1,000
// first fragments that each open a 16,384-fragment message, each as large
// as a datagram allows: the peer's partial messages stay within its budget, the oldest
// evicted and each eviction counted under protocol.errors{admission}, and
// the heap does not grow by the fragment slots the messages name. A
// complete 19-fragment message from the same peer still reassembles, and
// another peer's partial message is untouched.
func TestReassemblyBudgetBoundsAPeer(t *testing.T) {
	reg := metrics.NewRegistry()
	a := NewARQ(func(transport.NodeID, []byte) error { return nil }, WithClock(stillClock{}), WithMetrics(reg))
	defer a.Close()
	fragment := func(msgID uint64, index, total uint16, data []byte) *Frame {
		return &Frame{Type: MTFragment, Payload: append(fragHeader(msgID, index, total), data...)}
	}
	bystander := fragment(1, 0, 2, make([]byte, 100))
	if _, err := a.Offer(epoch, "other", bystander); err != nil {
		t.Fatal(err)
	}

	data := make([]byte, DefaultMTU-fragOverhead)
	before := heapInUse()
	for i := uint64(0); i < 1000; i++ {
		if msg, err := a.Offer(epoch, "hostile", fragment(1000+i, 0, maxFragments, data)); err != nil || msg != nil {
			t.Fatalf("first fragment %d: %v, %v", i, msg, err)
		}
		e := a.entry("hostile", false)
		charged := e.p.partialBytes
		e.mu.Unlock()
		if charged > reassemblyBudget {
			t.Fatalf("after %d first fragments the peer's partials are charged %d bytes, over the %d budget", i+1, charged, reassemblyBudget)
		}
	}
	grew := heapInUse() - before
	e := a.entry("hostile", false)
	kept := len(e.p.partials)
	e.mu.Unlock()
	evicted := errCount(reg, "protocol", uerr.CatAdmission)
	t.Logf("%d partial messages kept, %d evicted, heap grew %d KB", kept, evicted, grew>>10)
	if kept == 1000 || int(evicted) != 1000-kept {
		t.Errorf("%d partials kept and %d evictions counted of 1000 opened, want the rest evicted and counted", kept, evicted)
	}
	if grew > 2*reassemblyBudget {
		t.Errorf("1000 first fragments grew the heap by %d bytes, want at most %d", grew, 2*reassemblyBudget)
	}

	raw := make([]byte, 19*(DefaultMTU-fragOverhead)-7)
	rand.New(rand.NewSource(19)).Read(raw)
	frags := fragmentAll(t, raw, 5, DefaultMTU)
	if len(frags) != 19 {
		t.Fatalf("the message split into %d fragments, want 19", len(frags))
	}
	var out []byte
	for _, fr := range frags {
		f, _ := DecodeFrame(fr)
		msg, err := a.Offer(epoch, "hostile", f)
		if err != nil {
			t.Fatal(err)
		}
		out = msg
	}
	if !bytes.Equal(out, raw) {
		t.Error("the 19-fragment message did not reassemble after the flood")
	}
	other := a.entry("other", false)
	defer other.mu.Unlock()
	if len(other.p.partials) != 1 {
		t.Errorf("the other peer holds %d partial messages, want its 1", len(other.p.partials))
	}
}
