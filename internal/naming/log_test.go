package naming

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refLog is the record log as it was when its history kept every added
// record beside the live map: the reference DeltaSince answers are held to.
type refLog struct {
	version uint64
	records map[RecordKey]Record
	history []refChange
}

type refChange struct {
	to        uint64
	added     []Record
	withdrawn []RecordKey
}

func (l *refLog) update(recs []Record) {
	next := make(map[RecordKey]Record, len(recs))
	for _, rec := range recs {
		next[rec.Key()] = rec
	}
	var added []Record
	var withdrawn []RecordKey
	for key, rec := range next {
		if prev, ok := l.records[key]; !ok || prev != rec {
			added = append(added, rec)
		}
	}
	for key := range l.records {
		if _, still := next[key]; !still {
			withdrawn = append(withdrawn, key)
		}
	}
	if len(added) == 0 && len(withdrawn) == 0 {
		return
	}
	l.version++
	l.records = next
	if l.history == nil {
		l.history = make([]refChange, logHistoryDepth)
	}
	l.history[l.version%logHistoryDepth] = refChange{to: l.version, added: added, withdrawn: withdrawn}
}

func (l *refLog) deltaSince(since uint64) (added []Record, withdrawn []RecordKey, to uint64, ok bool) {
	if since > l.version {
		return nil, nil, 0, false
	}
	if since == l.version {
		return nil, nil, l.version, true
	}
	if l.version-since > logHistoryDepth {
		return nil, nil, 0, false
	}
	type change struct {
		present bool
		rec     Record
	}
	overlay := make(map[RecordKey]change)
	for v := since + 1; v <= l.version; v++ {
		entry := l.history[v%logHistoryDepth]
		if entry.to != v {
			return nil, nil, 0, false
		}
		for _, rec := range entry.added {
			overlay[rec.Key()] = change{present: true, rec: rec}
		}
		for _, key := range entry.withdrawn {
			overlay[key] = change{}
		}
	}
	for key, c := range overlay {
		if c.present {
			added = append(added, c.rec)
		} else {
			withdrawn = append(withdrawn, key)
		}
	}
	return added, withdrawn, l.version, true
}

func cmpRecord(a, b Record) int {
	if c := cmpKey(a.Key(), b.Key()); c != 0 {
		return c
	}
	return cmpStrings(a.Service+"\x00"+a.TypeSig, b.Service+"\x00"+b.TypeSig)
}

func cmpKey(a, b RecordKey) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	return cmpStrings(a.Name, b.Name)
}

func cmpStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestLogDeltaSinceMatchesReference drives the log and the reference with
// the same random update streams — records added, replaced, withdrawn and
// re-added over a small key space, through every growth of the history
// and past its wrap — and requires the same catch-up delta from every
// version, as sets, the window's edge at each ring size included.
func TestLogDeltaSinceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, ref := NewLog(), &refLog{records: map[RecordKey]Record{}}
		offer := map[RecordKey]Record{}
		sizes := map[int]bool{}
		for step := 0; step < 400; step++ {
			for i := rng.Intn(4); i >= 0; i-- {
				rec := Record{
					Kind:    Kind(1 + rng.Intn(2)),
					Name:    fmt.Sprintf("r%d", rng.Intn(24)),
					Node:    "n",
					Service: fmt.Sprintf("s%d", rng.Intn(3)),
					TypeSig: fmt.Sprintf("t%d", rng.Intn(3)),
				}
				if rng.Intn(3) == 0 {
					delete(offer, rec.Key())
				} else {
					offer[rec.Key()] = rec
				}
			}
			recs := make([]Record, 0, len(offer))
			for _, rec := range offer {
				recs = append(recs, rec)
			}
			l.Update(recs)
			ref.update(recs)
			if l.Version() != ref.version {
				t.Fatalf("seed %d step %d: version %d, reference %d", seed, step, l.Version(), ref.version)
			}
			v, ring := l.Version(), uint64(len(l.history))
			sizes[len(l.history)] = true
			for _, since := range []uint64{0, 1, v / 2, v - min(v, 1), v - min(v, 2), v - min(v, 17),
				v - min(v, ring-1), v - min(v, ring), v - min(v, ring+1),
				v - min(v, logHistoryDepth), v - min(v, logHistoryDepth+1), v, v + 1, uint64(rng.Int63n(int64(v) + 1))} {
				added, withdrawn, to, ok := l.DeltaSince(since)
				wantAdded, wantWithdrawn, wantTo, wantOK := ref.deltaSince(since)
				slices.SortFunc(added, cmpRecord)
				slices.SortFunc(wantAdded, cmpRecord)
				slices.SortFunc(withdrawn, cmpKey)
				slices.SortFunc(wantWithdrawn, cmpKey)
				if ok != wantOK || to != wantTo || !slices.Equal(added, wantAdded) || !slices.Equal(withdrawn, wantWithdrawn) {
					t.Fatalf("seed %d step %d DeltaSince(%d) = %v %v %d %v, reference %v %v %d %v", seed, step, since,
						added, withdrawn, to, ok, wantAdded, wantWithdrawn, wantTo, wantOK)
				}
			}
		}
		if v := l.Version(); v <= logHistoryDepth {
			t.Fatalf("seed %d: the stream reached version %d, not past the wrap", seed, v)
		}
		for n := logHistoryStart; n <= logHistoryDepth; n *= 2 {
			if !sizes[n] {
				t.Fatalf("seed %d: the history never held %d slots (sizes %v)", seed, n, sizes)
			}
		}
	}
}

// TestLogUpdateFootprint pins what one 1,000-record Update leaves on the
// heap beyond the records' own strings: the live map and the history's
// keys, at most 310 B per record (249 B measured alone, 286 B after the
// package's other tests). A history that copied every added record beside
// the live map cost 347 B alone.
func TestLogUpdateFootprint(t *testing.T) {
	const records = 1000
	recs := make([]Record, records)
	for i := range recs {
		recs[i] = Record{Kind: KindFunction, Name: fmt.Sprintf("fn.%04d", i), Service: "svc", Node: "n",
			TypeSig: "f64", ArgSig: "{a:i32,b:i32}"}
	}
	l := NewLog()
	before := liveHeap()
	if _, _, _, _, changed := l.Update(recs); !changed {
		t.Fatal("the first update changed nothing")
	}
	after := liveHeap()
	runtime.KeepAlive(l)
	runtime.KeepAlive(recs)
	perRecord := float64(after-before) / records
	t.Logf("%.0f B per record", perRecord)
	if perRecord > 310 {
		t.Errorf("one logged record costs %.0f B, want <= 310", perRecord)
	}
}
