package naming

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"uavmw/internal/transport"
)

// liveHeap reads the live heap after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDirectoryBindingFootprint pins what one cached binding costs: 16
// nodes' announcements of 1,000 records each, decoded from their wire
// bytes as a receiver gets them, cost at most 150 B per binding once
// applied to one directory.
func TestDirectoryBindingFootprint(t *testing.T) {
	const nodes, records = 16, 1000
	wire := make([][]byte, nodes)
	for n := range wire {
		node := transport.NodeID(fmt.Sprintf("n%03d", n))
		a := &Announcement{Node: node, Epoch: 1, Version: 1}
		for i := 0; i < records; i++ {
			a.Records = append(a.Records, Record{
				Kind:    KindFunction,
				Name:    fmt.Sprintf("fn.%s.%04d", node, i),
				Service: fmt.Sprintf("svc%d", i%8),
				Node:    node,
				TypeSig: "f64",
				ArgSig:  "{a:i32,b:i32}",
			})
		}
		var err error
		if wire[n], err = EncodeAnnouncement(a); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDirectory(time.Minute)
	now := time.Now()
	before := liveHeap()
	for _, b := range wire {
		a, err := DecodeAnnouncement(b)
		if err != nil {
			t.Fatal(err)
		}
		d.Apply(a, now)
	}
	after := liveHeap()
	runtime.KeepAlive(d)
	if got := d.NodeRecordCount("n007"); got != records {
		t.Fatalf("n007 has %d records cached, want %d", got, records)
	}
	perBinding := float64(after-before) / (nodes * records)
	t.Logf("%.0f B per binding", perBinding)
	if perBinding > 150 {
		t.Errorf("one binding costs %.0f B, want <= 150", perBinding)
	}
}

// TestLogHistoryIsLazy: a log that never changed holds no catch-up ring,
// and answers DeltaSince exactly as one that has one; a changing log's ring
// starts at logHistoryStart slots and doubles, filled in version order,
// until it holds logHistoryDepth.
func TestLogHistoryIsLazy(t *testing.T) {
	l := NewLog()
	if _, _, _, _, changed := l.Update(nil); changed {
		t.Fatal("an empty update changed an empty log")
	}
	if l.history != nil {
		t.Fatal("a log with no change allocated its history")
	}
	if added, withdrawn, to, ok := l.DeltaSince(0); !ok || to != 0 || added != nil || withdrawn != nil {
		t.Fatalf("DeltaSince(0) on a fresh log = %v %v %d %v", added, withdrawn, to, ok)
	}
	if _, _, _, ok := l.DeltaSince(1); ok {
		t.Fatal("DeltaSince ahead of a fresh log answered")
	}
	rec := Record{Kind: KindVariable, Name: "a", Node: "n"}
	if _, _, _, _, changed := l.Update([]Record{rec}); !changed || len(l.history) != logHistoryStart {
		t.Fatalf("first change: changed=%v, history of %d", changed, len(l.history))
	}
	if added, _, to, ok := l.DeltaSince(0); !ok || to != 1 || len(added) != 1 || added[0] != rec {
		t.Fatalf("DeltaSince(0) after one change = %v %d %v", added, to, ok)
	}
	want := logHistoryStart
	for v := uint64(2); v <= 2*logHistoryDepth; v++ {
		if _, _, _, _, changed := l.Update([]Record{{Kind: KindVariable, Name: fmt.Sprint(v), Node: "n"}}); !changed {
			t.Fatalf("version %d: no change", v)
		}
		if v == uint64(want) && want < logHistoryDepth {
			want *= 2
		}
		if len(l.history) != want {
			t.Fatalf("version %d: history of %d slots, want %d", v, len(l.history), want)
		}
	}
}

// TestDecodeAnnouncementSharesStrings decodes a 1,000-record announcement
// whose records share one service and one pair of signatures: beyond the
// record slice, each record costs at most its name's string, and the
// shared fields come back as one string each, not a copy per record.
func TestDecodeAnnouncementSharesStrings(t *testing.T) {
	const records = 1000
	a := &Announcement{Node: "n", Epoch: 1, Version: 1}
	for i := 0; i < records; i++ {
		a.Records = append(a.Records, Record{Kind: KindFunction, Name: fmt.Sprintf("fn.%04d", i),
			Service: "navigator", Node: "n", TypeSig: "{lat:f64,lon:f64}", ArgSig: "{wp:u32}"})
	}
	wire, err := EncodeAnnouncement(a)
	if err != nil {
		t.Fatal(err)
	}
	var got *Announcement
	allocs := testing.AllocsPerRun(20, func() {
		if got, err = DecodeAnnouncement(wire); err != nil {
			t.Fatal(err)
		}
	})
	// The announcement, its node id and its record slice, then one name
	// per record.
	if limit := float64(records + 4); allocs > limit {
		t.Errorf("decoding %d records: %.0f allocs, want <= %.0f", records, allocs, limit)
	}
	if len(got.Records) != records || got.Records[records-1] != a.Records[records-1] {
		t.Fatalf("decoded %d records, last %+v", len(got.Records), got.Records[len(got.Records)-1])
	}
	first, last := got.Records[0], got.Records[records-1]
	if unsafe.StringData(first.Service) != unsafe.StringData(last.Service) ||
		unsafe.StringData(first.TypeSig) != unsafe.StringData(last.TypeSig) ||
		unsafe.StringData(first.ArgSig) != unsafe.StringData(last.ArgSig) {
		t.Error("the shared fields of two decoded records are separate copies")
	}
}
