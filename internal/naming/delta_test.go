package naming

import (
	"errors"
	"testing"
	"time"
)

func TestDeltaRoundTrip(t *testing.T) {
	d := &Delta{
		Node: "n1", Epoch: 7, From: 3, To: 5, Load: 0.25,
		Added: []Record{
			{Kind: KindVariable, Name: "gps.position", Service: "gps", Node: "n1", TypeSig: "{lat:f64}"},
			{Kind: KindFunction, Name: "cam.shoot", Service: "cam", Node: "n1", TypeSig: "bool", ArgSig: "u32"},
		},
		Withdrawn: []RecordKey{{Kind: KindEvent, Name: "old.topic"}},
	}
	data, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != d.Node || got.Epoch != d.Epoch || got.From != d.From || got.To != d.To {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Added) != 2 || got.Added[0] != d.Added[0] || got.Added[1] != d.Added[1] {
		t.Fatalf("added mismatch: %+v", got.Added)
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != d.Withdrawn[0] {
		t.Fatalf("withdrawn mismatch: %+v", got.Withdrawn)
	}
}

func TestDeltaRejectsBadInput(t *testing.T) {
	if _, err := EncodeDelta(&Delta{Node: "", From: 0, To: 1}); !errors.Is(err, ErrBadAnnouncement) {
		t.Errorf("empty node: %v", err)
	}
	if _, err := EncodeDelta(&Delta{Node: "n", From: 2, To: 2}); !errors.Is(err, ErrBadAnnouncement) {
		t.Errorf("non-advancing versions: %v", err)
	}
	good, err := EncodeDelta(&Delta{Node: "n", From: 0, To: 1,
		Added: []Record{{Kind: KindVariable, Name: "v", Node: "n"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(good[:len(good)-2]); err == nil {
		t.Error("truncated delta decoded")
	}
	if _, err := DecodeDelta(append(good, 9)); err == nil {
		t.Error("trailing garbage decoded")
	}
	if _, err := DecodeDelta(nil); err == nil {
		t.Error("nil delta decoded")
	}
}

func TestDigestRoundTripAndSize(t *testing.T) {
	g := &Digest{Node: "uav-42", Epoch: 99, Version: 1234, Load: 0.5, RecordCount: 1000}
	data, err := EncodeDigest(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *g {
		t.Fatalf("round trip: %+v != %+v", got, g)
	}
	// The scaling claim: a digest is constant-size regardless of how many
	// records the node offers (only the node id varies).
	if len(data) > 64 {
		t.Errorf("digest is %d bytes; the beacon must stay small", len(data))
	}
}

func TestLogVersionsAndDiffs(t *testing.T) {
	l := NewLog()
	if v := l.Version(); v != 0 {
		t.Fatalf("fresh log at version %d", v)
	}
	r1 := Record{Kind: KindVariable, Name: "a", Node: "n"}
	r2 := Record{Kind: KindFunction, Name: "b", Node: "n"}
	added, withdrawn, from, to, changed := l.Update([]Record{r1, r2})
	if !changed || from != 0 || to != 1 || len(added) != 2 || len(withdrawn) != 0 {
		t.Fatalf("first update: added=%v withdrawn=%v %d..%d changed=%v", added, withdrawn, from, to, changed)
	}
	// No-op update: version must not advance.
	_, _, from, to, changed = l.Update([]Record{r2, r1})
	if changed || from != 1 || to != 1 {
		t.Fatalf("no-op update bumped version: %d..%d changed=%v", from, to, changed)
	}
	// Withdraw one, modify the other.
	r2mod := r2
	r2mod.TypeSig = "u32"
	added, withdrawn, from, to, changed = l.Update([]Record{r2mod})
	if !changed || from != 1 || to != 2 {
		t.Fatalf("update 2: %d..%d changed=%v", from, to, changed)
	}
	if len(added) != 1 || added[0] != r2mod {
		t.Fatalf("modified record not re-added: %v", added)
	}
	if len(withdrawn) != 1 || withdrawn[0] != r1.Key() {
		t.Fatalf("withdrawn = %v", withdrawn)
	}
	recs, v := l.Snapshot()
	if v != 2 || len(recs) != 1 || l.Count() != 1 {
		t.Fatalf("snapshot: %v at %d", recs, v)
	}
}

func TestDirectoryApplyDelta(t *testing.T) {
	d := NewDirectory(time.Minute)
	r1 := Record{Kind: KindVariable, Name: "a", Node: "n1"}
	r2 := Record{Kind: KindVariable, Name: "b", Node: "n1"}

	// A fresh node's 0→1 delta is self-contained.
	if sync := d.ApplyDelta(&Delta{Node: "n1", Epoch: 1, From: 0, To: 1, Added: []Record{r1}}); sync {
		t.Fatal("fresh 0→1 delta demanded sync")
	}
	if got := d.Lookup(KindVariable, "a"); len(got) != 1 {
		t.Fatalf("a not resolvable: %v", got)
	}
	// In-sequence delta applies.
	if sync := d.ApplyDelta(&Delta{Node: "n1", Epoch: 1, From: 1, To: 2, Added: []Record{r2}}); sync {
		t.Fatal("in-sequence delta demanded sync")
	}
	// A duplicate of an old delta is ignored without sync.
	if sync := d.ApplyDelta(&Delta{Node: "n1", Epoch: 1, From: 1, To: 2, Added: []Record{r2}}); sync {
		t.Fatal("duplicate delta demanded sync")
	}
	// A gap demands sync and must not corrupt state.
	if sync := d.ApplyDelta(&Delta{Node: "n1", Epoch: 1, From: 5, To: 6,
		Withdrawn: []RecordKey{r1.Key()}}); !sync {
		t.Fatal("gapped delta applied silently")
	}
	if got := d.Lookup(KindVariable, "a"); len(got) != 1 {
		t.Fatal("gapped delta mutated the directory")
	}
	// Withdrawal via an in-sequence delta.
	if sync := d.ApplyDelta(&Delta{Node: "n1", Epoch: 1, From: 2, To: 3,
		Withdrawn: []RecordKey{r1.Key()}}); sync {
		t.Fatal("withdrawal delta demanded sync")
	}
	if got := d.Lookup(KindVariable, "a"); len(got) != 0 {
		t.Fatalf("a still resolvable after withdrawal: %v", got)
	}
	// A fresh epoch starting mid-history demands sync...
	if sync := d.ApplyDelta(&Delta{Node: "n1", Epoch: 2, From: 4, To: 5}); !sync {
		t.Fatal("fresh-epoch mid-history delta applied")
	}
	// ...but a fresh epoch from version zero resets and applies.
	if sync := d.ApplyDelta(&Delta{Node: "n1", Epoch: 2, From: 0, To: 1, Added: []Record{r1}}); sync {
		t.Fatal("fresh-epoch 0→1 delta demanded sync")
	}
	if got := d.Lookup(KindVariable, "b"); len(got) != 0 {
		t.Fatalf("previous-epoch record survived the reset: %v", got)
	}
	// A stale-epoch delta is discarded outright.
	if sync := d.ApplyDelta(&Delta{Node: "n1", Epoch: 1, From: 1, To: 2, Added: []Record{r2}}); sync {
		t.Fatal("stale-epoch delta demanded sync")
	}
	if got := d.Lookup(KindVariable, "b"); len(got) != 0 {
		t.Fatal("stale-epoch delta applied")
	}
}

func TestDirectoryApplyDigest(t *testing.T) {
	d := NewDirectory(time.Minute)
	r1 := Record{Kind: KindVariable, Name: "a", Node: "n1"}
	d.Apply(&Announcement{Node: "n1", Epoch: 1, Version: 3, Records: []Record{r1}})

	if sync := d.ApplyDigest(&Digest{Node: "n1", Epoch: 1, Version: 3, RecordCount: 1}); sync {
		t.Fatal("matching digest demanded sync")
	}
	// Version-gap digest demands sync.
	if sync := d.ApplyDigest(&Digest{Node: "n1", Epoch: 1, Version: 9, RecordCount: 4}); !sync {
		t.Fatal("gap digest not flagged")
	}
	// Unknown node with records demands sync; with an empty offer it just
	// registers the baseline.
	if sync := d.ApplyDigest(&Digest{Node: "n2", Epoch: 1, Version: 5, RecordCount: 2}); !sync {
		t.Fatal("unknown node with records not flagged")
	}
	if sync := d.ApplyDigest(&Digest{Node: "n3", Epoch: 1, Version: 0, RecordCount: 0}); sync {
		t.Fatal("empty-offer node flagged for sync")
	}
	if sync := d.ApplyDelta(&Delta{Node: "n3", Epoch: 1, From: 0, To: 1, Added: []Record{
		{Kind: KindEvent, Name: "x", Node: "n3"}}}); sync {
		t.Fatal("first delta after empty-offer digest demanded sync")
	}
	// A fresh-epoch digest demands sync; a stale-epoch one is ignored.
	if sync := d.ApplyDigest(&Digest{Node: "n1", Epoch: 2, Version: 1, RecordCount: 1}); !sync {
		t.Fatal("fresh-epoch digest not flagged")
	}
	if sync := d.ApplyDigest(&Digest{Node: "n1", Epoch: 0, Version: 8, RecordCount: 1}); sync {
		t.Fatal("stale-epoch digest flagged")
	}
}

func TestDirectoryRemoveNodeForcesResync(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.Apply(&Announcement{Node: "n1", Epoch: 1, Version: 3,
		Records: []Record{{Kind: KindVariable, Name: "a", Node: "n1"}}})
	d.RemoveNode("n1")
	// After a purge the cached version is gone, so even a digest at the
	// same version must trigger a sync (the records are lost).
	if sync := d.ApplyDigest(&Digest{Node: "n1", Epoch: 1, Version: 3, RecordCount: 1}); !sync {
		t.Fatal("post-purge digest did not demand sync")
	}
}
