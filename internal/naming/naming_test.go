package naming

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

func sampleAnnouncement() *Announcement {
	return &Announcement{
		Node:  "uav1",
		Epoch: 3,
		Load:  0.25,
		Records: []Record{
			{Kind: KindService, Name: "gps", Service: "gps", Node: "uav1"},
			{Kind: KindVariable, Name: "gps.position", Service: "gps", Node: "uav1", TypeSig: "{lat:f64,lon:f64}"},
			{Kind: KindFunction, Name: "camera.prepare", Service: "camera", Node: "uav1", TypeSig: "bool", ArgSig: "{name:str}"},
			{Kind: KindEvent, Name: "mission.photo", Service: "mc", Node: "uav1"},
			{Kind: KindFile, Name: "photo.1", Service: "camera", Node: "uav1"},
		},
	}
}

func TestAnnouncementRoundTrip(t *testing.T) {
	a := sampleAnnouncement()
	data, err := EncodeAnnouncement(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeAnnouncement(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Node != a.Node || got.Epoch != a.Epoch || got.Load != a.Load {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Records) != len(a.Records) {
		t.Fatalf("record count %d", len(got.Records))
	}
	for i := range a.Records {
		if got.Records[i] != a.Records[i] {
			t.Errorf("record %d: %+v vs %+v", i, got.Records[i], a.Records[i])
		}
	}
}

func TestAnnouncementEncodeErrors(t *testing.T) {
	if _, err := EncodeAnnouncement(&Announcement{}); !errors.Is(err, ErrBadAnnouncement) {
		t.Errorf("empty node: %v", err)
	}
	bad := &Announcement{Node: "n", Records: []Record{{Kind: 99, Name: "x"}}}
	if _, err := EncodeAnnouncement(bad); !errors.Is(err, ErrBadAnnouncement) {
		t.Errorf("bad kind: %v", err)
	}
	bad2 := &Announcement{Node: "n", Records: []Record{{Kind: KindService, Name: ""}}}
	if _, err := EncodeAnnouncement(bad2); !errors.Is(err, ErrBadAnnouncement) {
		t.Errorf("unnamed record: %v", err)
	}
}

func TestAnnouncementDecodeErrors(t *testing.T) {
	good, err := EncodeAnnouncement(sampleAnnouncement())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAnnouncement(nil); err == nil {
		t.Error("nil input must fail")
	}
	if _, err := DecodeAnnouncement(good[:10]); err == nil {
		t.Error("truncated must fail")
	}
	if _, err := DecodeAnnouncement(append(good, 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
	bad := append([]byte{}, good...)
	bad[0] = 9 // version
	if _, err := DecodeAnnouncement(bad); !errors.Is(err, ErrBadAnnouncement) {
		t.Errorf("bad version: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindVariable.String() != "variable" || KindFile.String() != "file" {
		t.Error("kind names wrong")
	}
	if Kind(0).Valid() || Kind(77).Valid() {
		t.Error("Valid bounds wrong")
	}
}

func TestDirectoryApplyAndLookup(t *testing.T) {
	d := NewDirectory(time.Second)
	if changed := d.Apply(sampleAnnouncement()); !changed {
		t.Error("first apply must report change")
	}
	if changed := d.Apply(sampleAnnouncement()); changed {
		t.Error("identical re-apply must not report change")
	}
	recs := d.Lookup(KindVariable, "gps.position")
	if len(recs) != 1 || recs[0].Node != "uav1" {
		t.Fatalf("Lookup = %+v", recs)
	}
	if d.ProviderCount(KindFunction, "camera.prepare") != 1 {
		t.Error("function provider missing")
	}
	if got := d.Lookup(KindVariable, "nope"); len(got) != 0 {
		t.Error("unknown name must be empty")
	}
	if names := d.Names(KindVariable); len(names) != 1 || names[0] != "gps.position" {
		t.Errorf("Names = %v", names)
	}
	if d.Load("uav1") != 0.25 {
		t.Errorf("Load = %v", d.Load("uav1"))
	}
}

// TestDirectoryApplyReportsANewIncarnation: a restarted node's first full
// state is a change even when it offers what its previous incarnation did,
// so whatever was derived from the old incarnation is derived again.
func TestDirectoryApplyReportsANewIncarnation(t *testing.T) {
	d := NewDirectory(time.Second)
	now := time.Now()
	d.Heard("uav1", now)
	d.Apply(sampleAnnouncement())
	a := sampleAnnouncement()
	a.Epoch++
	if !d.AdmitEpoch(a.Node, a.Epoch, now) {
		t.Fatal("a new epoch of a live node is not a restart")
	}
	if changed := d.Apply(a); !changed {
		t.Error("the new incarnation's first full state must report change")
	}
	if changed := d.Apply(a); changed {
		t.Error("identical re-apply must not report change")
	}
}

func TestDirectoryWithdrawnRecordRemoved(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Apply(sampleAnnouncement())
	// Second announcement without the file resource.
	a := sampleAnnouncement()
	a.Records = a.Records[:4]
	if changed := d.Apply(a); !changed {
		t.Error("withdrawal must report change")
	}
	if d.ProviderCount(KindFile, "photo.1") != 0 {
		t.Error("withdrawn record still cached")
	}
}

// TestDirectoryStaleEpochRejected: an announcement from an older epoch, or
// from an older version of the same epoch (a snapshot reply overtaken by a
// newer one), is ignored and the records stand.
func TestDirectoryStaleEpochRejected(t *testing.T) {
	d := NewDirectory(time.Second)
	current := sampleAnnouncement()
	current.Version = 2
	d.Apply(current)
	for _, stale := range []struct {
		what           string
		epoch, version uint64
	}{
		{"stale epoch", 1, 9},
		{"stale version", current.Epoch, 1},
	} {
		old := sampleAnnouncement()
		old.Epoch, old.Version = stale.epoch, stale.version
		old.Records = nil
		if changed := d.Apply(old); changed {
			t.Errorf("%s must be ignored", stale.what)
		}
		if d.ProviderCount(KindVariable, "gps.position") != 1 {
			t.Errorf("%s wiped records", stale.what)
		}
		if _, version, _ := d.NodeVersion("uav1"); version != 2 {
			t.Errorf("%s moved the node to version %d", stale.what, version)
		}
	}
}

func TestDirectoryRemoveNode(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Apply(sampleAnnouncement())
	b := sampleAnnouncement()
	b.Node = "uav2"
	for i := range b.Records {
		b.Records[i].Node = "uav2"
	}
	d.Apply(b)
	if d.ProviderCount(KindVariable, "gps.position") != 2 {
		t.Fatal("expected two providers")
	}
	d.RemoveNode("uav1")
	recs := d.Lookup(KindVariable, "gps.position")
	if len(recs) != 1 || recs[0].Node != "uav2" {
		t.Errorf("after RemoveNode: %+v", recs)
	}
}

// TestDirectoryExpire: the records of a peer silent past the deadline go
// with it, and the records of a node never heard from — the directory's
// own — stay.
func TestDirectoryExpire(t *testing.T) {
	d := NewDirectory(50 * time.Millisecond)
	now := time.Now()
	d.Heard("uav1", now)
	d.Apply(sampleAnnouncement())
	own := sampleAnnouncement()
	own.Node = "self"
	for i := range own.Records {
		own.Records[i].Node = "self"
	}
	d.Apply(own)
	stale := d.Sweep(now.Add(50 * time.Millisecond))
	if len(stale) != 0 {
		t.Errorf("premature expiry: %v", stale)
	}
	stale = d.Sweep(now.Add(100 * time.Millisecond))
	if len(stale) != 1 || stale[0] != "uav1" {
		t.Errorf("Sweep = %v", stale)
	}
	if got := d.Lookup(KindVariable, "gps.position"); len(got) != 1 || got[0].Node != "self" {
		t.Errorf("after the sweep gps.position is provided by %+v, want self alone", got)
	}
	if _, _, known := d.NodeVersion("uav1"); known || d.Load("uav1") != 0 {
		t.Error("an expired peer's version or load outlived it")
	}
}

func twoProviderDirectory(t *testing.T, loadA, loadB float64) *Directory {
	t.Helper()
	d := NewDirectory(time.Minute)
	a := &Announcement{Node: "nodeA", Epoch: 1, Load: loadA, Records: []Record{
		{Kind: KindFunction, Name: "fn", Service: "s", Node: "nodeA"},
	}}
	b := &Announcement{Node: "nodeB", Epoch: 1, Load: loadB, Records: []Record{
		{Kind: KindFunction, Name: "fn", Service: "s", Node: "nodeB"},
	}}
	d.Apply(a)
	d.Apply(b)
	return d
}

func TestSelectDynamicRoundRobin(t *testing.T) {
	d := twoProviderDirectory(t, 0.1, 0.1)
	seen := map[transport.NodeID]int{}
	for i := 0; i < 10; i++ {
		rec, err := d.Select(KindFunction, "fn", qos.BindDynamic, "")
		if err != nil {
			t.Fatal(err)
		}
		seen[rec.Node]++
	}
	if seen["nodeA"] != 5 || seen["nodeB"] != 5 {
		t.Errorf("round robin skewed: %v", seen)
	}
}

func TestSelectDynamicLeastLoaded(t *testing.T) {
	d := twoProviderDirectory(t, 0.9, 0.1)
	for i := 0; i < 6; i++ {
		rec, err := d.Select(KindFunction, "fn", qos.BindDynamic, "")
		if err != nil {
			t.Fatal(err)
		}
		if rec.Node != "nodeB" {
			t.Fatalf("call routed to loaded node on try %d", i)
		}
	}
}

func TestSelectStaticPinning(t *testing.T) {
	d := twoProviderDirectory(t, 0.5, 0.5)
	rec, err := d.Select(KindFunction, "fn", qos.BindStatic, "")
	if err != nil {
		t.Fatal(err)
	}
	pin := rec.Node
	for i := 0; i < 5; i++ {
		got, err := d.Select(KindFunction, "fn", qos.BindStatic, pin)
		if err != nil {
			t.Fatal(err)
		}
		if got.Node != pin {
			t.Fatal("static binding moved while pin alive")
		}
	}
	// Pin dies: fail over to the survivor (§4.3 redundancy).
	d.RemoveNode(pin)
	got, err := d.Select(KindFunction, "fn", qos.BindStatic, pin)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if got.Node == pin {
		t.Error("selected dead pin")
	}
}

// providerDirectory caches n providers of function "fn", node0 … node<n-1>.
func providerDirectory(n int) *Directory {
	d := NewDirectory(time.Minute)
	for i := 0; i < n; i++ {
		node := transport.NodeID(fmt.Sprintf("node%d", i))
		d.Apply(&Announcement{Node: node, Epoch: 1, Records: []Record{
			{Kind: KindFunction, Name: "fn", Service: "s", Node: node},
		}})
	}
	return d
}

// TestSelectAllocs gates Select at zero allocations: providers are kept in
// node order, and the candidate list is built in the directory's scratch
// slice.
func TestSelectAllocs(t *testing.T) {
	for _, n := range []int{1, 3} {
		d := providerDirectory(n)
		for _, binding := range []qos.Binding{qos.BindStatic, qos.BindDynamic} {
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := d.Select(KindFunction, "fn", binding, ""); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("Select over %d providers, binding %v: %.1f allocs, want 0", n, binding, allocs)
			}
		}
	}
}

// TestSelectScratchReuseUnderConcurrentCallers runs Selects from several
// goroutines against two directories, as two nodes in one process would,
// while providers come and go: each directory's scratch list is its own,
// and only ever hands back a provider of the name asked for.
func TestSelectScratchReuseUnderConcurrentCallers(t *testing.T) {
	dirs := []*Directory{providerDirectory(3), providerDirectory(3)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(d *Directory) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rec, err := d.Select(KindFunction, "fn", qos.BindDynamic, "")
				if err != nil || rec.Name != "fn" || rec.Node == "" {
					t.Errorf("Select = %+v, %v", rec, err)
					return
				}
			}
		}(dirs[g%len(dirs)])
	}
	for i := 0; i < 200; i++ {
		d := dirs[i%len(dirs)]
		node := transport.NodeID(fmt.Sprintf("churn%d", i%4))
		d.Apply(&Announcement{Node: node, Epoch: 1, Version: uint64(i), Records: []Record{
			{Kind: KindFunction, Name: "fn", Service: "s", Node: node},
		}})
		d.RemoveNode(node)
	}
	wg.Wait()
}

// TestSelectCursorLeavesWithLastProvider checks that a name's round-robin
// cursor survives while any provider remains and is dropped with the last
// one, however that one goes.
func TestSelectCursorLeavesWithLastProvider(t *testing.T) {
	key := dirKey{kind: KindFunction, name: "fn"}
	for name, remove := range map[string]func(d *Directory, node transport.NodeID){
		"removed": func(d *Directory, node transport.NodeID) { d.RemoveNode(node) },
		"withdrawn by announcement": func(d *Directory, node transport.NodeID) {
			d.Apply(&Announcement{Node: node, Epoch: 1})
		},
		"withdrawn by delta": func(d *Directory, node transport.NodeID) {
			d.ApplyDelta(&Delta{Node: node, Epoch: 1, From: 0, To: 1,
				Withdrawn: []RecordKey{{Kind: KindFunction, Name: "fn"}}})
		},
		"expired": func(d *Directory, node transport.NodeID) {
			d.Heard(node, time.Now().Add(-time.Hour))
			d.Sweep(time.Now())
		},
	} {
		t.Run(name, func(t *testing.T) {
			d := providerDirectory(2)
			if _, err := d.Select(KindFunction, "fn", qos.BindDynamic, ""); err != nil {
				t.Fatal(err)
			}
			remove(d, "node0")
			if _, ok := d.rr[key]; !ok {
				t.Fatal("cursor dropped while node1 still provides fn")
			}
			remove(d, "node1")
			if _, ok := d.rr[key]; ok {
				t.Fatal("cursor of fn outlived its last provider")
			}
		})
	}
}

func TestSelectNotFound(t *testing.T) {
	d := NewDirectory(time.Minute)
	if _, err := d.Select(KindFunction, "ghost", qos.BindDynamic, ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

// TestLiveness: a peer is live from its first frame until it is silent
// past the deadline or says goodbye, and a failure is reported once.
func TestLiveness(t *testing.T) {
	d := NewDirectory(100 * time.Millisecond)
	now := time.Now()
	d.Heard("a", now)
	d.AdmitEpoch("b", 1, now)
	d.ApplyDigest(&Digest{Node: "b", Epoch: 1})
	if peers := d.Peers(); !slices.Equal(peers, []transport.NodeID{"a", "b"}) {
		t.Errorf("Peers = %v, want a and b", peers)
	}
	// b keeps heartbeating; a goes silent.
	d.AdmitEpoch("b", 1, now.Add(90*time.Millisecond))
	failed := d.Sweep(now.Add(150 * time.Millisecond))
	if len(failed) != 1 || failed[0] != "a" {
		t.Errorf("Sweep = %v", failed)
	}
	// Reported once only (b is still within its deadline at +185ms).
	if again := d.Sweep(now.Add(185 * time.Millisecond)); len(again) != 0 {
		t.Errorf("second sweep = %v", again)
	}
	if peers := d.Peers(); len(peers) != 1 || peers[0] != "b" {
		t.Errorf("Peers = %v", peers)
	}
	d.RemoveNode("b")
	if len(d.Peers()) != 0 || len(d.Sweep(now.Add(time.Hour))) != 0 {
		t.Error("a departed peer is still live")
	}
	// The departed peer's epoch stays: an older incarnation is stale, and
	// a newer one is a first contact, not a restart.
	if _, _, known := d.NodeVersion("b"); known {
		t.Error("a departed peer's version survived")
	}
	d.ApplyDigest(&Digest{Node: "b", Epoch: 0})
	if epoch, _, known := d.NodeVersion("b"); known || epoch != 1 {
		t.Errorf("after a stale incarnation's digest b is at epoch %d (version known %v), want 1 unknown", epoch, known)
	}
	if d.AdmitEpoch("b", 2, now) {
		t.Error("a departed peer's new incarnation reported as a restart")
	}
}

func TestLivenessDefaultDeadline(t *testing.T) {
	d := NewDirectory(0)
	now := time.Now()
	d.Heard("x", now)
	if failed := d.Sweep(now.Add(DefaultFailureDeadline)); len(failed) != 0 {
		t.Error("node at exactly the deadline must still be alive")
	}
	if failed := d.Sweep(now.Add(DefaultFailureDeadline + time.Millisecond)); len(failed) != 1 {
		t.Error("node past deadline must be dead")
	}
}
