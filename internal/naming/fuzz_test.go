package naming

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"uavmw/internal/transport"
)

// Message tags of a FuzzDirectory input: the input is a sequence of
// [tag u8][length u16][body] messages, each body fed to the decoder its
// tag names. fuzzSnapshot is an announcement too — the form a sync reply
// takes — so the committed corpus keeps its tag numbers. A tag of
// fuzzSweep instead advances the clock by the body's length in seconds
// and sweeps out the nodes silent past the failure deadline.
const (
	fuzzAnnounce = iota
	fuzzDelta
	fuzzDigest
	fuzzSnapshot
	fuzzSweep
	fuzzTags
)

func fuzzMessage(tag byte, body []byte) []byte {
	out := []byte{tag, 0, 0}
	binary.BigEndian.PutUint16(out[1:], uint16(len(body)))
	return append(out, body...)
}

// FuzzDirectory feeds peer bytes through the discovery decoders
// (DecodeAnnouncement, DecodeDelta, DecodeDigest) into one Directory's
// AdmitEpoch and then Apply, ApplyDelta or ApplyDigest, as discovery does,
// with Sweeps in between. Nothing may panic;
// every accepted message re-encodes to the bytes it was read from; and
// after each message the cache agrees with itself: every listed name has
// ProviderCount == len(Lookup) > 0 providers in node order, Record finds
// each of them, and NodeRecordCount of every node heard from equals the
// records Lookup shows for it.
func FuzzDirectory(f *testing.F) {
	// Hostile hand-made inputs are committed under
	// testdata/fuzz/FuzzDirectory; these are well-formed exchanges.
	rec := func(kind Kind, name, service string, node transport.NodeID) Record {
		return Record{Kind: kind, Name: name, Service: service, Node: node, TypeSig: "f64"}
	}
	ann, _ := EncodeAnnouncement(&Announcement{Node: "a", Epoch: 1, Version: 2, Load: 0.5, Records: []Record{
		rec(KindFunction, "fn", "s", "a"), rec(KindVariable, "v", "s", "a"), rec(KindFunction, "fn", "t", "a"),
	}})
	annB, _ := EncodeAnnouncement(&Announcement{Node: "b", Epoch: 1, Version: 1, Records: []Record{
		rec(KindFunction, "fn", "s", "b"),
	}})
	delta, _ := EncodeDelta(&Delta{Node: "a", Epoch: 1, From: 2, To: 3,
		Added: []Record{rec(KindEvent, "e", "s", "a")}, Withdrawn: []RecordKey{{Kind: KindFunction, Name: "fn"}}})
	fresh, _ := EncodeDelta(&Delta{Node: "c", Epoch: 1, From: 0, To: 1, Added: []Record{rec(KindFunction, "fn", "u", "c")}})
	digest, _ := EncodeDigest(&Digest{Node: "a", Epoch: 1, Version: 3, RecordCount: 2})
	empty, _ := EncodeDigest(&Digest{Node: "d", Epoch: 2})
	snapshot, _ := EncodeAnnouncement(&Announcement{Node: "b", Epoch: 2, Version: 4, Records: []Record{
		rec(KindFile, "f1", "s", "b"), rec(KindFile, "f2", "s", "b"), rec(KindFunction, "fn", "s", "b"),
	}})
	sync := fuzzMessage(fuzzSnapshot, snapshot)
	f.Add(fuzzMessage(fuzzAnnounce, ann))
	f.Add(bytes.Join([][]byte{
		fuzzMessage(fuzzAnnounce, ann), fuzzMessage(fuzzAnnounce, annB), fuzzMessage(fuzzDelta, delta),
		fuzzMessage(fuzzDelta, fresh), fuzzMessage(fuzzDigest, digest), sync,
	}, nil))
	f.Add(bytes.Join([][]byte{
		fuzzMessage(fuzzAnnounce, annB), fuzzMessage(fuzzDigest, empty), sync,
		fuzzMessage(fuzzSweep, make([]byte, 4)), fuzzMessage(fuzzAnnounce, ann),
	}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDirectory(0)
		now := time.Unix(1_000_000, 0)
		heard := map[transport.NodeID]bool{}
		for len(data) >= 3 {
			tag, n := data[0]%fuzzTags, int(binary.BigEndian.Uint16(data[1:]))
			data = data[3:]
			if n > len(data) {
				n = len(data)
			}
			body := data[:n]
			data = data[n:]
			now = now.Add(100 * time.Millisecond)
			switch tag {
			case fuzzAnnounce, fuzzSnapshot:
				a, err := DecodeAnnouncement(body)
				if err != nil {
					continue
				}
				reencoded(t, "announcement", body, func() ([]byte, error) { return EncodeAnnouncement(a) })
				heard[a.Node] = true
				d.AdmitEpoch(a.Node, a.Epoch, now)
				d.Apply(a)
			case fuzzDelta:
				dl, err := DecodeDelta(body)
				if err != nil {
					continue
				}
				reencoded(t, "delta", body, func() ([]byte, error) { return EncodeDelta(dl) })
				heard[dl.Node] = true
				d.AdmitEpoch(dl.Node, dl.Epoch, now)
				d.ApplyDelta(dl)
			case fuzzDigest:
				g, err := DecodeDigest(body)
				if err != nil {
					continue
				}
				reencoded(t, "digest", body, func() ([]byte, error) { return EncodeDigest(g) })
				heard[g.Node] = true
				d.AdmitEpoch(g.Node, g.Epoch, now)
				d.ApplyDigest(g)
			case fuzzSweep:
				now = now.Add(time.Duration(n) * time.Second)
				for _, node := range d.Sweep(now) {
					if d.NodeRecordCount(node) != 0 || slices.Contains(d.Peers(), node) {
						t.Fatalf("swept %s is still live or cached", node)
					}
				}
			}
			checkDirectory(t, d, heard)
		}
	})
}

func reencoded(t *testing.T, what string, body []byte, encode func() ([]byte, error)) {
	t.Helper()
	if re, err := encode(); err != nil || !bytes.Equal(re, body) {
		t.Fatalf("%s % x re-encodes as % x (%v)", what, body, re, err)
	}
}

// checkDirectory asserts the cache's views of itself agree.
func checkDirectory(t *testing.T, d *Directory, heard map[transport.NodeID]bool) {
	t.Helper()
	perNode := map[transport.NodeID]int{}
	for kind := KindService; kind <= KindBearer; kind++ {
		for _, name := range d.Names(kind) {
			recs := d.Lookup(kind, name)
			if n := d.ProviderCount(kind, name); n != len(recs) || n == 0 {
				t.Fatalf("%v %q: ProviderCount %d, Lookup %d records", kind, name, n, len(recs))
			}
			for i, rec := range recs {
				if rec.Kind != kind || rec.Name != name {
					t.Fatalf("%v %q: Lookup returned %+v", kind, name, rec)
				}
				if i > 0 && recs[i-1].Node >= rec.Node {
					t.Fatalf("%v %q: providers out of node order: %+v", kind, name, recs)
				}
				if got, ok := d.Record(kind, name, rec.Node); !ok || got != rec {
					t.Fatalf("%v %q: Record(%s) = %+v %v, Lookup has %+v", kind, name, rec.Node, got, ok, rec)
				}
				perNode[rec.Node]++
			}
		}
	}
	for node := range heard {
		if got := d.NodeRecordCount(node); got != perNode[node] {
			t.Fatalf("NodeRecordCount(%s) = %d, Lookup shows %d", node, got, perNode[node])
		}
	}
	for node, n := range perNode {
		if !heard[node] {
			t.Fatalf("%d records of %s, never heard from", n, node)
		}
	}
}
