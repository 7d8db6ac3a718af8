package naming

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"uavmw/internal/transport"
)

// refDirectory is the name cache and the failure detector as two
// structures, the way discovery kept them before the directory became the
// failure detector: the cache's per-node maps (epoch, version, load, and a
// freshness deadline refreshed by every applied frame and by every sweep),
// and a separate liveness map of last-heard instants. Records are kept per
// node in plain maps; the binding tables are not what is under test.
type refDirectory struct {
	self          transport.NodeID
	ttl, deadline time.Duration

	recs      map[transport.NodeID]map[dirKey]Record
	epochs    map[transport.NodeID]uint64
	versions  map[transport.NodeID]uint64
	expiries  map[transport.NodeID]time.Time
	loads     map[transport.NodeID]float64
	lastHeard map[transport.NodeID]time.Time
}

func newRefDirectory(self transport.NodeID, ttl, deadline time.Duration) *refDirectory {
	return &refDirectory{
		self: self, ttl: ttl, deadline: deadline,
		recs:      map[transport.NodeID]map[dirKey]Record{},
		epochs:    map[transport.NodeID]uint64{},
		versions:  map[transport.NodeID]uint64{},
		expiries:  map[transport.NodeID]time.Time{},
		loads:     map[transport.NodeID]float64{},
		lastHeard: map[transport.NodeID]time.Time{},
	}
}

// bind caches rec as node's binding of its key and reports whether that
// changed anything.
func (r *refDirectory) bind(node transport.NodeID, rec Record) bool {
	rec.Node = node
	m := r.recs[node]
	if m == nil {
		m = map[dirKey]Record{}
		r.recs[node] = m
	}
	key := dirKey{kind: rec.Kind, name: rec.Name}
	if old, ok := m[key]; ok && old == rec {
		return false
	}
	m[key] = rec
	return true
}

func (r *refDirectory) apply(a *Announcement, now time.Time) bool {
	if prev, ok := r.epochs[a.Node]; ok && a.Epoch < prev {
		return false
	}
	if prev, ok := r.epochs[a.Node]; ok && a.Epoch == prev {
		if ver, known := r.versions[a.Node]; known && a.Version < ver {
			return false
		}
	}
	_, versionKnown := r.versions[a.Node]
	r.epochs[a.Node] = a.Epoch
	r.versions[a.Node] = a.Version
	r.loads[a.Node] = a.Load
	r.expiries[a.Node] = now.Add(r.ttl)
	changed := !versionKnown
	offered := map[dirKey]bool{}
	for _, rec := range a.Records {
		offered[dirKey{kind: rec.Kind, name: rec.Name}] = true
		if r.bind(a.Node, rec) {
			changed = true
		}
	}
	for key := range r.recs[a.Node] {
		if !offered[key] {
			delete(r.recs[a.Node], key)
			changed = true
		}
	}
	return changed
}

func (r *refDirectory) applyDelta(dl *Delta, now time.Time) bool {
	prevEpoch, epochKnown := r.epochs[dl.Node]
	if epochKnown && dl.Epoch < prevEpoch {
		return false
	}
	ver, verKnown := r.versions[dl.Node]
	if !(epochKnown && verKnown && dl.Epoch == prevEpoch) {
		if dl.From != 0 {
			return true
		}
		delete(r.recs, dl.Node)
	} else {
		if dl.To <= ver {
			r.loads[dl.Node] = dl.Load
			r.expiries[dl.Node] = now.Add(r.ttl)
			return false
		}
		if dl.From != ver {
			r.expiries[dl.Node] = now.Add(r.ttl)
			return true
		}
	}
	for _, rec := range dl.Added {
		r.bind(dl.Node, rec)
	}
	for _, k := range dl.Withdrawn {
		delete(r.recs[dl.Node], dirKey{kind: k.Kind, name: k.Name})
	}
	r.epochs[dl.Node] = dl.Epoch
	r.versions[dl.Node] = dl.To
	r.loads[dl.Node] = dl.Load
	r.expiries[dl.Node] = now.Add(r.ttl)
	return false
}

func (r *refDirectory) applyDigest(g *Digest, now time.Time) bool {
	prevEpoch, epochKnown := r.epochs[g.Node]
	if epochKnown && g.Epoch < prevEpoch {
		return false
	}
	r.loads[g.Node] = g.Load
	ver, verKnown := r.versions[g.Node]
	if epochKnown && verKnown && g.Epoch == prevEpoch && g.Version == ver {
		r.expiries[g.Node] = now.Add(r.ttl)
		return false
	}
	if g.Version == 0 {
		delete(r.recs, g.Node)
		r.epochs[g.Node] = g.Epoch
		r.versions[g.Node] = 0
		r.expiries[g.Node] = now.Add(r.ttl)
		return false
	}
	if verKnown {
		r.expiries[g.Node] = now.Add(r.ttl)
	}
	return true
}

func (r *refDirectory) admitEpoch(node transport.NodeID, epoch uint64) bool {
	if prev, known := r.epochs[node]; !known || epoch <= prev {
		return false
	}
	r.epochs[node] = epoch
	delete(r.versions, node)
	_, live := r.expiries[node]
	return live
}

func (r *refDirectory) removeNode(node transport.NodeID) {
	delete(r.loads, node)
	delete(r.versions, node)
	delete(r.expiries, node)
	delete(r.recs, node)
}

// frame is discovery's intake of a peer frame carrying epoch, before the
// frame is applied: admit the epoch, then mark the peer heard.
func (r *refDirectory) frame(node transport.NodeID, epoch uint64, now time.Time) (restarted bool) {
	restarted = r.admitEpoch(node, epoch)
	r.lastHeard[node] = now
	return restarted
}

// bye is discovery's handling of a goodbye.
func (r *refDirectory) bye(node transport.NodeID) {
	delete(r.lastHeard, node)
	r.removeNode(node)
}

// sweep is discovery's per-period sweep: refresh the node's own records,
// fail the peers silent past the deadline, refresh every live peer's
// records, and fail the peers whose records expired anyway.
func (r *refDirectory) sweep(now time.Time) []transport.NodeID {
	r.expiries[r.self] = now.Add(r.ttl)
	var failed []transport.NodeID
	for node, heard := range r.lastHeard {
		if now.Sub(heard) > r.deadline {
			delete(r.lastHeard, node)
			r.removeNode(node)
			failed = append(failed, node)
		}
	}
	for node := range r.lastHeard {
		r.expiries[node] = now.Add(r.ttl)
	}
	for node, deadline := range r.expiries {
		if now.After(deadline) {
			delete(r.expiries, node)
			delete(r.versions, node)
			delete(r.recs, node)
			if node != r.self {
				delete(r.lastHeard, node)
				r.removeNode(node)
				failed = append(failed, node)
			}
		}
	}
	slices.Sort(failed)
	return failed
}

func (r *refDirectory) lookup(key dirKey) []Record {
	out := []Record{}
	for _, m := range r.recs {
		if rec, ok := m[key]; ok {
			out = append(out, rec)
		}
	}
	slices.SortFunc(out, func(a, b Record) int {
		if a.Node < b.Node {
			return -1
		}
		if a.Node > b.Node {
			return 1
		}
		return 0
	})
	return out
}

func (r *refDirectory) peers() []transport.NodeID {
	var out []transport.NodeID
	for node := range r.lastHeard {
		out = append(out, node)
	}
	slices.Sort(out)
	return out
}

// TestDirectoryMatchesReference drives the directory and the reference
// with the same seeded discovery traffic on an advancing clock — full
// announcements, deltas and digests of current, stale and new epochs,
// sync requests that only mark the sender heard, goodbyes, sweeps and the
// node's own offer — and holds every answer of the directory to the
// reference's: what each call returns, every node's version, record count
// and load, every name's providers, the live peers, and the peers each
// sweep fails.
//
// One difference is by design. The reference reports a restart only for a
// peer whose records it holds fresh, and a peer heard since the last sweep
// only through a frame the cache did not apply (a sync request, a stale
// epoch, a digest that asked for a sync) has none until that sweep
// refreshes it. The directory reports a restart for every live peer, so it
// reports each restart the reference does, and also those.
func TestDirectoryMatchesReference(t *testing.T) {
	const (
		self     = transport.NodeID("self")
		deadline = 500 * time.Millisecond
	)
	ops := 20_000
	if testing.Short() {
		ops = 4_000
	}
	peers := []transport.NodeID{"p0", "p1", "p2", "p3"}
	nodes := append([]transport.NodeID{self}, peers...)
	var keys []RecordKey
	for _, kind := range []Kind{KindVariable, KindFunction} {
		for i := 0; i < 4; i++ {
			keys = append(keys, RecordKey{Kind: kind, Name: fmt.Sprintf("n%d", i)})
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := NewDirectory(deadline)
			ref := newRefDirectory(self, deadline+deadline/5, deadline)
			now := time.Unix(1_000_000, 0)
			epoch := map[transport.NodeID]uint64{}   // each node's current incarnation
			version := map[transport.NodeID]uint64{} // and its log version
			for _, node := range nodes {
				epoch[node] = 1 + uint64(rng.Intn(3))
			}
			records := func(node transport.NodeID) []Record {
				var out []Record
				for _, k := range keys {
					if rng.Intn(3) == 0 {
						out = append(out, Record{Kind: k.Kind, Name: k.Name, Node: node,
							Service: fmt.Sprintf("s%d", rng.Intn(2)), TypeSig: "f64"})
					}
				}
				return out
			}
			// frameEpoch picks the epoch a peer's frame carries: mostly
			// the current incarnation, sometimes an older one, sometimes a
			// new one that becomes current.
			frameEpoch := func(node transport.NodeID) uint64 {
				switch r := rng.Intn(20); {
				case r < 2:
					return uint64(rng.Int63n(int64(epoch[node]) + 1))
				case r < 4:
					epoch[node]++
					version[node] = 0
				}
				return epoch[node]
			}
			pickVersion := func(node transport.NodeID) uint64 {
				switch rng.Intn(4) {
				case 0:
					return 0
				case 1:
					return uint64(rng.Intn(int(version[node]) + 1))
				}
				version[node] += uint64(rng.Intn(2))
				return version[node]
			}
			for op := 0; op < ops; op++ {
				now = now.Add(time.Duration(rng.Intn(120)) * time.Millisecond)
				node := peers[rng.Intn(len(peers))]
				what := ""
				var got, want []bool // call results
				var gotRestart, wantRestart, restartable bool
				// admit takes a frame's epoch on both sides, noting whether
				// it ends a live peer's incarnation.
				admit := func(e uint64) {
					_, live := ref.lastHeard[node]
					prev, known := ref.epochs[node]
					restartable = live && known && e > prev
					wantRestart, gotRestart = ref.frame(node, e, now), d.AdmitEpoch(node, e, now)
				}
				switch r := rng.Intn(100); {
				case r < 20:
					what = "announce"
					e := frameEpoch(node)
					a := &Announcement{Node: node, Epoch: e, Version: pickVersion(node), Load: float64(rng.Intn(4)) / 4, Records: records(node)}
					admit(e)
					got, want = []bool{d.Apply(a)}, []bool{ref.apply(a, now)}
				case r < 45:
					what = "delta"
					e := frameEpoch(node)
					from := pickVersion(node)
					to := from + 1 + uint64(rng.Intn(2))
					if to > version[node] {
						version[node] = to
					}
					dl := &Delta{Node: node, Epoch: e, From: from, To: to, Load: float64(rng.Intn(4)) / 4, Added: records(node)}
					for _, k := range keys {
						if rng.Intn(6) == 0 {
							dl.Withdrawn = append(dl.Withdrawn, k)
						}
					}
					admit(e)
					got, want = []bool{d.ApplyDelta(dl)}, []bool{ref.applyDelta(dl, now)}
				case r < 75:
					what = "digest"
					e := frameEpoch(node)
					g := &Digest{Node: node, Epoch: e, Version: pickVersion(node), Load: float64(rng.Intn(4)) / 4}
					admit(e)
					got, want = []bool{d.ApplyDigest(g)}, []bool{ref.applyDigest(g, now)}
				case r < 82:
					what = "sync request"
					d.Heard(node, now)
					ref.lastHeard[node] = now
				case r < 85:
					what = "goodbye"
					d.RemoveNode(node)
					ref.bye(node)
				case r < 88:
					what = "own offer"
					node = self
					version[self]++
					a := &Announcement{Node: self, Epoch: epoch[self], Version: version[self], Records: records(self)}
					got, want = []bool{d.Apply(a)}, []bool{ref.apply(a, now)}
				default:
					what = "sweep"
					if rng.Intn(4) == 0 {
						now = now.Add(deadline)
					}
					gotFailed, wantFailed := d.Sweep(now), ref.sweep(now)
					if !slices.Equal(gotFailed, wantFailed) {
						t.Fatalf("op %d (sweep): failed %v, reference %v", op, gotFailed, wantFailed)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("op %d (%s from %s): returned %v, reference %v", op, what, node, got, want)
				}
				// The one difference by design: every live peer's restart.
				if gotRestart != restartable || (wantRestart && !gotRestart) {
					t.Fatalf("op %d (%s from %s): restarted %v, reference %v, live peer's new epoch %v",
						op, what, node, gotRestart, wantRestart, restartable)
				}
				if !slices.Equal(d.Peers(), ref.peers()) {
					t.Fatalf("op %d (%s from %s): peers %v, reference %v", op, what, node, d.Peers(), ref.peers())
				}
				for _, n := range nodes {
					e, v, known := d.NodeVersion(n)
					_, refKnown := ref.versions[n]
					if e != ref.epochs[n] || v != ref.versions[n] || known != refKnown {
						t.Fatalf("op %d (%s from %s): NodeVersion(%s) = %d, %d, %v; reference %d, %d, %v",
							op, what, node, n, e, v, known, ref.epochs[n], ref.versions[n], refKnown)
					}
					if got, want := d.NodeRecordCount(n), len(ref.recs[n]); got != want {
						t.Fatalf("op %d (%s from %s): NodeRecordCount(%s) = %d, reference %d", op, what, node, n, got, want)
					}
					if got, want := d.Load(n), ref.loads[n]; got != want {
						t.Fatalf("op %d (%s from %s): Load(%s) = %v, reference %v", op, what, node, n, got, want)
					}
				}
				for _, k := range keys {
					key := dirKey{kind: k.Kind, name: k.Name}
					if got, want := d.Lookup(k.Kind, k.Name), ref.lookup(key); !slices.Equal(got, want) {
						t.Fatalf("op %d (%s from %s): Lookup(%v) = %+v, reference %+v", op, what, node, k, got, want)
					}
				}
			}
		})
	}
}
