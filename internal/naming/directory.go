package naming

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// Directory is the per-container proxy cache of name bindings (§3). It is
// fed by full announcements, incremental deltas and heartbeat digests, aged
// by TTL, purged on failure notifications, and queried by the primitives to
// resolve names to provider nodes.
//
// Freshness is tracked per node, not per record: every discovery message a
// node emits covers its whole offer (a digest vouches for all of it, a
// delta advances all of it), so one expiry instant per node suffices and a
// constant-size heartbeat refreshes a thousand cached records in O(1).
type Directory struct {
	ttl time.Duration

	mu       sync.Mutex
	entries  map[dirKey]map[transport.NodeID]Record
	byNode   map[transport.NodeID]map[dirKey]struct{} // per-node key index
	epochs   map[transport.NodeID]uint64
	versions map[transport.NodeID]uint64    // record-log version per node
	expiries map[transport.NodeID]time.Time // per-node freshness deadline
	loads    map[transport.NodeID]float64
	rr       map[dirKey]uint64  // round-robin cursors of names with a provider
	pick     []transport.NodeID // Select's scratch provider list
}

type dirKey struct {
	kind Kind
	name string
}

// DefaultTTL is how long a cached binding survives without refresh. It must
// exceed the announce period comfortably.
const DefaultTTL = 3 * time.Second

// ErrNotFound reports a name with no live provider — the condition §4.3
// says must trigger "the programmed emergency procedure".
var ErrNotFound = errors.New("no provider for name")

// NewDirectory builds a cache with the given TTL (0 means DefaultTTL).
func NewDirectory(ttl time.Duration) *Directory {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Directory{
		ttl:      ttl,
		entries:  make(map[dirKey]map[transport.NodeID]Record),
		byNode:   make(map[transport.NodeID]map[dirKey]struct{}),
		epochs:   make(map[transport.NodeID]uint64),
		versions: make(map[transport.NodeID]uint64),
		expiries: make(map[transport.NodeID]time.Time),
		loads:    make(map[transport.NodeID]float64),
		rr:       make(map[dirKey]uint64),
	}
}

// Apply ingests a full-state announcement: it refreshes the node's records,
// removes records the node no longer offers, rejects stale epochs, and
// records the announced log version. It reports whether anything changed.
func (d *Directory) Apply(a *Announcement, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.epochs[a.Node]; ok && a.Epoch < prev {
		return false // stale incarnation
	}
	if prev, ok := d.epochs[a.Node]; ok && a.Epoch == prev {
		// Same-epoch versions are monotonic: a delayed sync snapshot or
		// re-broadcast from an older version must not roll back records
		// registered since (it would delete them until the next
		// anti-entropy round noticed).
		if ver, known := d.versions[a.Node]; known && a.Version < ver {
			return false
		}
	}
	d.epochs[a.Node] = a.Epoch
	d.versions[a.Node] = a.Version
	d.loads[a.Node] = a.Load
	d.expiries[a.Node] = now.Add(d.ttl)

	offered := make(map[dirKey]struct{}, len(a.Records))
	changed := false
	for _, rec := range a.Records {
		key := dirKey{kind: rec.Kind, name: rec.Name}
		offered[key] = struct{}{}
		nodeMap := d.entries[key]
		if nodeMap == nil {
			nodeMap = make(map[transport.NodeID]Record)
			d.entries[key] = nodeMap
		}
		prev, exists := nodeMap[a.Node]
		if !exists || prev != rec {
			changed = true
		}
		nodeMap[a.Node] = rec
	}
	// Drop records this node previously offered but no longer announces.
	// The per-node index makes this O(node's records), not O(directory).
	for key := range d.byNode[a.Node] {
		if _, still := offered[key]; still {
			continue
		}
		if d.unbindLocked(key, a.Node) {
			changed = true
		}
	}
	d.byNode[a.Node] = offered
	return changed
}

// ApplyDelta ingests an incremental announcement. It applies cleanly only
// when the receiver's cached state for the node is exactly the delta's base
// version (or the node is brand new in this epoch and the delta starts from
// version zero). It reports whether a full anti-entropy sync is needed:
// true on a version gap, an unknown node mid-history, or a fresh epoch that
// the delta alone cannot reconstruct.
func (d *Directory) ApplyDelta(dl *Delta, now time.Time) (needSync bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	prevEpoch, epochKnown := d.epochs[dl.Node]
	if epochKnown && dl.Epoch < prevEpoch {
		return false // stale incarnation
	}
	ver, verKnown := d.versions[dl.Node]
	baseline := epochKnown && verKnown && dl.Epoch == prevEpoch
	if !baseline {
		if dl.From != 0 {
			return true // joined mid-history: need the full set
		}
		// A node's first registrations (version 0 → N) are self-contained:
		// apply them as the complete offer. A fresh epoch resets any state
		// left from the previous incarnation.
		d.purgeNodeLocked(dl.Node)
	} else {
		if dl.To <= ver {
			// Duplicate or reordered old delta; current state is newer.
			d.loads[dl.Node] = dl.Load
			d.expiries[dl.Node] = now.Add(d.ttl)
			return false
		}
		if dl.From != ver {
			// Gap: a delta in between was lost. The node is alive and
			// its cached records are mostly right, so refresh their
			// freshness — the version skew is repaired by sync, not by
			// letting the cache rot and purging a live node.
			d.expiries[dl.Node] = now.Add(d.ttl)
			return true
		}
	}
	index := d.byNode[dl.Node]
	if index == nil {
		index = make(map[dirKey]struct{}, len(dl.Added))
		d.byNode[dl.Node] = index
	}
	for _, rec := range dl.Added {
		key := dirKey{kind: rec.Kind, name: rec.Name}
		nodeMap := d.entries[key]
		if nodeMap == nil {
			nodeMap = make(map[transport.NodeID]Record)
			d.entries[key] = nodeMap
		}
		nodeMap[dl.Node] = rec
		index[key] = struct{}{}
	}
	for _, k := range dl.Withdrawn {
		key := dirKey{kind: k.Kind, name: k.Name}
		d.unbindLocked(key, dl.Node)
		delete(index, key)
	}
	d.epochs[dl.Node] = dl.Epoch
	d.versions[dl.Node] = dl.To
	d.loads[dl.Node] = dl.Load
	d.expiries[dl.Node] = now.Add(d.ttl)
	return false
}

// ApplyDigest ingests a constant-size heartbeat. A matching digest
// refreshes the freshness deadline of every cached record of the node in
// O(1); a mismatch — unknown node with a non-empty offer, version gap, or
// fresh epoch — reports that a full sync is needed. The load figure is
// taken either way.
func (d *Directory) ApplyDigest(g *Digest, now time.Time) (needSync bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	prevEpoch, epochKnown := d.epochs[g.Node]
	if epochKnown && g.Epoch < prevEpoch {
		return false // stale incarnation
	}
	d.loads[g.Node] = g.Load
	ver, verKnown := d.versions[g.Node]
	if epochKnown && verKnown && g.Epoch == prevEpoch && g.Version == ver {
		d.expiries[g.Node] = now.Add(d.ttl)
		return false
	}
	if g.Version == 0 {
		// The node offers nothing (and never has in this epoch): there is
		// nothing to pull. Record the baseline so its first delta applies.
		d.purgeNodeLocked(g.Node)
		d.epochs[g.Node] = g.Epoch
		d.versions[g.Node] = 0
		d.expiries[g.Node] = now.Add(d.ttl)
		return false
	}
	// Version skew with a live node: keep whatever is cached fresh while
	// the sync repairs it — purging a live node's records over a lost
	// delta would thrash the whole plane under churn.
	if verKnown {
		d.expiries[g.Node] = now.Add(d.ttl)
	}
	return true
}

// TouchNode refreshes the freshness deadline of every record cached for
// node (the effect of a matching heartbeat digest).
func (d *Directory) TouchNode(node transport.NodeID, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expiries[node] = now.Add(d.ttl)
}

// NodeVersion reports the cached (epoch, record-log version) for node.
func (d *Directory) NodeVersion(node transport.NodeID) (epoch, version uint64, known bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	version, known = d.versions[node]
	return d.epochs[node], version, known
}

// NodeRecordCount reports how many records are cached for node (used to
// cross-check digests and in convergence tests).
func (d *Directory) NodeRecordCount(node transport.NodeID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.byNode[node])
}

// Record returns node's cached binding of (kind, name), if it offers one.
func (d *Directory) Record(kind Kind, name string, node transport.NodeID) (Record, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.entries[dirKey{kind: kind, name: name}][node]
	return rec, ok
}

// RemoveNode purges every binding of a failed or departed node (§3: "In
// case of service malfunctioning, it is also the container responsibility
// ... to clear and update their caches").
func (d *Directory) RemoveNode(node transport.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.loads, node)
	// Dropping the cached version forces a full sync if the node is heard
	// from again: the purged record set no longer matches any version.
	delete(d.versions, node)
	delete(d.expiries, node)
	d.purgeNodeLocked(node)
}

func (d *Directory) purgeNodeLocked(node transport.NodeID) {
	for key := range d.byNode[node] {
		d.unbindLocked(key, node)
	}
	delete(d.byNode, node)
}

// unbindLocked drops node's binding of key and reports whether the key had
// any. The key's last binding takes its round-robin cursor with it, so the
// cursors of names nobody offers any more do not pile up.
func (d *Directory) unbindLocked(key dirKey, node transport.NodeID) bool {
	nodeMap := d.entries[key]
	if nodeMap == nil {
		return false
	}
	delete(nodeMap, node)
	if len(nodeMap) == 0 {
		delete(d.entries, key)
		delete(d.rr, key)
	}
	return true
}

// Expire drops every record of nodes whose freshness deadline passed,
// returning those nodes (candidates for failure handling). The purged
// version forces a full sync if an expired node is heard from again.
func (d *Directory) Expire(now time.Time) []transport.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []transport.NodeID
	for node, deadline := range d.expiries {
		if now.After(deadline) {
			delete(d.expiries, node)
			delete(d.versions, node)
			d.purgeNodeLocked(node)
			out = append(out, node)
		}
	}
	slices.Sort(out)
	return out
}

// Lookup returns the live providers of (kind, name), sorted by node for
// determinism.
func (d *Directory) Lookup(kind Kind, name string) []Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	nodeMap := d.entries[dirKey{kind: kind, name: name}]
	out := make([]Record, 0, len(nodeMap))
	for _, rec := range nodeMap {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Names lists all known names of a kind, sorted.
func (d *Directory) Names(kind Kind) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for key, nodeMap := range d.entries {
		if key.kind == kind && len(nodeMap) > 0 {
			out = append(out, key.name)
		}
	}
	sort.Strings(out)
	return out
}

// Load returns the last announced load of a node (0 if unknown).
func (d *Directory) Load(node transport.NodeID) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.loads[node]
}

// Select picks one provider of (kind, name) according to the binding policy
// (§4.3): BindStatic keeps using pinned while alive, failing over only when
// it disappears; BindDynamic load-balances — round-robin across providers
// within ~10% load of the least loaded, so fresh load reports steer calls
// away from busy nodes without starving equal ones.
//
// It returns the chosen record; callers persist the returned node as the
// new pin for static binding.
func (d *Directory) Select(kind Kind, name string, binding qos.Binding, pinned transport.NodeID) (Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := dirKey{kind: kind, name: name}
	nodeMap := d.entries[key]
	if len(nodeMap) == 0 {
		return Record{}, fmt.Errorf("naming: %v %q: %w", kind, name, ErrNotFound)
	}
	if binding == qos.BindStatic && pinned != "" {
		if rec, alive := nodeMap[pinned]; alive {
			return rec, nil
		}
		// Fall through: redundancy failover even for static binding.
	}
	// Deterministic provider list, built in the directory's scratch slice
	// (d.mu is held until return).
	nodes := d.pick[:0]
	for node := range nodeMap {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	d.pick = nodes

	if binding == qos.BindStatic {
		// New pin: lowest node id for stability across containers.
		return nodeMap[nodes[0]], nil
	}

	// Dynamic: restrict to near-least-loaded, then round-robin.
	minLoad := d.loads[nodes[0]]
	for _, node := range nodes[1:] {
		if l := d.loads[node]; l < minLoad {
			minLoad = l
		}
	}
	candidates := nodes[:0]
	for _, node := range nodes {
		if d.loads[node] <= minLoad+0.1 {
			candidates = append(candidates, node)
		}
	}
	cursor := d.rr[key]
	d.rr[key] = cursor + 1
	chosen := candidates[cursor%uint64(len(candidates))]
	return nodeMap[chosen], nil
}

// ProviderCount reports the number of live providers for a name.
func (d *Directory) ProviderCount(kind Kind, name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries[dirKey{kind: kind, name: name}])
}
