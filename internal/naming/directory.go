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
//
// Every container caches every other container's offer, so the cache
// grows as nodes × records and a binding is kept small: a name's providers
// are ids into two tables of the directory (provider nodes, and the
// (Service, TypeSig, ArgSig) triples the records carry), with the first
// provider inline in the name's entry.
type Directory struct {
	ttl time.Duration

	mu       sync.Mutex
	entries  map[dirKey]providers
	byNode   map[transport.NodeID][]dirKey // per-node key index
	epochs   map[transport.NodeID]uint64
	versions map[transport.NodeID]uint64    // record-log version per node
	expiries map[transport.NodeID]time.Time // per-node freshness deadline
	loads    map[transport.NodeID]float64
	rr       map[dirKey]uint64 // round-robin cursors of names with a provider
	nodes    idTable[transport.NodeID]
	sigs     idTable[signature]
	offered  map[dirKey]struct{} // Apply's scratch set of announced keys
	pick     []provider          // Select's scratch candidate list
}

type dirKey struct {
	kind Kind
	name string
}

// signature is what a record carries beyond its key and provider node.
type signature struct {
	service, typeSig, argSig string
}

// provider is one node's binding of a name, as ids in the directory's
// node and signature tables.
type provider struct {
	node, sig uint32
}

// providers are the bindings of one name, sorted by node; an entry exists
// only while it holds at least one. Most names have a single provider:
// first holds it inline, and only a name with more allocates the list
// behind more, which keeps an entry's value at 16 bytes.
type providers struct {
	first provider
	more  *[]provider
}

func (ps *providers) len() int {
	if ps.more == nil {
		return 1
	}
	return 1 + len(*ps.more)
}

func (ps *providers) at(i int) *provider {
	if i == 0 {
		return &ps.first
	}
	return &(*ps.more)[i-1]
}

// index reports where node's binding sits, or -1.
func (ps *providers) index(node uint32) int {
	for i := 0; i < ps.len(); i++ {
		if ps.at(i).node == node {
			return i
		}
	}
	return -1
}

func (ps *providers) insert(i int, p provider) {
	if i == 0 {
		p, ps.first = ps.first, p
		i = 1
	}
	if ps.more == nil {
		ps.more = new([]provider)
	}
	*ps.more = slices.Insert(*ps.more, i-1, p)
}

// remove drops the binding at i and reports whether none is left.
func (ps *providers) remove(i int) (empty bool) {
	if ps.more == nil {
		return true
	}
	if i == 0 {
		ps.first = (*ps.more)[0]
		i = 1
	}
	if *ps.more = slices.Delete(*ps.more, i-1, i); len(*ps.more) == 0 {
		ps.more = nil
	}
	return false
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
		entries:  make(map[dirKey]providers),
		byNode:   make(map[transport.NodeID][]dirKey),
		epochs:   make(map[transport.NodeID]uint64),
		versions: make(map[transport.NodeID]uint64),
		expiries: make(map[transport.NodeID]time.Time),
		loads:    make(map[transport.NodeID]float64),
		rr:       make(map[dirKey]uint64),
	}
}

// Apply ingests a full-state announcement: it refreshes the node's records,
// removes records the node no longer offers, rejects stale epochs, and
// records the announced log version. It reports whether anything changed;
// the first full state of a new incarnation is a change even when it
// repeats the previous incarnation's records.
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
	// AdmitEpoch drops the version of a node that restarted.
	_, versionKnown := d.versions[a.Node]
	d.epochs[a.Node] = a.Epoch
	d.versions[a.Node] = a.Version
	d.loads[a.Node] = a.Load
	d.expiries[a.Node] = now.Add(d.ttl)

	if d.offered == nil {
		d.offered = make(map[dirKey]struct{}, len(a.Records))
	}
	offered := d.offered
	changed := !versionKnown
	for _, rec := range a.Records {
		key := dirKey{kind: rec.Kind, name: rec.Name}
		offered[key] = struct{}{}
		if _, ch := d.bindLocked(key, a.Node, rec); ch {
			changed = true
		}
	}
	// Drop records this node previously offered but no longer announces.
	// The per-node index makes this O(node's records), not O(directory).
	index := d.byNode[a.Node]
	for _, key := range index {
		if _, still := offered[key]; still {
			continue
		}
		if d.unbindLocked(key, a.Node) {
			changed = true
		}
	}
	// The new index lists each announced key once, in the old index's
	// storage unless that is more than twice the size needed. Taking each
	// key out of offered as it is listed leaves the set empty for the
	// next call.
	n := len(offered)
	if n == 0 {
		delete(d.byNode, a.Node)
		return changed
	}
	if cap(index) < n || cap(index) > 2*n {
		index = make([]dirKey, 0, n)
	}
	index = index[:0]
	for _, rec := range a.Records {
		key := dirKey{kind: rec.Kind, name: rec.Name}
		if _, first := offered[key]; first {
			delete(offered, key)
			index = append(index, key)
		}
	}
	d.byNode[a.Node] = index
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
	for _, rec := range dl.Added {
		key := dirKey{kind: rec.Kind, name: rec.Name}
		if fresh, _ := d.bindLocked(key, dl.Node, rec); fresh {
			index = append(index, key)
		}
	}
	withdrawn := false
	for _, k := range dl.Withdrawn {
		if d.unbindLocked(dirKey{kind: k.Kind, name: k.Name}, dl.Node) {
			withdrawn = true
		}
	}
	if withdrawn {
		// One pass over the index, however many keys went.
		index = slices.DeleteFunc(index, func(key dirKey) bool {
			_, i := d.bindingLocked(key, dl.Node)
			return i < 0
		})
	}
	if len(index) > 0 {
		d.byNode[dl.Node] = index
	} else {
		delete(d.byNode, dl.Node)
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

// AdmitEpoch takes the epoch of a frame from node before the frame is
// applied. An epoch newer than the cached one is a new incarnation: it is
// recorded at once, and the cached version dropped, so the node's records
// sync afresh and a later frame of the same incarnation is not news. It
// reports whether the incarnation replaced was live (not purged as failed
// or departed): the node restarted before anyone declared it gone.
func (d *Directory) AdmitEpoch(node transport.NodeID, epoch uint64) (restarted bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, known := d.epochs[node]; !known || epoch <= prev {
		return false
	}
	d.epochs[node] = epoch
	delete(d.versions, node)
	_, live := d.expiries[node]
	return live
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
	key := dirKey{kind: kind, name: name}
	ps, i := d.bindingLocked(key, node)
	if i < 0 {
		return Record{}, false
	}
	return d.recordLocked(key, *ps.at(i)), true
}

// recordLocked rebuilds the Record a provider binds under key.
func (d *Directory) recordLocked(key dirKey, p provider) Record {
	sig := d.sigs.val(p.sig)
	return Record{
		Kind:    key.kind,
		Name:    key.name,
		Service: sig.service,
		Node:    d.nodes.val(p.node),
		TypeSig: sig.typeSig,
		ArgSig:  sig.argSig,
	}
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
	for _, key := range d.byNode[node] {
		d.unbindLocked(key, node)
	}
	delete(d.byNode, node)
}

// bindLocked binds rec as node's provider of key. It reports whether the
// binding is new (fresh) and whether it is new or differs from the one it
// replaces (changed).
func (d *Directory) bindLocked(key dirKey, node transport.NodeID, rec Record) (fresh, changed bool) {
	sig := signature{service: rec.Service, typeSig: rec.TypeSig, argSig: rec.ArgSig}
	ps, ok := d.entries[key]
	if !ok {
		d.entries[key] = providers{first: provider{node: d.nodes.ref(node), sig: d.sigs.ref(sig)}}
		return true, true
	}
	if id, known := d.nodes.id(node); known {
		if i := ps.index(id); i >= 0 {
			p := ps.at(i)
			if d.sigs.val(p.sig) == sig {
				return false, false
			}
			old := p.sig
			p.sig = d.sigs.ref(sig)
			d.sigs.unref(old)
			d.entries[key] = ps
			return false, true
		}
	}
	i := 0
	for i < ps.len() && d.nodes.val(ps.at(i).node) < node {
		i++
	}
	ps.insert(i, provider{node: d.nodes.ref(node), sig: d.sigs.ref(sig)})
	d.entries[key] = ps
	return true, true
}

// bindingLocked finds node's binding of key: the name's providers and the
// binding's position among them, or -1 when node does not provide key.
func (d *Directory) bindingLocked(key dirKey, node transport.NodeID) (providers, int) {
	ps, ok := d.entries[key]
	if !ok {
		return ps, -1
	}
	id, ok := d.nodes.id(node)
	if !ok {
		return ps, -1
	}
	return ps, ps.index(id)
}

// unbindLocked drops node's binding of key and reports whether it had
// one. The key's last binding takes its round-robin cursor with it, so the
// cursors of names nobody offers any more do not pile up.
func (d *Directory) unbindLocked(key dirKey, node transport.NodeID) bool {
	ps, i := d.bindingLocked(key, node)
	if i < 0 {
		return false
	}
	p := ps.at(i)
	d.sigs.unref(p.sig)
	d.nodes.unref(p.node)
	if ps.remove(i) {
		delete(d.entries, key)
		delete(d.rr, key)
	} else {
		d.entries[key] = ps
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
	key := dirKey{kind: kind, name: name}
	ps, ok := d.entries[key]
	if !ok {
		return []Record{}
	}
	out := make([]Record, 0, ps.len())
	for i := 0; i < ps.len(); i++ {
		out = append(out, d.recordLocked(key, *ps.at(i)))
	}
	return out
}

// Names lists all known names of a kind, sorted.
func (d *Directory) Names(kind Kind) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for key := range d.entries {
		if key.kind == kind {
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
	ps, ok := d.entries[key]
	if !ok {
		return Record{}, fmt.Errorf("naming: %v %q: %w", kind, name, ErrNotFound)
	}
	if binding == qos.BindStatic && pinned != "" {
		if _, i := d.bindingLocked(key, pinned); i >= 0 {
			return d.recordLocked(key, *ps.at(i)), nil
		}
		// Fall through: redundancy failover even for static binding.
	}
	if binding == qos.BindStatic {
		// New pin: lowest node id for stability across containers.
		return d.recordLocked(key, ps.first), nil
	}

	// Dynamic: restrict to near-least-loaded, then round-robin over the
	// providers in node order, listed in the directory's scratch slice
	// (d.mu is held until return).
	minLoad := d.loads[d.nodes.val(ps.first.node)]
	for i := 1; i < ps.len(); i++ {
		if l := d.loads[d.nodes.val(ps.at(i).node)]; l < minLoad {
			minLoad = l
		}
	}
	candidates := d.pick[:0]
	for i := 0; i < ps.len(); i++ {
		if p := *ps.at(i); d.loads[d.nodes.val(p.node)] <= minLoad+0.1 {
			candidates = append(candidates, p)
		}
	}
	d.pick = candidates
	cursor := d.rr[key]
	d.rr[key] = cursor + 1
	return d.recordLocked(key, candidates[cursor%uint64(len(candidates))]), nil
}

// ProviderCount reports the number of live providers for a name.
func (d *Directory) ProviderCount(kind Kind, name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	ps, ok := d.entries[dirKey{kind: kind, name: name}]
	if !ok {
		return 0
	}
	return ps.len()
}
