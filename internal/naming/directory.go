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

// Directory is the per-container proxy cache of name bindings (§3) and the
// container's failure detector: §3 makes the container both cache the other
// containers' offers and clear that cache when one of them fails. It is fed
// by full announcements, incremental deltas and heartbeat digests, purges a
// peer silent past the failure deadline or gone with a goodbye, and is
// queried by the primitives to resolve names to provider nodes.
//
// Everything the directory holds of one node is one entry: the keys it
// offers, its epoch, record-log version and load, when it was last heard
// and when it was last asked for a sync. Every discovery message a node
// emits covers its whole offer (a digest vouches for all of it, a delta
// advances all of it), so one heard instant per node keeps all of its
// records, and a peer that falls silent goes with all of them at once.
//
// Every container caches every other container's offer, so the cache
// grows as nodes × records and a binding is kept small: a name's providers
// are ids into two tables of the directory (provider nodes, and the
// (Service, TypeSig, ArgSig) triples the records carry), with the first
// provider inline in the name's entry.
type Directory struct {
	deadline time.Duration

	mu      sync.Mutex
	entries map[dirKey]providers
	byNode  map[transport.NodeID]*nodeEntry
	rr      map[dirKey]uint64 // round-robin cursors of names with a provider
	nodes   idTable[transport.NodeID]
	sigs    idTable[signature]
	offered map[dirKey]struct{} // Apply's scratch set of announced keys
	pick    []provider          // Select's scratch candidate list
}

// nodeEntry is what the directory holds of one node. A purged node keeps
// its entry for its epoch alone, so a frame of an older incarnation is
// still rejected after the node failed or said goodbye.
type nodeEntry struct {
	keys    []dirKey // the node's offered keys, each once
	epoch   uint64
	version uint64 // record-log version of the cached offer
	load    float64
	heard   time.Time // the node's last frame; zero while it is not live
	syncAt  time.Time // the last sync request sent to it

	epochKnown, versionKnown bool
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

// DefaultFailureDeadline declares a peer failed after this much silence.
// It must exceed several heartbeat periods.
const DefaultFailureDeadline = 2 * time.Second

// ErrNotFound reports a name with no live provider — the condition §4.3
// says must trigger "the programmed emergency procedure".
var ErrNotFound = errors.New("no provider for name")

// NewDirectory builds a cache whose peers fail after deadline of silence
// (0 means DefaultFailureDeadline).
func NewDirectory(deadline time.Duration) *Directory {
	if deadline <= 0 {
		deadline = DefaultFailureDeadline
	}
	return &Directory{
		deadline: deadline,
		entries:  make(map[dirKey]providers),
		byNode:   make(map[transport.NodeID]*nodeEntry),
		rr:       make(map[dirKey]uint64),
	}
}

// nodeLocked returns node's entry, making an empty one for a node not yet
// known.
func (d *Directory) nodeLocked(node transport.NodeID) *nodeEntry {
	n := d.byNode[node]
	if n == nil {
		n = &nodeEntry{}
		d.byNode[node] = n
	}
	return n
}

// Apply ingests a full-state announcement: it refreshes the node's records,
// removes records the node no longer offers, rejects stale epochs, and
// records the announced log version. It reports whether anything changed;
// the first full state of a new incarnation is a change even when it
// repeats the previous incarnation's records.
func (d *Directory) Apply(a *Announcement) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodeLocked(a.Node)
	if a.Epoch < n.epoch {
		return false // stale incarnation
	}
	// Same-epoch versions are monotonic: a delayed sync snapshot or
	// re-broadcast from an older version must not roll back records
	// registered since (it would delete them until the next anti-entropy
	// round noticed).
	if a.Epoch == n.epoch && n.versionKnown && a.Version < n.version {
		return false
	}
	// AdmitEpoch drops the version of a node that restarted.
	changed := !n.versionKnown
	n.epoch, n.epochKnown = a.Epoch, true
	n.version, n.versionKnown = a.Version, true
	n.load = a.Load

	if d.offered == nil {
		d.offered = make(map[dirKey]struct{}, len(a.Records))
	}
	offered := d.offered
	for _, rec := range a.Records {
		key := dirKey{kind: rec.Kind, name: rec.Name}
		offered[key] = struct{}{}
		if _, ch := d.bindLocked(key, a.Node, rec); ch {
			changed = true
		}
	}
	// Drop records this node previously offered but no longer announces.
	// The per-node key list makes this O(node's records), not
	// O(directory).
	index := n.keys
	for _, key := range index {
		if _, still := offered[key]; still {
			continue
		}
		if d.unbindLocked(key, a.Node) {
			changed = true
		}
	}
	// The new list holds each announced key once, in the old list's
	// storage unless that is more than twice the size needed. Taking each
	// key out of offered as it is listed leaves the set empty for the
	// next call.
	k := len(offered)
	if k == 0 {
		n.keys = nil
		return changed
	}
	if cap(index) < k || cap(index) > 2*k {
		index = make([]dirKey, 0, k)
	}
	index = index[:0]
	for _, rec := range a.Records {
		key := dirKey{kind: rec.Kind, name: rec.Name}
		if _, first := offered[key]; first {
			delete(offered, key)
			index = append(index, key)
		}
	}
	n.keys = index
	return changed
}

// ApplyDelta ingests an incremental announcement. It applies cleanly only
// when the receiver's cached state for the node is exactly the delta's base
// version (or the node is brand new in this epoch and the delta starts from
// version zero). It reports whether a full anti-entropy sync is needed:
// true on a version gap, an unknown node mid-history, or a fresh epoch that
// the delta alone cannot reconstruct. A gap leaves the cached records
// standing: the node is alive and they are mostly right, and the version
// skew is repaired by sync.
func (d *Directory) ApplyDelta(dl *Delta) (needSync bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodeLocked(dl.Node)
	if dl.Epoch < n.epoch {
		return false // stale incarnation
	}
	if !n.versionKnown || dl.Epoch != n.epoch {
		if dl.From != 0 {
			return true // joined mid-history: need the full set
		}
		// A node's first registrations (version 0 → N) are self-contained:
		// apply them as the complete offer. A fresh epoch resets any state
		// left from the previous incarnation.
		d.unbindAllLocked(dl.Node, n)
	} else if dl.To <= n.version {
		// Duplicate or reordered old delta; current state is newer.
		n.load = dl.Load
		return false
	} else if dl.From != n.version {
		return true // gap: a delta in between was lost
	}
	for _, rec := range dl.Added {
		key := dirKey{kind: rec.Kind, name: rec.Name}
		if fresh, _ := d.bindLocked(key, dl.Node, rec); fresh {
			n.keys = append(n.keys, key)
		}
	}
	withdrawn := false
	for _, k := range dl.Withdrawn {
		if d.unbindLocked(dirKey{kind: k.Kind, name: k.Name}, dl.Node) {
			withdrawn = true
		}
	}
	if withdrawn {
		// One pass over the key list, however many keys went.
		n.keys = slices.DeleteFunc(n.keys, func(key dirKey) bool {
			_, i := d.bindingLocked(key, dl.Node)
			return i < 0
		})
		if len(n.keys) == 0 {
			n.keys = nil
		}
	}
	n.epoch, n.epochKnown = dl.Epoch, true
	n.version, n.versionKnown = dl.To, true
	n.load = dl.Load
	return false
}

// ApplyDigest ingests a constant-size heartbeat. A mismatch — unknown node
// with a non-empty offer, version gap, or fresh epoch — reports that a full
// sync is needed. The load figure is taken either way.
func (d *Directory) ApplyDigest(g *Digest) (needSync bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodeLocked(g.Node)
	if g.Epoch < n.epoch {
		return false // stale incarnation
	}
	n.load = g.Load
	if n.versionKnown && g.Epoch == n.epoch && g.Version == n.version {
		return false
	}
	if g.Version == 0 {
		// The node offers nothing (and never has in this epoch): there is
		// nothing to pull. Record the baseline so its first delta applies.
		d.unbindAllLocked(g.Node, n)
		n.epoch, n.epochKnown = g.Epoch, true
		n.version, n.versionKnown = 0, true
		return false
	}
	return true
}

// Heard marks node heard from at instant now: it is live, and fails once
// it stays silent past the deadline. Every discovery frame from a peer
// marks it, whatever the frame's epoch or fate.
func (d *Directory) Heard(node transport.NodeID, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodeLocked(node).heard = now
}

// AdmitEpoch takes the epoch of a frame from node, heard at now, before
// the frame is applied, and marks node heard. An epoch newer than the
// cached one is a new incarnation: it is recorded at once, and the cached
// version dropped, so the node's records sync afresh and a later frame of
// the same incarnation is not news. It reports whether the incarnation
// replaced was live (not purged as failed or departed): the node restarted
// before anyone declared it gone.
func (d *Directory) AdmitEpoch(node transport.NodeID, epoch uint64, now time.Time) (restarted bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodeLocked(node)
	if n.epochKnown && epoch > n.epoch {
		n.epoch = epoch
		n.version, n.versionKnown = 0, false
		restarted = !n.heard.IsZero()
	}
	n.heard = now
	return restarted
}

// SyncDue reports whether a sync request to node may go at now — none went
// within every — and if so records one sent. The record goes with the
// rest of the node's entry when the node is purged.
func (d *Directory) SyncDue(node transport.NodeID, now time.Time, every time.Duration) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodeLocked(node)
	if !n.syncAt.IsZero() && now.Sub(n.syncAt) < every {
		return false
	}
	n.syncAt = now
	return true
}

// NodeVersion reports the cached (epoch, record-log version) for node.
func (d *Directory) NodeVersion(node transport.NodeID) (epoch, version uint64, known bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := d.byNode[node]; n != nil {
		return n.epoch, n.version, n.versionKnown
	}
	return 0, 0, false
}

// NodeRecordCount reports how many records are cached for node (used to
// cross-check digests and in convergence tests).
func (d *Directory) NodeRecordCount(node transport.NodeID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := d.byNode[node]; n != nil {
		return len(n.keys)
	}
	return 0
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
	if n := d.byNode[node]; n != nil {
		d.purgeLocked(node, n)
	}
}

// Sweep purges every peer silent past the deadline and returns them,
// sorted, each once: a purged peer is live again only when it is heard
// from again. A node never heard from — the directory's own node, whose
// offer its container applies directly — never expires.
func (d *Directory) Sweep(now time.Time) []transport.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var failed []transport.NodeID
	for node, n := range d.byNode {
		if !n.heard.IsZero() && now.Sub(n.heard) > d.deadline {
			d.purgeLocked(node, n)
			failed = append(failed, node)
		}
	}
	slices.Sort(failed)
	return failed
}

// Peers lists the live peers — heard from and not purged since — sorted.
func (d *Directory) Peers() []transport.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []transport.NodeID
	for node, n := range d.byNode {
		if !n.heard.IsZero() {
			out = append(out, node)
		}
	}
	slices.Sort(out)
	return out
}

// purgeLocked forgets all of node but its epoch. The dropped version
// forces a full sync if the node is heard from again: the purged record
// set no longer matches any version. A node whose epoch was never known
// leaves nothing behind.
func (d *Directory) purgeLocked(node transport.NodeID, n *nodeEntry) {
	d.unbindAllLocked(node, n)
	if !n.epochKnown {
		delete(d.byNode, node)
		return
	}
	*n = nodeEntry{epoch: n.epoch, epochKnown: true}
}

// unbindAllLocked drops every binding node offers.
func (d *Directory) unbindAllLocked(node transport.NodeID, n *nodeEntry) {
	for _, key := range n.keys {
		d.unbindLocked(key, node)
	}
	n.keys = nil
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
	return d.loadLocked(node)
}

func (d *Directory) loadLocked(node transport.NodeID) float64 {
	if n := d.byNode[node]; n != nil {
		return n.load
	}
	return 0
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
	minLoad := d.loadLocked(d.nodes.val(ps.first.node))
	for i := 1; i < ps.len(); i++ {
		if l := d.loadLocked(d.nodes.val(ps.at(i).node)); l < minLoad {
			minLoad = l
		}
	}
	candidates := d.pick[:0]
	for i := 0; i < ps.len(); i++ {
		if p := *ps.at(i); d.loadLocked(d.nodes.val(p.node)) <= minLoad+0.1 {
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
