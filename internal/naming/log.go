package naming

import (
	"cmp"
	"slices"
	"sync"
)

// Log is a node's versioned view of its own resource offer. Every
// registration or withdrawal bumps the version; the diff between two
// consecutive versions is exactly one Delta. The version travels in every
// discovery message (delta, heartbeat digest, full sync), so receivers can
// tell a view that is current from one that needs anti-entropy repair.
type Log struct {
	mu      sync.Mutex
	version uint64
	records map[RecordKey]Record
	// history is a ring of recent changes indexed by version % depth, so
	// an anti-entropy request from a slightly stale peer can be answered
	// with a compact catch-up delta instead of the full catalog.
	// It grows by doubling, from logHistoryStart slots to logHistoryDepth,
	// as changes arrive: until the first wrap a change's slot is its
	// version, so a node that offers nothing holds no ring and one that
	// changed a few times a small one.
	history []logChange
}

// logChange is one version's change: the keys it added or replaced and
// the keys it withdrew. The records themselves live once, in the live
// map: a key the window leaves present is answered from there.
type logChange struct {
	to        uint64 // version this change produced
	added     []RecordKey
	withdrawn []RecordKey
}

// logHistoryDepth bounds the catch-up window: peers more than this many
// versions behind fall back to a full snapshot sync.
const logHistoryDepth = 256

// logHistoryStart is the ring's size at a log's first change.
const logHistoryStart = 8

// NewLog builds an empty log at version zero.
func NewLog() *Log {
	return &Log{records: make(map[RecordKey]Record)}
}

// Update replaces the offer with recs and, if anything changed, bumps the
// version and returns the delta (from → to, added, withdrawn). When the
// offer is unchanged it returns changed == false and the current version
// in both from and to. Duplicate keys in recs collapse (last wins),
// matching Directory semantics.
func (l *Log) Update(recs []Record) (added []Record, withdrawn []RecordKey, from, to uint64, changed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := make(map[RecordKey]Record, len(recs))
	for _, rec := range recs {
		next[rec.Key()] = rec
	}
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
		return nil, nil, l.version, l.version, false
	}
	from = l.version
	l.version++
	l.records = next
	slot := l.version % logHistoryDepth
	if slot >= uint64(len(l.history)) {
		grown := make([]logChange, max(logHistoryStart, 2*len(l.history)))
		copy(grown, l.history)
		l.history = grown
	}
	keys := make([]RecordKey, len(added))
	for i, rec := range added {
		keys[i] = rec.Key()
	}
	l.history[slot] = logChange{
		to: l.version, added: keys, withdrawn: withdrawn,
	}
	return added, withdrawn, from, l.version, true
}

// DeltaSince coalesces every change after version since into one catch-up
// delta (From: since, To: current). It reports ok == false when since is
// outside the retained history (or ahead of the log), in which case the
// caller must fall back to a full snapshot. A peer already at the current
// version yields ok == true with a nil delta: nothing to send.
func (l *Log) DeltaSince(since uint64) (added []Record, withdrawn []RecordKey, to uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if since > l.version {
		return nil, nil, 0, false
	}
	if since == l.version {
		return nil, nil, l.version, true
	}
	if l.version-since > logHistoryDepth {
		return nil, nil, 0, false
	}
	// Replay the window into a net-change overlay: the requester held our
	// exact state at `since`, so last-wins per key reconstructs the diff.
	// The window runs to the current version, so a key its last change
	// left present holds its latest record in the live map.
	overlay := make(map[RecordKey]bool)
	for v := since + 1; v <= l.version; v++ {
		entry := l.history[v%logHistoryDepth]
		if entry.to != v {
			return nil, nil, 0, false // overwritten by a newer wrap
		}
		for _, key := range entry.added {
			overlay[key] = true
		}
		for _, key := range entry.withdrawn {
			overlay[key] = false
		}
	}
	for key, present := range overlay {
		if present {
			added = append(added, l.records[key])
		} else {
			withdrawn = append(withdrawn, key)
		}
	}
	return added, withdrawn, l.version, true
}

// Snapshot returns the current records, sorted by key (kind, then name),
// and version, consistently: two logs holding the same records give the
// same snapshot, whatever order the records were added in.
func (l *Log) Snapshot() ([]Record, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.records))
	for _, rec := range l.records {
		out = append(out, rec)
	}
	slices.SortFunc(out, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Name, b.Name))
	})
	return out, l.version
}

// Version returns the current log version.
func (l *Log) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// Count returns the current offer size.
func (l *Log) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}
