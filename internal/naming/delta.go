package naming

import (
	"fmt"

	"uavmw/internal/encoding"
	"uavmw/internal/transport"
)

// This file defines the incremental discovery wire formats. The old
// protocol rebroadcast every node's complete record set each announce
// period — O(total records) wire bytes per beacon. The incremental plane
// splits that into three messages:
//
//   - Delta (MTAnnounceDelta): multicast the moment a registration changes,
//     carrying only the records added/withdrawn between two log versions;
//   - Digest (MTHeartbeat): the constant-size periodic beacon — node,
//     epoch, version, load, record count — O(nodes) steady-state cost;
//   - SyncRequest (MTSyncReq): sent unicast when a receiver detects a
//     version gap, an unknown node, or a fresh epoch. The node answers
//     over ARQ with a catch-up Delta, or with its full Announcement
//     (MTAnnounce), which the container fragments like any frame larger
//     than a datagram.

// RecordKey identifies a record within one node's offer (withdrawals need
// only the key, not the full record).
type RecordKey struct {
	// Kind of resource.
	Kind Kind
	// Name is the global resource name.
	Name string
}

// Key returns the record's identity within its node's offer.
func (r Record) Key() RecordKey { return RecordKey{Kind: r.Kind, Name: r.Name} }

// Delta is an incremental announcement: the offer changes that took the
// node's record log from version From to version To. A receiver may apply
// it only when its cached version equals From (or the node is brand new
// and From is zero); otherwise it must request a full sync.
type Delta struct {
	// Node is the announcing container.
	Node transport.NodeID
	// Epoch is the container incarnation.
	Epoch uint64
	// From is the log version this delta applies on top of.
	From uint64
	// To is the log version after applying it (always > From).
	To uint64
	// Load is the announcer's current load figure.
	Load float64
	// Added lists records offered since From.
	Added []Record
	// Withdrawn lists record keys no longer offered.
	Withdrawn []RecordKey
}

// Digest is the constant-size periodic heartbeat: enough for receivers to
// confirm liveness, steer load-aware binding, and detect that their cached
// view of the node is stale.
type Digest struct {
	// Node is the beaconing container.
	Node transport.NodeID
	// Epoch is the container incarnation.
	Epoch uint64
	// Version is the node's current record-log version.
	Version uint64
	// Load is the current load figure.
	Load float64
	// RecordCount is the current offer size (diagnostics; a receiver whose
	// version matches must hold exactly this many records for the node).
	RecordCount uint32
}

// SyncRequest asks a node for its records. The requester's cached state
// tells the node whether a catch-up delta can answer it.
type SyncRequest struct {
	// KnownEpoch is the requester's cached epoch for the target (0 = none).
	KnownEpoch uint64
	// KnownVersion is the requester's cached log version (0 = none).
	KnownVersion uint64
}

// Wire format versions (independent of the frame-level version).
const (
	deltaWireVersion   = 1
	digestWireVersion  = 1
	syncReqWireVersion = 1
)

// maxDeltaRecords bounds decode allocations for a hostile or corrupt
// delta.
const maxDeltaRecords = 1 << 16

// EncodeDelta serializes d.
func EncodeDelta(d *Delta) ([]byte, error) {
	if d.Node == "" {
		return nil, fmt.Errorf("naming: delta empty node: %w", ErrBadAnnouncement)
	}
	if d.To <= d.From {
		return nil, fmt.Errorf("naming: delta versions %d..%d: %w", d.From, d.To, ErrBadAnnouncement)
	}
	w := encoding.NewWriter(64 + 48*(len(d.Added)+len(d.Withdrawn)))
	w.Uint8(deltaWireVersion)
	w.String(string(d.Node))
	w.Uint64(d.Epoch)
	w.Uint64(d.From)
	w.Uint64(d.To)
	w.Float64(d.Load)
	w.Uint32(uint32(len(d.Added)))
	for i, rec := range d.Added {
		if err := encodeRecord(w, rec); err != nil {
			return nil, fmt.Errorf("naming: delta add %d: %w", i, err)
		}
	}
	w.Uint32(uint32(len(d.Withdrawn)))
	for i, key := range d.Withdrawn {
		if !key.Kind.Valid() || key.Name == "" {
			return nil, fmt.Errorf("naming: delta withdraw %d: %w", i, ErrBadAnnouncement)
		}
		w.Uint8(uint8(key.Kind))
		w.String(key.Name)
	}
	return w.Bytes(), nil
}

// DecodeDelta parses data. Added records carry the delta's node.
func DecodeDelta(data []byte) (*Delta, error) {
	r := encoding.NewReader(data)
	if v := r.Uint8(); v != deltaWireVersion {
		return nil, fmt.Errorf("naming: delta version %d: %w", v, ErrBadAnnouncement)
	}
	d := &Delta{}
	d.Node = transport.NodeID(r.String())
	d.Epoch = r.Uint64()
	d.From = r.Uint64()
	d.To = r.Uint64()
	d.Load = r.Float64()
	nAdd := int(r.Uint32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("naming: delta header: %w", err)
	}
	if d.Node == "" || d.To <= d.From {
		return nil, fmt.Errorf("naming: delta header: %w", ErrBadAnnouncement)
	}
	if nAdd > maxDeltaRecords {
		return nil, fmt.Errorf("naming: delta %d adds: %w", nAdd, ErrBadAnnouncement)
	}
	d.Added = make([]Record, 0, nAdd)
	for i := 0; i < nAdd; i++ {
		rec, err := decodeRecord(r, d.Node)
		if err != nil {
			return nil, fmt.Errorf("naming: delta add %d: %w", i, err)
		}
		d.Added = append(d.Added, rec)
	}
	nDel := int(r.Uint32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("naming: delta: %w", err)
	}
	if nDel > maxDeltaRecords {
		return nil, fmt.Errorf("naming: delta %d withdrawals: %w", nDel, ErrBadAnnouncement)
	}
	d.Withdrawn = make([]RecordKey, 0, nDel)
	for i := 0; i < nDel; i++ {
		key := RecordKey{Kind: Kind(r.Uint8()), Name: r.String()}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("naming: delta withdraw %d: %w", i, err)
		}
		if !key.Kind.Valid() || key.Name == "" {
			return nil, fmt.Errorf("naming: delta withdraw %d: %w", i, ErrBadAnnouncement)
		}
		d.Withdrawn = append(d.Withdrawn, key)
	}
	if err := r.ExpectEOF(); err != nil {
		return nil, fmt.Errorf("naming: delta: %w", err)
	}
	return d, nil
}

// EncodeDigest serializes g. The result is constant-size apart from the
// node id string.
func EncodeDigest(g *Digest) ([]byte, error) {
	if g.Node == "" {
		return nil, fmt.Errorf("naming: digest empty node: %w", ErrBadAnnouncement)
	}
	w := encoding.NewWriter(48 + len(g.Node))
	w.Uint8(digestWireVersion)
	w.String(string(g.Node))
	w.Uint64(g.Epoch)
	w.Uint64(g.Version)
	w.Float64(g.Load)
	w.Uint32(g.RecordCount)
	return w.Bytes(), nil
}

// DecodeDigest parses data.
func DecodeDigest(data []byte) (*Digest, error) {
	r := encoding.NewReader(data)
	if v := r.Uint8(); v != digestWireVersion {
		return nil, fmt.Errorf("naming: digest version %d: %w", v, ErrBadAnnouncement)
	}
	g := &Digest{}
	g.Node = transport.NodeID(r.String())
	g.Epoch = r.Uint64()
	g.Version = r.Uint64()
	g.Load = r.Float64()
	g.RecordCount = r.Uint32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("naming: digest: %w", err)
	}
	if g.Node == "" {
		return nil, fmt.Errorf("naming: digest empty node: %w", ErrBadAnnouncement)
	}
	if err := r.ExpectEOF(); err != nil {
		return nil, fmt.Errorf("naming: digest: %w", err)
	}
	return g, nil
}

// EncodeSyncRequest serializes q.
func EncodeSyncRequest(q *SyncRequest) []byte {
	w := encoding.NewWriter(24)
	w.Uint8(syncReqWireVersion)
	w.Uint64(q.KnownEpoch)
	w.Uint64(q.KnownVersion)
	return w.Bytes()
}

// DecodeSyncRequest parses data.
func DecodeSyncRequest(data []byte) (*SyncRequest, error) {
	r := encoding.NewReader(data)
	if v := r.Uint8(); v != syncReqWireVersion {
		return nil, fmt.Errorf("naming: sync-req version %d: %w", v, ErrBadAnnouncement)
	}
	q := &SyncRequest{KnownEpoch: r.Uint64(), KnownVersion: r.Uint64()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("naming: sync-req: %w", err)
	}
	return q, nil
}
