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
//   - SyncChunk (MTSyncRep): one MTU-bounded chunk of a full record set,
//     sent unicast over ARQ in answer to MTSyncReq when a receiver detects
//     a version gap, an unknown node, or a fresh epoch.

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
// confirm liveness, refresh TTLs, steer load-aware binding, and detect
// that their cached view of the node is stale.
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

// SyncRequest asks a node for its full record set. The requester's cached
// state rides along for diagnostics and future delta-serving.
type SyncRequest struct {
	// KnownEpoch is the requester's cached epoch for the target (0 = none).
	KnownEpoch uint64
	// KnownVersion is the requester's cached log version (0 = none).
	KnownVersion uint64
}

// SyncChunk is one piece of a full-state reply. Chunks are sized under the
// MTU by the sender so each rides in a single datagram even over ARQ; the
// receiver assembles all Count chunks of one (node, epoch, version) before
// applying them atomically.
type SyncChunk struct {
	// Node is the replying container.
	Node transport.NodeID
	// Epoch is the container incarnation.
	Epoch uint64
	// Version is the log version this snapshot corresponds to.
	Version uint64
	// Load is the replier's load figure.
	Load float64
	// Index is this chunk's position in [0, Count).
	Index uint32
	// Count is the total chunk count of the snapshot (>= 1).
	Count uint32
	// Records is this chunk's slice of the full record set.
	Records []Record
}

// Wire format versions (independent of the frame-level version).
const (
	deltaWireVersion  = 1
	digestWireVersion = 1
	syncWireVersion   = 1
)

// maxDeltaRecords bounds decode allocations for a hostile or corrupt
// delta/chunk.
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
	w.Uint8(syncWireVersion)
	w.Uint64(q.KnownEpoch)
	w.Uint64(q.KnownVersion)
	return w.Bytes()
}

// DecodeSyncRequest parses data.
func DecodeSyncRequest(data []byte) (*SyncRequest, error) {
	r := encoding.NewReader(data)
	if v := r.Uint8(); v != syncWireVersion {
		return nil, fmt.Errorf("naming: sync-req version %d: %w", v, ErrBadAnnouncement)
	}
	q := &SyncRequest{KnownEpoch: r.Uint64(), KnownVersion: r.Uint64()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("naming: sync-req: %w", err)
	}
	return q, nil
}

// syncChunkHeaderSize bounds the per-chunk header: version byte, node
// string, epoch, version, load, index, count, record count.
func syncChunkHeaderSize(node transport.NodeID) int {
	return 1 + 4 + len(node) + 8 + 8 + 8 + 4 + 4 + 4
}

// EncodeSyncChunks splits a full offer into MTU-bounded chunk payloads.
// maxBytes bounds each encoded chunk payload; a single record larger than
// the budget still gets its own chunk (the frame layer fragments it).
// At least one chunk is always produced, so an empty offer syncs too.
func EncodeSyncChunks(a *Announcement, maxBytes int) ([][]byte, error) {
	if a.Node == "" {
		return nil, fmt.Errorf("naming: sync empty node: %w", ErrBadAnnouncement)
	}
	if maxBytes <= 0 {
		maxBytes = 1200
	}
	budget := maxBytes - syncChunkHeaderSize(a.Node)
	if budget < 1 {
		budget = 1
	}
	// Pass 1: group records into chunks by encoded size.
	var groups [][]Record
	var cur []Record
	used := 0
	for _, rec := range a.Records {
		sz := encodedRecordSize(rec)
		if len(cur) > 0 && used+sz > budget {
			groups = append(groups, cur)
			cur, used = nil, 0
		}
		cur = append(cur, rec)
		used += sz
	}
	if len(cur) > 0 || len(groups) == 0 {
		groups = append(groups, cur)
	}
	// Pass 2: encode with the final count stamped into every chunk.
	out := make([][]byte, 0, len(groups))
	for idx, recs := range groups {
		chunk, err := encodeSyncChunk(&SyncChunk{
			Node: a.Node, Epoch: a.Epoch, Version: a.Version, Load: a.Load,
			Index: uint32(idx), Count: uint32(len(groups)), Records: recs,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, chunk)
	}
	return out, nil
}

// encodeSyncChunk serializes one chunk.
func encodeSyncChunk(c *SyncChunk) ([]byte, error) {
	w := encoding.NewWriter(syncChunkHeaderSize(c.Node) + 48*len(c.Records))
	w.Uint8(syncWireVersion)
	w.String(string(c.Node))
	w.Uint64(c.Epoch)
	w.Uint64(c.Version)
	w.Float64(c.Load)
	w.Uint32(c.Index)
	w.Uint32(c.Count)
	w.Uint32(uint32(len(c.Records)))
	for i, rec := range c.Records {
		if err := encodeRecord(w, rec); err != nil {
			return nil, fmt.Errorf("naming: sync chunk %d record %d: %w", c.Index, i, err)
		}
	}
	return w.Bytes(), nil
}

// DecodeSyncChunk parses one chunk payload.
func DecodeSyncChunk(data []byte) (*SyncChunk, error) {
	r := encoding.NewReader(data)
	if v := r.Uint8(); v != syncWireVersion {
		return nil, fmt.Errorf("naming: sync version %d: %w", v, ErrBadAnnouncement)
	}
	c := &SyncChunk{}
	c.Node = transport.NodeID(r.String())
	c.Epoch = r.Uint64()
	c.Version = r.Uint64()
	c.Load = r.Float64()
	c.Index = r.Uint32()
	c.Count = r.Uint32()
	n := int(r.Uint32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("naming: sync header: %w", err)
	}
	if c.Node == "" || c.Count == 0 || c.Index >= c.Count {
		return nil, fmt.Errorf("naming: sync chunk %d/%d: %w", c.Index, c.Count, ErrBadAnnouncement)
	}
	if n > maxDeltaRecords {
		return nil, fmt.Errorf("naming: sync %d records: %w", n, ErrBadAnnouncement)
	}
	c.Records = make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec, err := decodeRecord(r, c.Node)
		if err != nil {
			return nil, fmt.Errorf("naming: sync record %d: %w", i, err)
		}
		c.Records = append(c.Records, rec)
	}
	if err := r.ExpectEOF(); err != nil {
		return nil, fmt.Errorf("naming: sync: %w", err)
	}
	return c, nil
}

// SyncAssembler collects sync chunks per node and yields the complete
// announcement once every chunk of one (epoch, version) snapshot has
// arrived. A chunk from a newer snapshot discards a half-assembled older
// one; chunks from an older snapshot are dropped.
type SyncAssembler struct {
	pending map[transport.NodeID]*syncAssembly
}

type syncAssembly struct {
	epoch   uint64
	version uint64
	load    float64
	count   uint32
	got     map[uint32][]Record
}

// NewSyncAssembler builds an empty assembler. It is not goroutine-safe;
// callers serialize Offer (the container's discovery path does).
func NewSyncAssembler() *SyncAssembler {
	return &SyncAssembler{pending: make(map[transport.NodeID]*syncAssembly)}
}

// Offer ingests one chunk; when it completes a snapshot the assembled
// announcement is returned and the node's pending state cleared.
func (s *SyncAssembler) Offer(c *SyncChunk) *Announcement {
	asm := s.pending[c.Node]
	if asm != nil {
		if c.Epoch < asm.epoch || (c.Epoch == asm.epoch && c.Version < asm.version) {
			return nil // stale snapshot
		}
		if c.Epoch != asm.epoch || c.Version != asm.version || c.Count != asm.count {
			asm = nil // newer snapshot supersedes the half-built one
		}
	}
	if asm == nil {
		asm = &syncAssembly{
			epoch: c.Epoch, version: c.Version, load: c.Load,
			count: c.Count, got: make(map[uint32][]Record),
		}
		s.pending[c.Node] = asm
	}
	asm.got[c.Index] = c.Records
	if uint32(len(asm.got)) < asm.count {
		return nil
	}
	delete(s.pending, c.Node)
	a := &Announcement{Node: c.Node, Epoch: asm.epoch, Version: asm.version, Load: asm.load}
	for i := uint32(0); i < asm.count; i++ {
		a.Records = append(a.Records, asm.got[i]...)
	}
	return a
}

// Forget drops any half-assembled snapshot for a departed node.
func (s *SyncAssembler) Forget(node transport.NodeID) {
	delete(s.pending, node)
}
