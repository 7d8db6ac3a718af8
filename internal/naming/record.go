// Package naming implements the paper's §3 "Name management": services are
// addressed by name, containers discover the real network location of named
// resources, cache the bindings (the container "acts as a proxy cache for
// the services it contains"), invalidate them when a provider fails, and
// choose among redundant providers statically or dynamically (§4.3).
package naming

import (
	"errors"
	"fmt"

	"uavmw/internal/encoding"
	"uavmw/internal/intern"
	"uavmw/internal/transport"
)

// Kind classifies a named resource.
type Kind uint8

// Resource kinds.
const (
	KindService  Kind = iota + 1 // a whole service
	KindVariable                 // §4.1 published variable
	KindEvent                    // §4.2 event topic
	KindFunction                 // §4.3 callable function
	KindFile                     // §4.4 file resource
	// KindBearer advertises one datalink (bearer) the node is reachable
	// over: Name is the bearer name ("wifi", "radio", ...), shared across
	// the fleet so peers can match it against their own bearer set, and
	// Service carries the bearer's dialable transport address when the
	// substrate needs one (UDP), empty on substrates with a global address
	// book (the bus). Riding the ordinary offer log means bearer
	// reachability propagates through the same deltas, digests and
	// anti-entropy syncs as every other record.
	KindBearer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindService:
		return "service"
	case KindVariable:
		return "variable"
	case KindEvent:
		return "event"
	case KindFunction:
		return "function"
	case KindFile:
		return "file"
	case KindBearer:
		return "bearer"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k >= KindService && k <= KindBearer }

// Record describes one named resource offered by a provider node.
type Record struct {
	// Kind of resource.
	Kind Kind
	// Name is the global resource name, e.g. "gps.position".
	Name string
	// Service is the providing service's name on that node.
	Service string
	// Node is the provider's network identity.
	Node transport.NodeID
	// TypeSig is the payload (or return) type signature for compatibility
	// checking; empty when not applicable.
	TypeSig string
	// ArgSig is the function argument type signature (functions only).
	ArgSig string
}

// Announcement is the periodic container broadcast (§3 "notifying the rest
// of containers about changes in the services status"): the node's full
// resource offer plus a load figure for least-loaded call routing.
type Announcement struct {
	// Node is the announcing container's node id.
	Node transport.NodeID
	// Epoch increments each container restart so stale records from a
	// previous incarnation lose to fresh ones.
	Epoch uint64
	// Version is the node's record-log version this offer corresponds to
	// (see Log). Receivers store it so later deltas and heartbeat digests
	// can be checked for gaps.
	Version uint64
	// Load is a normalized utilization figure in [0,1] used by dynamic
	// call binding.
	Load float64
	// Records is the complete resource offer of the node.
	Records []Record
}

// ErrBadAnnouncement tags decode failures.
var ErrBadAnnouncement = errors.New("bad announcement")

const announceVersion = 2

// EncodeAnnouncement serializes a.
func EncodeAnnouncement(a *Announcement) ([]byte, error) {
	if a.Node == "" {
		return nil, fmt.Errorf("naming: empty node: %w", ErrBadAnnouncement)
	}
	w := encoding.NewWriter(64 + 48*len(a.Records))
	w.Uint8(announceVersion)
	w.String(string(a.Node))
	w.Uint64(a.Epoch)
	w.Uint64(a.Version)
	w.Float64(a.Load)
	w.Uint32(uint32(len(a.Records)))
	for i, rec := range a.Records {
		if err := encodeRecord(w, rec); err != nil {
			return nil, fmt.Errorf("naming: record %d: %w", i, err)
		}
	}
	return w.Bytes(), nil
}

// encodeRecord writes one record body (everything but the provider node,
// which travels once in the enclosing message header).
func encodeRecord(w *encoding.Writer, rec Record) error {
	if !rec.Kind.Valid() {
		return fmt.Errorf("kind %d: %w", rec.Kind, ErrBadAnnouncement)
	}
	if rec.Name == "" {
		return fmt.Errorf("unnamed: %w", ErrBadAnnouncement)
	}
	w.Uint8(uint8(rec.Kind))
	w.String(rec.Name)
	w.String(rec.Service)
	w.String(rec.TypeSig)
	w.String(rec.ArgSig)
	return nil
}

// Decoded records share the strings of their small vocabularies: a node
// offers hundreds of resources from a handful of services, typed by a
// handful of signatures, and every announcement and delta repeats them.
// Names are unique per record and are decoded fresh. The tables are
// bounded (intern), so a flood of novel strings costs what a plain decode
// does and evicts nothing.
var (
	recordServices   intern.Table
	recordSignatures intern.Table // TypeSig and ArgSig
)

// decodeRecord reads one record body and stamps it with the provider node.
func decodeRecord(r *encoding.Reader, node transport.NodeID) (Record, error) {
	var rec Record
	rec.Kind = Kind(r.Uint8())
	rec.Name = r.String()
	rec.Service = recordServices.String(r.RawBytes())
	rec.TypeSig = recordSignatures.String(r.RawBytes())
	rec.ArgSig = recordSignatures.String(r.RawBytes())
	rec.Node = node
	if err := r.Err(); err != nil {
		return Record{}, err
	}
	if !rec.Kind.Valid() || rec.Name == "" {
		return Record{}, fmt.Errorf("invalid record: %w", ErrBadAnnouncement)
	}
	return rec, nil
}

// DecodeAnnouncement parses data. Every record's Node field is filled from
// the announcement header.
func DecodeAnnouncement(data []byte) (*Announcement, error) {
	r := encoding.NewReader(data)
	if v := r.Uint8(); v != announceVersion {
		return nil, fmt.Errorf("naming: version %d: %w", v, ErrBadAnnouncement)
	}
	a := &Announcement{}
	a.Node = transport.NodeID(r.String())
	a.Epoch = r.Uint64()
	a.Version = r.Uint64()
	a.Load = r.Float64()
	n := int(r.Uint32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("naming: header: %w", err)
	}
	if a.Node == "" {
		return nil, fmt.Errorf("naming: empty node: %w", ErrBadAnnouncement)
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("naming: %d records: %w", n, ErrBadAnnouncement)
	}
	a.Records = make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec, err := decodeRecord(r, a.Node)
		if err != nil {
			return nil, fmt.Errorf("naming: record %d: %w", i, err)
		}
		a.Records = append(a.Records, rec)
	}
	if err := r.ExpectEOF(); err != nil {
		return nil, fmt.Errorf("naming: %w", err)
	}
	return a, nil
}
