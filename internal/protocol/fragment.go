package protocol

import (
	"encoding/binary"
	"fmt"

	"uavmw/internal/encoding"
	"uavmw/internal/qos"
)

// Datagram transports bound payload size; frames beyond the MTU are split
// into MTFragment frames, each within the MTU, and reassembled on arrival
// (Peer.Offer). Fragment identity is (sender, fragment-stream id);
// fragments of one message share the id the sender allocated for it.
//
// Fragment payload layout:
//
//	u64 msgID   — sender-unique id of the original frame
//	u16 index   — fragment position
//	u16 total   — fragment count
//	raw bytes   — slice of the original encoded frame

// DefaultMTU is the fragmentation threshold for UDP-class transports,
// chosen to fit a 1500-byte Ethernet MTU with IP/UDP/envelope headroom.
const DefaultMTU = 1400

// maxFragments bounds the fragments of one message. Reassembly memory is
// bounded per peer, by reassemblyBudget, not by the count a fragment names;
// Split refuses a message that budget could not hold whole.
const maxFragments = 1 << 14

// fragHeaderLen is the fragment payload header: u64 msgID, u16 index, u16
// total.
const fragHeaderLen = 12

// fragOverhead bounds what riding in a fragment costs on the wire: the
// MTFragment frame's own header with the longest seq plus the fragment
// header. A reliable fragment draws its seq after the split, so the split
// budgets for any seq.
const fragOverhead = frameHeaderLen + maxSeqLen + fragHeaderLen

// Fragments is the plan for sending one oversized encoded frame as
// MTFragment datagrams that each fit the MTU. The sender builds fragment i
// with Append, straight into the buffer it will queue, choosing that
// fragment's frame-level seq and flags itself: best-effort fragments all
// carry the message id, ARQ fragments each get their own acknowledged seq.
type Fragments struct {
	raw   []byte
	msgID uint64
	chunk int // bytes of raw per fragment
	total int
	pr    qos.Priority
}

// Split plans the fragmentation of the encoded frame raw, identified on the
// wire by msgID, so that every emitted datagram is at most mtu bytes
// (DefaultMTU when mtu <= 0), headers included. raw is aliased, not copied:
// it must stay unmodified until the last Append.
func Split(raw []byte, msgID uint64, mtu int) (Fragments, error) {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	chunk := mtu - fragOverhead
	if chunk <= 0 {
		return Fragments{}, fmt.Errorf("protocol: mtu %d leaves no room beside %d header bytes: %w", mtu, fragOverhead, ErrBadFrame)
	}
	total := (len(raw) + chunk - 1) / chunk
	// A message its receiver cannot hold whole would evict itself there,
	// its reliable fragments acknowledged one by one: refuse it here.
	if total > maxFragments || partialCharge(len(raw), total) > reassemblyBudget {
		return Fragments{}, fmt.Errorf("protocol: %d bytes in %d fragments is more than a peer reassembles: %w", len(raw), total, ErrBadFrame)
	}
	// Fragments inherit the original frame's priority so they drain from
	// the same egress lane and the ARQ resend path (which lanes by the
	// encoded header) cannot promote bulk to normal or demote critical.
	return Fragments{raw: raw, msgID: msgID, chunk: chunk, total: total, pr: PeekPriority(raw)}, nil
}

// Count returns the number of fragments.
func (s Fragments) Count() int { return s.total }

// WireSize returns the exact datagram size of fragment i sent under seq. It
// is at most the split's mtu whatever the seq.
func (s Fragments) WireSize(i int, seq uint64) int {
	return frameHeaderLen + encoding.UvarintLen(seq) + fragHeaderLen + min(s.chunk, len(s.raw)-i*s.chunk)
}

// Append writes fragment i onto dst as a complete MTFragment wire frame
// with the given frame-level seq and flags, and returns the extended slice.
func (s Fragments) Append(dst []byte, i int, seq uint64, flags uint8) []byte {
	start := i * s.chunk
	// Cannot fail: the type is valid and there is no channel or budget.
	dst, _ = AppendFrame(dst, &Frame{Type: MTFragment, Flags: flags, Priority: s.pr, Seq: seq})
	dst = binary.BigEndian.AppendUint64(dst, s.msgID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(i))
	dst = binary.BigEndian.AppendUint16(dst, uint16(s.total))
	return append(dst, s.raw[start:min(start+s.chunk, len(s.raw))]...)
}
