package protocol

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// Datagram transports bound payload size; frames beyond the MTU are split
// into MTFragment frames, each within the MTU, and reassembled on arrival.
// Fragment identity is (sender, fragment-stream id); fragments of one
// message share the id the sender allocated for it.
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

// maxFragments bounds reassembly memory per message.
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
	if total > maxFragments {
		return Fragments{}, fmt.Errorf("protocol: %d fragments exceeds %d: %w", total, maxFragments, ErrBadFrame)
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

// Reassembler collects MTFragment frames and yields completed original
// frames. Incomplete messages are discarded after a timeout so lost
// fragments cannot pin memory.
type Reassembler struct {
	ttl time.Duration
	clk clock.Clock

	mu      sync.Mutex
	pending map[reasmKey]*reasmState
}

type reasmKey struct {
	from  transport.NodeID
	msgID uint64
}

type reasmState struct {
	parts    [][]byte
	received int
	deadline time.Time
}

// DefaultReassemblyTTL bounds how long a partial message is retained.
const DefaultReassemblyTTL = 5 * time.Second

// NewReassembler builds a reassembler with the given partial-message TTL
// (0 means DefaultReassemblyTTL). clk is the time source for expiry; nil
// means the wall clock.
func NewReassembler(ttl time.Duration, clk clock.Clock) *Reassembler {
	if ttl <= 0 {
		ttl = DefaultReassemblyTTL
	}
	return &Reassembler{
		ttl:     ttl,
		clk:     clock.Or(clk),
		pending: make(map[reasmKey]*reasmState),
	}
}

// Offer consumes one MTFragment frame from a sender. When the final
// fragment arrives, the reassembled original frame bytes are returned;
// otherwise nil.
func (ra *Reassembler) Offer(from transport.NodeID, f *Frame) ([]byte, error) {
	if f.Type != MTFragment {
		return nil, fmt.Errorf("protocol: reassembler got %v: %w", f.Type, ErrBadFrame)
	}
	r := encoding.NewReader(f.Payload)
	msgID := r.Uint64()
	index := int(r.Uint16())
	total := int(r.Uint16())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("protocol: fragment header: %w", err)
	}
	if total == 0 || total > maxFragments || index >= total {
		return nil, fmt.Errorf("protocol: fragment %d/%d: %w", index, total, ErrBadFrame)
	}
	data := r.Raw(r.Remaining())

	ra.mu.Lock()
	defer ra.mu.Unlock()
	now := ra.clk.Now()
	ra.expireLocked(now)

	key := reasmKey{from: from, msgID: msgID}
	st := ra.pending[key]
	if st == nil {
		st = &reasmState{parts: make([][]byte, total)}
		ra.pending[key] = st
	}
	if len(st.parts) != total {
		// Sender restarted the id with a different shape; reset.
		st.parts = make([][]byte, total)
		st.received = 0
	}
	st.deadline = now.Add(ra.ttl)
	if st.parts[index] == nil {
		// Fragment data aliases the receive buffer, which is recycled the
		// moment the handler returns; reassembly state must own its bytes.
		st.parts[index] = bufpool.Copy(data)
		st.received++
	}
	if st.received < total {
		return nil, nil
	}
	delete(ra.pending, key)
	size := 0
	for _, p := range st.parts {
		size += len(p)
	}
	//wirepath:alloc the reassembled frame is handed to the receive path, which owns it
	out := make([]byte, 0, size)
	for _, p := range st.parts {
		out = append(out, p...)
	}
	return out, nil
}

// expireLocked drops timed-out partial messages. Caller holds ra.mu.
func (ra *Reassembler) expireLocked(now time.Time) {
	for key, st := range ra.pending {
		if now.After(st.deadline) {
			delete(ra.pending, key)
		}
	}
}

// PendingMessages reports partially reassembled message count.
func (ra *Reassembler) PendingMessages() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return len(ra.pending)
}
