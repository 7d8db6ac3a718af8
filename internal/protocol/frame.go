// Package protocol implements the PEPt "Protocol" subsystem (§6 of the
// paper): framing encoded data "to denote the intent of the message" plus
// the low-level bookkeeping the paper assigns to this layer — application-
// level acknowledgment and retransmission (§4.2), fragmentation of payloads
// beyond the datagram MTU, and duplicate suppression.
//
// # Buffer ownership
//
// The codec is built for a zero-allocation wire path, which makes aliasing
// explicit:
//
//   - Encoding never retains its input. AppendFrame/AppendBatch copy the
//     frame (including Payload) into dst; the caller may reuse or release
//     the Frame and its Payload the moment the call returns.
//   - Decoding never copies its input. DecodeFrame/DecodeFrameInto set
//     Payload to a sub-slice of data, and DecodeBatch returns sub-slices of
//     the batch payload. Whoever owns the encoded bytes (typically a pooled
//     receive buffer) must keep them alive — and unmodified — for as long
//     as any decoded view is in use, and anything that outlives that window
//     (handler state, reassembly, dedup) must copy first.
//   - Frames handed to Handle-style callbacks follow the same rule as
//     transport.Packet: use within the call, copy to retain.
//   - The container's receive path applies this end to end: the ingress
//     pipeline (internal/ingress) holds the refcounted pooled receive
//     buffer while a shard worker decodes and dispatches, releasing it
//     when the drain batch returns. Decoded payload views are therefore
//     valid exactly for the dispatch call; per-source state that outlives
//     it (reassembly buffers, dedup windows) copies what it keeps.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/intern"
	"uavmw/internal/qos"
)

// MsgType denotes the intent of a frame.
type MsgType uint8

// Frame types, grouped by subsystem.
const (
	// Discovery / container management (§3).
	MTAnnounce  MsgType = iota + 1 // container announces its services
	MTHeartbeat                    // liveness + load report
	MTBye                          // graceful shutdown notice

	// Variables (§4.1).
	MTSubscribe   // subscriber joins a variable
	MTUnsubscribe // subscriber leaves a variable
	MTSnapshotReq // request for guaranteed initial exact value
	MTSnapshotRep // reliable reply carrying latest value
	MTSample      // best-effort published sample

	// Events (§4.2).
	MTEvent    // guaranteed notification
	MTEventAck // subscriber acknowledgment

	// Remote invocation (§4.3).
	MTCall   // request
	MTReturn // successful reply
	MTError  // failed reply

	// File transmission (§4.4).
	MTFileAnnounce  // announce phase: resource metadata
	MTFileSubscribe // receiver subscribes to a transfer
	MTFileChunk     // multicast data chunk
	MTFileQuery     // publisher asks completion status
	MTFileAck       // receiver has all chunks
	MTFileNack      // receiver lacks chunks (compressed list)
	MTFileCancel    // transfer aborted / receiver leaving

	// Transport-level.
	MTFragment // piece of an oversized frame
	MTAck      // ARQ acknowledgment of FlagAckRequired frames, as seq ranges (ack.go)

	// Events, group-addressed mode (§4.1 bandwidth argument applied to
	// §4.2 delivery). Appended after the transport types to keep existing
	// wire values stable.
	MTEventNack // subscriber reports per-topic sequence gaps

	// Remote invocation, admission control (§4.3 bounded-latency calls).
	// A provider answers MTCall with MTBusy instead of queueing a request
	// it cannot serve in time (concurrency limit reached, or the call's
	// wire-propagated deadline budget already spent), so the caller fails
	// over to a redundant provider immediately.
	MTBusy // provider sheds the request; caller should fail over

	// Discovery, incremental mode (§3 name management at fleet scale).
	// Registration changes multicast a compact versioned delta the moment
	// they happen; the periodic beacon is a constant-size digest
	// (MTHeartbeat, defined above); receivers that observe a version gap,
	// an unknown node, or a fresh epoch ask the node for its records
	// unicast (anti-entropy sync). The node answers over ARQ with a
	// catch-up MTAnnounceDelta or its full record set as one MTAnnounce,
	// fragmented like any frame larger than a datagram. MTSyncRep is no
	// longer sent: its number stays reserved so later types keep theirs.
	MTAnnounceDelta // added/withdrawn records since the previous version
	MTSyncReq       // receiver asks a node for its records
	MTSyncRep       // reserved

	// Egress coalescing (§6 framing, transmit side). While small frames
	// for the same destination wait in an egress lane, the plane packs
	// them into one MTBatch datagram — fewer syscalls and wire packets on
	// small-frame-heavy paths. The payload is a sequence of length-
	// prefixed complete frames (see AppendBatch); receivers unpack and
	// route each inner frame exactly as if it had arrived alone, so
	// acknowledgment, dedup and priority scheduling are unaffected.
	MTBatch // container of length-prefixed coalesced frames

	// Bearer plane (multi-datalink nodes). Each bearer's link monitor sends
	// a lightweight MTProbe to known peers when the bearer has been idle,
	// and the peer echoes the payload back as MTProbeEcho on the same
	// bearer. The round trip gives per-bearer liveness and RTT even on
	// links that carry no application traffic, and is how a blacked-out
	// bearer's recovery is detected.
	MTProbe     // link-monitor probe: u64 nonce payload
	MTProbeEcho // probe reply: nonce echoed verbatim

	mtMax // sentinel
)

// Frame flag bits.
const (
	// FlagAckRequired asks the receiving container to reply with an MTAck
	// covering the frame's Seq; the sender's ARQ engine retransmits until
	// it does.
	FlagAckRequired uint8 = 1 << 0
	// FlagAppError marks an MTError frame as an application-level
	// failure (no failover) rather than an infrastructure failure.
	FlagAppError uint8 = 1 << 1
	// FlagHasBudget marks a frame that carries a deadline budget word
	// after the sequence number: the sender's remaining deadline, so
	// receivers can shed work that can no longer meet it (§4.3). Only
	// MTCall frames set it today, but the field is type-agnostic.
	FlagHasBudget uint8 = 1 << 2
	// FlagHasAck marks a frame that carries a header ack block after the
	// seq and the optional budget word: acknowledgments of the receiver's
	// own frames riding this one, so they need no MTAck datagram (see
	// Frame.AckLargest).
	FlagHasAck uint8 = 1 << 3
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	names := [...]string{
		MTAnnounce: "announce", MTHeartbeat: "heartbeat", MTBye: "bye",
		MTSubscribe: "subscribe", MTUnsubscribe: "unsubscribe",
		MTSnapshotReq: "snapshot-req", MTSnapshotRep: "snapshot-rep", MTSample: "sample",
		MTEvent: "event", MTEventAck: "event-ack",
		MTCall: "call", MTReturn: "return", MTError: "error",
		MTFileAnnounce: "file-announce", MTFileSubscribe: "file-subscribe",
		MTFileChunk: "file-chunk", MTFileQuery: "file-query",
		MTFileAck: "file-ack", MTFileNack: "file-nack", MTFileCancel: "file-cancel",
		MTFragment: "fragment", MTAck: "ack", MTEventNack: "event-nack",
		MTBusy: "busy", MTAnnounceDelta: "announce-delta",
		MTSyncReq: "sync-req", MTBatch: "batch",
		MTProbe: "probe", MTProbeEcho: "probe-echo",
	}
	if int(m) < len(names) && names[m] != "" {
		return names[m]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(m))
}

// Valid reports whether m is a defined frame type.
func (m MsgType) Valid() bool { return m >= MTAnnounce && m < mtMax }

// Frame is one protocol message. Channel scopes the frame to a named
// primitive instance ("gps.position", "mission.photo", ...); Seq identifies
// the message for acknowledgment, dedup and reply matching.
type Frame struct {
	// Type is the frame intent.
	Type MsgType
	// Flags carries type-specific bits.
	Flags uint8
	// Encoding is the encoding.Encoding ID used for Payload, so mixed
	// deployments can interoperate.
	Encoding uint8
	// Priority is the scheduler class the sender assigned; receivers use
	// it to queue handler work.
	Priority qos.Priority
	// Channel is the primitive instance name.
	Channel string
	// Seq is the message identifier (per sender, per subsystem).
	Seq uint64
	// Budget is the sender's remaining deadline for the work this frame
	// requests (zero = none declared). It travels on the wire only when
	// non-zero (FlagHasBudget), with microsecond granularity, so a
	// provider can reject an MTCall whose budget is already spent by the
	// time a handler would run (§4.3 admission control).
	Budget time.Duration
	// AckLargest and AckRanges are the header ack block: seqs of the
	// receiver's frames that this frame acknowledges, as an MTAck would
	// (ack.go). AckLargest is the largest of them, and zero means no block;
	// AckRanges is the range list below it in the MTAck payload form, empty
	// for AckLargest alone. The block travels on the wire only when
	// AckLargest is non-zero (FlagHasAck). On decode AckRanges aliases the
	// input, like Payload.
	AckLargest uint64
	AckRanges  []byte
	// Payload is the encoded body; interpretation depends on Type.
	Payload []byte
}

// maxBudget is the largest budget encodable in the u32 microsecond wire
// word (~71 minutes); longer budgets saturate.
const maxBudget = time.Duration(^uint32(0)) * time.Microsecond

const (
	frameMagic   uint16 = 0x5541 // "UA"
	frameVersion uint8  = 2
)

// MaxChannelLen bounds channel names on the wire.
const MaxChannelLen = 255

// Errors.
var (
	// ErrBadFrame reports an undecodable frame.
	ErrBadFrame = errors.New("bad frame")
	// ErrVersion reports a version mismatch.
	ErrVersion = errors.New("protocol version mismatch")
)

// Frame wire layout, version 2:
//
//	| u16 magic | u8 version | u8 type | u8 flags | u8 encoding | u8 priority |
//	| u8 channel length | channel | uvarint seq | [u32 budget µs] |
//	| [uvarint largest | uvarint ranges length | ranges] | payload |
//
// The seq is a canonical uvarint (encoding.Reader.Uvarint): 1 byte below
// 128, 3 bytes below 2^21, 10 at most. The budget word is present exactly
// when FlagHasBudget is set, and is then non-zero. The ack block is present
// exactly when FlagHasAck is set: a non-zero largest acknowledged seq, then
// the byte length of its range list (0 for the largest alone) and the list,
// in the MTAck payload form and held to the same rules (ack.go). Version 1
// carried a u32 channel length and a u64 seq; its frames are rejected with
// ErrVersion.

// frameHeaderLen is the fixed part of every encoded frame's header: magic
// u16, version, type, flags, encoding, priority and the channel's u8
// length. The channel bytes, the seq's uvarint, the optional budget word
// and the optional ack block come on top.
const frameHeaderLen = 8

// maxSeqLen is the longest seq encoding. A frame sized before its seq is
// drawn (a reliable fragment) budgets for it.
const maxSeqLen = binary.MaxVarintLen64

// FrameWireSize returns the exact number of bytes AppendFrame writes for f,
// so callers can size a buffer with no slack and no regrowth.
func FrameWireSize(f *Frame) int {
	n := frameHeaderLen + len(f.Channel) + encoding.UvarintLen(f.Seq) + len(f.Payload)
	if f.Budget > 0 {
		n += 4
	}
	if f.AckLargest != 0 {
		n += AckBlockSize(f.AckLargest, f.AckRanges)
	}
	return n
}

// AckBlockSize returns the wire size of a header ack block acknowledging
// largest and the ranges below it.
func AckBlockSize(largest uint64, ranges []byte) int {
	return encoding.UvarintLen(largest) + encoding.UvarintLen(uint64(len(ranges))) + len(ranges)
}

// AppendFrame serializes f onto the end of dst and returns the extended
// slice. It copies f.Payload into dst and retains nothing, so the caller
// may recycle both the frame and its payload immediately; dst is typically
// a pooled buffer (bufpool.Get) or an exact-size allocation
// (FrameWireSize). On error dst is returned unmodified.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if !f.Type.Valid() {
		return dst, fmt.Errorf("protocol: type %d: %w", f.Type, ErrBadFrame)
	}
	if len(f.Channel) > MaxChannelLen {
		return dst, fmt.Errorf("protocol: channel %q too long: %w", f.Channel[:32]+"...", ErrBadFrame)
	}
	if f.Budget < 0 {
		return dst, fmt.Errorf("protocol: negative budget %v: %w", f.Budget, ErrBadFrame)
	}
	if f.AckLargest == 0 && len(f.AckRanges) > 0 {
		return dst, fmt.Errorf("protocol: ack ranges below no largest seq: %w", ErrBadFrame)
	}
	flags := f.Flags &^ (FlagHasBudget | FlagHasAck)
	if f.Budget > 0 {
		flags |= FlagHasBudget
	}
	if f.AckLargest != 0 {
		flags |= FlagHasAck
	}
	dst = binary.BigEndian.AppendUint16(dst, frameMagic)
	dst = append(dst, frameVersion, uint8(f.Type), flags, f.Encoding, uint8(f.Priority))
	dst = append(dst, uint8(len(f.Channel)))
	dst = append(dst, f.Channel...)
	dst = binary.AppendUvarint(dst, f.Seq)
	if f.Budget > 0 {
		budget := f.Budget
		if budget > maxBudget {
			budget = maxBudget
		}
		if budget < time.Microsecond {
			budget = time.Microsecond // flag implies a non-zero word
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(budget/time.Microsecond))
	}
	if f.AckLargest != 0 {
		dst = binary.AppendUvarint(dst, f.AckLargest)
		dst = binary.AppendUvarint(dst, uint64(len(f.AckRanges)))
		dst = append(dst, f.AckRanges...)
	}
	return append(dst, f.Payload...), nil
}

// EncodeFrame serializes f into exactly one exact-size allocation.
func EncodeFrame(f *Frame) ([]byte, error) {
	//wirepath:alloc exact-size, GC-owned encode for callers that retain the result
	out, err := AppendFrame(make([]byte, 0, FrameWireSize(f)), f)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// channels interns decoded channel names. Channels are primitive instance
// names — a small, stable vocabulary per deployment — so decoding them as
// fresh strings on every frame is pure garbage.
var channels intern.Table

// DecodeFrameInto parses data into f, overwriting every field. The frame's
// Payload aliases data (callers that retain it must copy) and the Channel
// string is interned, so a steady-state decode allocates nothing. f is
// typically pooled (GetFrame/PutFrame); on error its contents are
// unspecified.
func DecodeFrameInto(f *Frame, data []byte) error {
	r := encoding.NewReader(data)
	if magic := r.Uint16(); magic != frameMagic {
		return fmt.Errorf("protocol: magic %#04x: %w", magic, ErrBadFrame)
	}
	if v := r.Uint8(); v != frameVersion {
		return fmt.Errorf("protocol: version %d, want %d: %w", v, frameVersion, ErrVersion)
	}
	f.Type = MsgType(r.Uint8())
	f.Flags = r.Uint8()
	f.Encoding = r.Uint8()
	f.Priority = qos.Priority(r.Uint8())
	f.Channel = channels.String(r.Raw(int(r.Uint8())))
	f.Seq = r.Uvarint()
	f.Budget = 0
	if f.Flags&FlagHasBudget != 0 {
		f.Budget = time.Duration(r.Uint32()) * time.Microsecond
	}
	f.AckLargest, f.AckRanges = 0, nil
	if f.Flags&FlagHasAck != 0 {
		f.AckLargest = r.Uvarint()
		n := r.Uvarint()
		if n > uint64(r.Remaining()) {
			return fmt.Errorf("protocol: %d-byte ack ranges past the end: %w", n, ErrBadFrame)
		}
		f.AckRanges = r.Raw(int(n))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("protocol: header: %w", err)
	}
	if f.Flags&FlagHasBudget != 0 && f.Budget == 0 {
		// The flag implies a non-zero word; this frame has two encodings.
		return fmt.Errorf("protocol: zero budget word: %w", ErrBadFrame)
	}
	if f.Flags&FlagHasAck != 0 {
		// As with the budget, the flag implies a non-zero largest seq, and
		// the list obeys the MTAck rules, so the block has one encoding.
		if f.AckLargest == 0 {
			return fmt.Errorf("protocol: zero largest acked seq: %w", ErrBadFrame)
		}
		if err := walkRanges(f.AckLargest, f.AckRanges, nil); err != nil {
			return err
		}
	}
	if !f.Type.Valid() {
		return fmt.Errorf("protocol: type %d: %w", f.Type, ErrBadFrame)
	}
	f.Payload = r.Raw(r.Remaining())
	return nil
}

// DecodeFrame parses data into a fresh frame. The returned frame's Payload
// aliases data; callers that retain it must copy.
func DecodeFrame(data []byte) (*Frame, error) {
	f := &Frame{}
	if err := DecodeFrameInto(f, data); err != nil {
		return nil, err
	}
	return f, nil
}

// framePool recycles Frame structs for the receive path, pairing with
// DecodeFrameInto so routing a datagram heap-allocates neither the frame
// nor its header fields.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns a zeroed pooled frame. Release it with PutFrame once
// nothing retains the pointer — handlers that keep a frame past their call
// must copy the fields they need instead (the same retention rule as
// Payload).
func GetFrame() *Frame { return framePool.Get().(*Frame) }

// PutFrame zeroes f and returns it to the pool. Callers must guarantee no
// alias of f survives; when retention is uncertain, drop the frame on the
// floor and let the GC have it.
func PutFrame(f *Frame) {
	*f = Frame{}
	framePool.Put(f)
}
