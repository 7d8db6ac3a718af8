package protocol

import (
	"encoding/binary"
	"fmt"

	"uavmw/internal/encoding"
	"uavmw/internal/qos"
)

// Batch wire layout. An MTBatch frame is an ordinary frame whose payload is
// a sequence of complete encoded frames, each prefixed by its length:
//
//	| u16 len | frame bytes | u16 len | frame bytes | ...
//
// An entry is at most MaxBatchEntry bytes; egress bounds a whole batch by
// the datagram MTU anyway. The outer frame carries no sequence semantics of
// its own (Seq is 0, one uvarint byte, never ack-required); reliability
// belongs to the inner frames, which the receiver feeds through the normal
// decode path one by one. The outer Priority is the egress lane the batch
// was drained from, so transports or diagnostics that peek at the header
// still see the right class.

// BatchEntryOverhead is the per-inner-frame cost of riding in a batch.
const BatchEntryOverhead = 2

// MaxBatchEntry is the longest inner frame a batch can carry.
const MaxBatchEntry = 1<<16 - 1

// BatchOverhead returns the wire bytes an n-frame batch adds on top of the
// inner frames themselves: the outer header, whose seq 0 takes one byte,
// and the entry prefixes. Egress uses it to keep coalesced datagrams under
// the MTU.
func BatchOverhead(n int) int { return frameHeaderLen + 1 + n*BatchEntryOverhead }

// AppendBatch serializes an MTBatch datagram containing the given encoded
// frames onto dst and returns the extended slice. Each inner frame is
// copied exactly once, directly into its wire position — no intermediate
// payload assembly — and the output is byte-identical to what EncodeFrame
// would produce for the equivalent MTBatch frame. dst is typically a pooled
// buffer sized with BatchOverhead plus the inner lengths. On error dst is
// returned unmodified.
func AppendBatch(dst []byte, frames [][]byte, p qos.Priority) ([]byte, error) {
	if len(frames) == 0 {
		return dst, fmt.Errorf("protocol: empty batch: %w", ErrBadFrame)
	}
	for _, f := range frames {
		if len(f) > MaxBatchEntry {
			return dst, fmt.Errorf("protocol: %d-byte batch entry: %w", len(f), ErrBadFrame)
		}
	}
	// Outer frame header: empty channel, no seq, no flags — batches carry
	// no sequence semantics of their own. Cannot fail: the type is valid.
	dst, _ = AppendFrame(dst, &Frame{Type: MTBatch, Priority: p})
	for _, f := range frames {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f)))
		dst = append(dst, f...)
	}
	return dst, nil
}

// BatchReader walks the raw inner frames of an MTBatch payload in place.
type BatchReader struct {
	rest []byte
}

// ReadBatch validates the whole entry structure of an MTBatch payload — a
// truncated length prefix, an entry longer than what is left, or no entry
// at all is ErrBadFrame / ErrTruncated before anything is delivered — and
// returns a reader over its entries.
func ReadBatch(payload []byte) (BatchReader, error) {
	if len(payload) == 0 {
		return BatchReader{}, fmt.Errorf("protocol: empty batch: %w", ErrBadFrame)
	}
	for rest := payload; len(rest) > 0; {
		if len(rest) < BatchEntryOverhead {
			return BatchReader{}, fmt.Errorf("protocol: batch entry: %d-byte length prefix: %w",
				len(rest), encoding.ErrTruncated)
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[BatchEntryOverhead:]
		if n > len(rest) {
			return BatchReader{}, fmt.Errorf("protocol: batch entry %d bytes, %d left: %w",
				n, len(rest), ErrBadFrame)
		}
		rest = rest[n:]
	}
	return BatchReader{rest: payload}, nil
}

// Next returns the next raw inner frame, or ok=false after the last. The
// slice aliases the payload; callers that retain it must copy.
func (b *BatchReader) Next() (frame []byte, ok bool) {
	if len(b.rest) == 0 {
		return nil, false
	}
	n := BatchEntryOverhead + int(binary.BigEndian.Uint16(b.rest))
	frame, b.rest = b.rest[BatchEntryOverhead:n], b.rest[n:]
	return frame, true
}

// DecodeBatch splits an MTBatch payload back into the raw inner frames. The
// returned slices alias payload; callers that retain them must copy.
func DecodeBatch(payload []byte) ([][]byte, error) {
	r, err := ReadBatch(payload)
	if err != nil {
		return nil, err
	}
	var frames [][]byte
	for f, ok := r.Next(); ok; f, ok = r.Next() {
		frames = append(frames, f)
	}
	return frames, nil
}

// priorityOffset is the byte position of the Priority field in an encoded
// frame header: magic u16, version u8, type u8, flags u8, encoding u8.
const priorityOffset = 6

// PeekPriority reads the scheduler class out of an encoded frame without a
// full decode. The egress plane uses it to lane retransmissions, which the
// ARQ engine holds only in encoded form. Undecodable input maps to
// PriorityNormal so a malformed frame still drains.
func PeekPriority(raw []byte) qos.Priority {
	if len(raw) <= priorityOffset ||
		raw[0] != byte(frameMagic>>8) || raw[1] != byte(frameMagic&0xff) {
		return qos.PriorityNormal
	}
	p := qos.Priority(raw[priorityOffset])
	if !p.Valid() {
		return qos.PriorityNormal
	}
	return p
}
