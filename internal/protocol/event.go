package protocol

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"uavmw/internal/encoding"
)

// NewIncarnation draws a random non-zero publisher incarnation id. Both
// the event and variable engines stamp it onto the wire so subscribers can
// distinguish a restarted publisher (fresh sequence numbering) from
// reordered duplicates and reset their filters; zero is reserved for
// "no incarnation" (local bypass, snapshot replies).
func NewIncarnation() uint32 {
	for {
		if id := rand.Uint32(); id != 0 {
			return id
		}
	}
}

// Event payload layout (after the frame header):
//
//	u32 publisher incarnation id (random per Offer; lets subscribers
//	    distinguish a restarted publisher from reordered duplicates)
//	u64 per-topic occurrence sequence (1-based; 0 = unsequenced legacy)
//	raw encoded occurrence value
//
// The per-topic sequence is independent of Frame.Seq (the node-global
// message id used by ARQ and dedup): it numbers occurrences of one topic so
// subscribers can detect gaps in a multicast stream and count loss on the
// unicast path. MTEventNack payloads carry the list of missing per-topic
// sequences a subscriber wants retransmitted.

// EventHeaderLen is the fixed prefix before the encoded occurrence body.
const EventHeaderLen = 12

// MaxNackSeqs bounds one NACK frame; larger gaps are beyond any replay
// buffer and reported as unrecoverable loss instead.
const MaxNackSeqs = 256

// AppendEventHeader appends the publisher incarnation and per-topic
// sequence onto dst; the publisher encodes the occurrence body straight
// after it.
func AppendEventHeader(dst []byte, pubID uint32, topicSeq uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, pubID)
	return binary.BigEndian.AppendUint64(dst, topicSeq)
}

// EncodeEventPayload prepends the publisher incarnation and per-topic
// sequence to an encoded occurrence body. buf, when non-nil and large
// enough, is reused.
func EncodeEventPayload(pubID uint32, topicSeq uint64, body []byte, buf []byte) []byte {
	need := EventHeaderLen + len(body)
	if cap(buf) < need {
		//wirepath:alloc growth fallback when the caller's reused buffer is too small
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.BigEndian.PutUint32(buf, pubID)
	binary.BigEndian.PutUint64(buf[4:], topicSeq)
	copy(buf[EventHeaderLen:], body)
	return buf
}

// DecodeEventPayload splits an MTEvent payload into the publisher
// incarnation, the per-topic sequence and the encoded body. The body
// aliases payload; callers that retain it must copy.
func DecodeEventPayload(payload []byte) (pubID uint32, topicSeq uint64, body []byte, err error) {
	if len(payload) < EventHeaderLen {
		return 0, 0, nil, fmt.Errorf("protocol: event payload %d bytes: %w", len(payload), ErrBadFrame)
	}
	return binary.BigEndian.Uint32(payload), binary.BigEndian.Uint64(payload[4:]), payload[EventHeaderLen:], nil
}

// EncodeEventNack serializes the missing per-topic sequences of one topic.
func EncodeEventNack(missing []uint64) ([]byte, error) {
	if len(missing) == 0 || len(missing) > MaxNackSeqs {
		return nil, fmt.Errorf("protocol: nack with %d seqs: %w", len(missing), ErrBadFrame)
	}
	w := encoding.NewWriter(2 + 8*len(missing))
	w.Uint16(uint16(len(missing)))
	for _, seq := range missing {
		w.Uint64(seq)
	}
	return w.Bytes(), nil
}

// DecodeEventNack parses an MTEventNack payload.
func DecodeEventNack(payload []byte) ([]uint64, error) {
	r := encoding.NewReader(payload)
	n := int(r.Uint16())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("protocol: nack header: %w", err)
	}
	if n == 0 || n > MaxNackSeqs || r.Remaining() != 8*n {
		return nil, fmt.Errorf("protocol: nack count %d for %d bytes: %w", n, r.Remaining(), ErrBadFrame)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("protocol: nack body: %w", err)
	}
	return out, nil
}
