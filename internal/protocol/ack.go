package protocol

import (
	"encoding/binary"
	"fmt"

	"uavmw/internal/encoding"
)

// Ack wire layout. An MTAck frame's Seq is the largest seq it acknowledges.
// An empty payload acknowledges that seq alone. Otherwise the payload lists
// descending ranges of acknowledged seqs in uvarints, like QUIC's ACK frame
// (RFC 9000 §19.3.1):
//
//	| first | gap | len | gap | len | ...
//
// The first range is [Seq-first, Seq]. Each (gap, len) pair adds the range
// whose largest seq is the previous range's smallest minus gap minus 2 (gap
// counts the unacknowledged seqs between the two, less one) and which
// spans len more seqs below it. A lone zero would repeat the empty form and
// is rejected, so a set of acknowledged seqs has one encoding.

// MaxAckSeqs bounds the seqs one MTAck may acknowledge: far more than one
// receive drain acknowledges, so an ack claiming more is malformed. A
// sender acknowledging more splits them over several MTAck frames. It does
// not bound a receiver's work, which follows the messages it has pending,
// not the seqs an ack claims: see ARQ.AckRange.
const MaxAckSeqs = 4096

// AppendAck fills f as the MTAck for a prefix of seqs, which must be sorted
// in descending order with no repeats, and returns the seqs it left out.
// The payload is appended to scratch[:0]. The prefix is as long as keeps
// the encoded frame within mtu bytes and under MaxAckSeqs; it holds at
// least one seq. f's other fields (Priority, Channel) are the caller's.
func AppendAck(f *Frame, scratch []byte, seqs []uint64, mtu int) (rest []uint64) {
	f.Type, f.Seq, f.Payload = MTAck, seqs[0], nil
	room := mtu - FrameWireSize(f)
	i := contiguous(seqs, 0, MaxAckSeqs)
	first := uint64(i - 1)
	if encoding.UvarintLen(first) > room {
		f.Payload = scratch[:0]
		return seqs[1:]
	}
	p := binary.AppendUvarint(scratch[:0], first)
	for i < len(seqs) && i < MaxAckSeqs {
		j := contiguous(seqs, i, MaxAckSeqs)
		gap, n := seqs[i-1]-seqs[i]-2, uint64(j-i-1)
		if len(p)+encoding.UvarintLen(gap)+encoding.UvarintLen(n) > room {
			break
		}
		p = binary.AppendUvarint(binary.AppendUvarint(p, gap), n)
		i = j
	}
	if len(p) == 1 && first == 0 {
		p = p[:0] // the lone seq's form is the empty payload
	}
	f.Payload = p
	return seqs[i:]
}

// contiguous returns the end of the run of consecutive seqs starting at i,
// stopping at index limit.
func contiguous(seqs []uint64, i, limit int) int {
	j := i + 1
	for j < len(seqs) && j < limit && seqs[j] == seqs[j-1]-1 {
		j++
	}
	return j
}

// EachAckRange validates an MTAck's whole range list — canonical
// uvarints, ranges that stay at or above seq 0, at most MaxAckSeqs seqs and
// no trailing bytes — and only then calls fn with every range [lo, hi] it
// acknowledges, largest first.
func EachAckRange(f *Frame, fn func(lo, hi uint64)) error {
	if err := walkAck(f, nil); err != nil {
		return err
	}
	return walkAck(f, fn)
}

// walkAck checks an MTAck's ranges and passes each, largest first, to
// visit when it is not nil.
func walkAck(f *Frame, visit func(lo, hi uint64)) error {
	if len(f.Payload) == 1 && f.Payload[0] == 0 {
		return fmt.Errorf("protocol: ack of one seq with a payload: %w", ErrBadFrame)
	}
	r := encoding.NewReader(f.Payload)
	hi, n, covered := f.Seq, uint64(0), uint64(0)
	if len(f.Payload) > 0 {
		n = r.Uvarint()
	}
	for r.Err() == nil {
		if n > hi || n >= MaxAckSeqs-covered {
			return fmt.Errorf("protocol: ack range of %d below %d after %d seqs: %w", n+1, hi, covered, ErrBadFrame)
		}
		covered += n + 1
		lo := hi - n
		if visit != nil {
			visit(lo, hi)
		}
		if r.Remaining() == 0 {
			return nil
		}
		gap := r.Uvarint()
		n = r.Uvarint()
		if r.Err() == nil && (lo < 2 || gap > lo-2) {
			return fmt.Errorf("protocol: ack gap %d below %d: %w", gap, lo, ErrBadFrame)
		}
		hi = lo - gap - 2
	}
	return fmt.Errorf("protocol: ack ranges: %w", r.Err())
}
