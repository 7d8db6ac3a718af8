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
//
// A header ack block (Frame.AckLargest, FlagHasAck) carries the same
// largest seq and range list on any other frame; one walker reads both.

// MaxAckSeqs bounds the seqs one MTAck or header ack block may acknowledge:
// far more than one receive drain acknowledges, so an ack claiming more is
// malformed. A sender acknowledging more splits them over several MTAck
// frames. It does not bound a receiver's work, which follows the messages it
// has pending, not the seqs an ack claims: see ARQ.AckRange.
const MaxAckSeqs = 4096

// AppendAck fills f as the MTAck for a prefix of seqs, which must be sorted
// in descending order with no repeats, and returns the seqs it left out.
// The payload is appended to scratch[:0]. The prefix is as long as keeps
// the encoded frame within mtu bytes and under MaxAckSeqs; it holds at
// least one seq. f's other fields (Priority, Channel) are the caller's.
func AppendAck(f *Frame, scratch []byte, seqs []uint64, mtu int) (rest []uint64) {
	f.Type, f.Seq, f.Payload = MTAck, seqs[0], nil
	p, i := appendRanges(scratch[:0], seqs, mtu-FrameWireSize(f))
	f.Payload = p
	return seqs[i:]
}

// AppendAckBlock appends to scratch[:0] the range list of a header ack
// block acknowledging a prefix of seqs, sorted as for AppendAck, and returns
// the list and the seqs it left out. The block — seqs[0] as the largest,
// the list's length and the list — takes at most room bytes and covers at
// most MaxAckSeqs seqs. When not even seqs[0] alone fits, it returns
// scratch[:0] and all of seqs.
func AppendAckBlock(scratch []byte, seqs []uint64, room int) (ranges []byte, rest []uint64) {
	avail := room - encoding.UvarintLen(seqs[0])
	if avail < 1 {
		return scratch[:0], seqs
	}
	// The longest list that fits beside its own length prefix.
	n := avail - 1
	for encoding.UvarintLen(uint64(n))+n > avail {
		n--
	}
	p, i := appendRanges(scratch[:0], seqs, n)
	return p, seqs[i:]
}

// appendRanges appends to p the range list that acknowledges a prefix of
// seqs below seqs[0], in at most room bytes and under MaxAckSeqs seqs, and
// returns it with the length of the prefix, at least one: a list that
// does not fit a single range is empty, the form of seqs[0] alone.
func appendRanges(p []byte, seqs []uint64, room int) ([]byte, int) {
	start := len(p)
	i := contiguous(seqs, 0, MaxAckSeqs)
	first := uint64(i - 1)
	if encoding.UvarintLen(first) > room {
		return p, 1
	}
	p = binary.AppendUvarint(p, first)
	for i < len(seqs) && i < MaxAckSeqs {
		j := contiguous(seqs, i, MaxAckSeqs)
		gap, n := seqs[i-1]-seqs[i]-2, uint64(j-i-1)
		if len(p)-start+encoding.UvarintLen(gap)+encoding.UvarintLen(n) > room {
			break
		}
		p = binary.AppendUvarint(binary.AppendUvarint(p, gap), n)
		i = j
	}
	if len(p)-start == 1 && first == 0 {
		p = p[:start] // the lone seq's form is the empty list
	}
	return p, i
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
	if err := walkRanges(f.Seq, f.Payload, nil); err != nil {
		return err
	}
	return walkRanges(f.Seq, f.Payload, fn)
}

// EachAckBlockRange calls fn with every range [lo, hi] that f's header ack
// block acknowledges, largest first, once the whole block is valid by the
// MTAck rules. A frame with no block acknowledges nothing. DecodeFrameInto
// rejects a frame whose block is invalid, so only a frame built by hand can
// fail here.
func EachAckBlockRange(f *Frame, fn func(lo, hi uint64)) error {
	if f.AckLargest == 0 {
		return nil
	}
	if err := walkRanges(f.AckLargest, f.AckRanges, nil); err != nil {
		return err
	}
	return walkRanges(f.AckLargest, f.AckRanges, fn)
}

// walkRanges checks the range list below largest and passes each range,
// largest first, to visit when it is not nil.
func walkRanges(largest uint64, list []byte, visit func(lo, hi uint64)) error {
	if len(list) == 1 && list[0] == 0 {
		return fmt.Errorf("protocol: ack of one seq with a range list: %w", ErrBadFrame)
	}
	r := encoding.NewReader(list)
	hi, n, covered := largest, uint64(0), uint64(0)
	if len(list) > 0 {
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
