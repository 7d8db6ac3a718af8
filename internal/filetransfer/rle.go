package filetransfer

import (
	"encoding/binary"
	"fmt"

	"uavmw/internal/encoding"
)

// Missing-chunk lists travel in NACK frames as run-length-encoded ranges —
// the paper's "compressed list of the chunks it lacks" (§4.4). A receiver
// that lost chunks 3,4,5,9 sends {(3,3),(9,1)} instead of four numbers;
// for bursty multicast loss this is drastically smaller than a bitmap.
// On the wire: range count u32, then (start u32, count u32) per range.

// appendMissing appends the runs of chunks a receiver lacks — the false
// runs of have — to dst.
func appendMissing(dst []byte, have []bool) []byte {
	countAt := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	ranges := uint32(0)
	for i := 0; i < len(have); {
		if have[i] {
			i++
			continue
		}
		start := i
		for i < len(have) && !have[i] {
			i++
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(start))
		dst = binary.BigEndian.AppendUint32(dst, uint32(i-start))
		ranges++
	}
	binary.BigEndian.PutUint32(dst[countAt:], ranges)
	return dst
}

// decodeMissing marks the chunks an RLE list names in missing, which has
// one entry per chunk of the file and starts all false, bounding every
// count against that length to defuse hostile lists.
func decodeMissing(r *encoding.Reader, missing []bool) error {
	total := len(missing)
	n := int(r.Uint32())
	if err := r.Err(); err != nil {
		return err
	}
	if n > total {
		return fmt.Errorf("filetransfer: %d ranges for %d chunks: %w", n, total, encoding.ErrCorrupt)
	}
	expanded := 0
	for i := 0; i < n; i++ {
		start := r.Uint32()
		count := r.Uint32()
		if err := r.Err(); err != nil {
			return err
		}
		if count == 0 || int(start)+int(count) > total {
			return fmt.Errorf("filetransfer: range (%d,%d) beyond %d chunks: %w",
				start, count, total, encoding.ErrCorrupt)
		}
		if expanded += int(count); expanded > total {
			return fmt.Errorf("filetransfer: expanded ranges exceed %d chunks: %w",
				total, encoding.ErrCorrupt)
		}
		for c := start; c < start+count; c++ {
			missing[c] = true
		}
	}
	return nil
}
