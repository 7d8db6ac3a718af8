package encoding

import (
	"unsafe"

	"uavmw/internal/presentation"
)

// This file is the package's only use of unsafe. decodeValue lays the wider
// scalars of one decoded struct or sequence side by side in a single
// allocation, a slab, and hands out interfaces whose data words point into
// it, where boxing each scalar on its own costs one allocation apiece.
//
// It relies on the layout of an empty interface: two words, the dynamic
// type's runtime descriptor (the type word) and, for a type that is not
// pointer-shaped (every scalar here), a pointer to the value (the data
// word). eface mirrors that layout. The type words are read at init from
// ordinary boxes, any(T(0)), so no runtime descriptor is spelled out here.
//
// Rules that keep it sound:
//   - a fresh slab per decoded value, never pooled or reused: a handler may
//     keep the value or any one field forever;
//   - every slot is written before its interface is made and never after,
//     so a field is as immutable as an ordinary box;
//   - only pointer-free scalars go in, so the slab is a noscan object, kept
//     alive by the interior pointers of the interfaces into it.
type eface struct {
	typ, data unsafe.Pointer
}

func typeWord(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

// typeWords is the type word of each boxable kind's canonical Go type.
var typeWords = [...]unsafe.Pointer{
	presentation.KindInt16:   typeWord(int16(0)),
	presentation.KindInt32:   typeWord(int32(0)),
	presentation.KindInt64:   typeWord(int64(0)),
	presentation.KindUint16:  typeWord(uint16(0)),
	presentation.KindUint32:  typeWord(uint32(0)),
	presentation.KindUint64:  typeWord(uint64(0)),
	presentation.KindFloat32: typeWord(float32(0)),
	presentation.KindFloat64: typeWord(float64(0)),
}

// slab is the scalar storage of one decoded value and the offset of its
// next free byte. The zero slab has no storage.
type slab struct {
	base unsafe.Pointer
	off  int
}

// newSlab allocates size zeroed bytes, 8-byte aligned and pointer-free.
func newSlab(size int) slab {
	return slab{base: unsafe.Pointer(unsafe.SliceData(make([]uint64, (size+7)/8)))}
}

// box reads a scalar of boxable kind k from r into the next naturally
// aligned slot and returns it boxed in place. Stored as raw bits of its
// width, a signed or float value reads back as itself through its type.
func (s *slab) box(r *Reader, k presentation.Kind) any {
	w := boxWidth(k)
	s.off = alignUp(s.off, w)
	p := unsafe.Add(s.base, s.off)
	s.off += w
	switch w {
	case 2:
		*(*uint16)(p) = r.Uint16()
	case 4:
		*(*uint32)(p) = r.Uint32()
	default:
		*(*uint64)(p) = r.Uint64()
	}
	return *(*any)(unsafe.Pointer(&eface{typeWords[k], p}))
}
