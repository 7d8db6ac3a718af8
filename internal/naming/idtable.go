package naming

// idTable interns the values of one vocabulary as dense uint32 ids. Each
// id counts the bindings that use it and is recycled when the last one
// goes, so the table holds what the cache holds and no more. The zero
// value is ready to use; the owner's lock guards it.
type idTable[T comparable] struct {
	ids  map[T]uint32
	vals []T
	refs []uint32
	free []uint32
}

// id reports v's id while some binding uses it.
func (t *idTable[T]) id(v T) (uint32, bool) {
	id, ok := t.ids[v]
	return id, ok
}

// ref returns v's id, assigning one if v is new, and counts one more use.
func (t *idTable[T]) ref(v T) uint32 {
	if id, ok := t.ids[v]; ok {
		t.refs[id]++
		return id
	}
	if t.ids == nil {
		t.ids = make(map[T]uint32)
	}
	var id uint32
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.vals[id], t.refs[id] = v, 1
	} else {
		id = uint32(len(t.vals))
		t.vals = append(t.vals, v)
		t.refs = append(t.refs, 1)
	}
	t.ids[v] = id
	return id
}

// unref drops one use of id, recycling it after the last.
func (t *idTable[T]) unref(id uint32) {
	if t.refs[id]--; t.refs[id] > 0 {
		return
	}
	delete(t.ids, t.vals[id])
	var zero T
	t.vals[id] = zero
	t.free = append(t.free, id)
}

func (t *idTable[T]) val(id uint32) T { return t.vals[id] }
