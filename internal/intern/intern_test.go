package intern

import (
	"strconv"
	"testing"
	"unsafe"
)

// interned reports whether tab hands back one shared string for name.
func interned(tab *Table, name string) bool {
	return unsafe.StringData(tab.String([]byte(name))) == unsafe.StringData(tab.String([]byte(name)))
}

// TestHitIsSharedAndFree: a name seen once comes back as the same string,
// and looking it up again allocates nothing.
func TestHitIsSharedAndFree(t *testing.T) {
	var tab Table
	if !interned(&tab, "uav-1") {
		t.Fatal("second lookup returned a fresh copy, want the interned string")
	}
	raw := []byte("uav-1")
	if allocs := testing.AllocsPerRun(100, func() { _ = tab.String(raw) }); allocs != 0 {
		t.Errorf("hit: %v allocs/op, want 0", allocs)
	}
	if got := tab.String(nil); got != "" {
		t.Errorf("empty name = %q", got)
	}
}

// TestFloodIsBoundedPerTable: names past maxEntries are converted but not
// kept, and a flood into one table leaves another's names in place.
func TestFloodIsBoundedPerTable(t *testing.T) {
	var ids, channels Table
	if !interned(&ids, "gs") {
		t.Fatal("id not interned")
	}
	for i := 0; i < 2*maxEntries; i++ {
		name := "c" + strconv.Itoa(i)
		if got := channels.String([]byte(name)); got != name {
			t.Fatalf("String(%q) = %q", name, got)
		}
	}
	if !interned(&channels, "c0") {
		t.Error("a name seen before the table filled is no longer shared")
	}
	if interned(&channels, "unseen") {
		t.Error("a full table kept a new name")
	}
	if !interned(&ids, "gs") {
		t.Error("the other table lost its name to the flood")
	}
}
