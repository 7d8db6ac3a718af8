// Package intern maps the short identifier strings that arrive on every
// datagram (sender node ids, group and channel names) to shared strings.
// Converting the raw bytes to a string per packet would be one heap
// allocation per datagram; the population of distinct names on a
// deployment is tiny, so a bounded lookaside table makes the conversion
// allocation-free after first sight. Once a table is full, unseen names
// fall back to plain allocation rather than evicting: an adversarial flood
// of unique names degrades to the old cost, it cannot poison the table.
// Keep one table per vocabulary, so a flood of one kind of name cannot
// crowd out another.
package intern

import "sync"

// maxEntries bounds the names one table keeps.
const maxEntries = 4096

// Table is one bounded interning table. The zero value is ready to use.
type Table struct {
	mu  sync.RWMutex
	tab map[string]string
}

// String returns a canonical string for b without allocating on the hit
// path (the compiler recognizes the map[string(b)] lookup idiom).
func (t *Table) String(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	t.mu.RLock()
	s, ok := t.tab[string(b)]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.tab[string(b)]; ok {
		return s
	}
	s = string(b)
	if t.tab == nil {
		t.tab = make(map[string]string, 64)
	}
	if len(t.tab) < maxEntries {
		t.tab[s] = s
	}
	return s
}
