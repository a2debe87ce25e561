// inoTable is a dense ino-indexed replacement for map[core.Ino]T on
// the controller's global tables. Inode numbers are issued by a
// monotone batched counter (alloc.InoAlloc) starting just past the
// scanned tree, so the key space is dense from zero and direct slice
// indexing beats hashing: the adoption fast path consults allocBy on
// every create, and with crossings batched those lookups were the
// single largest real-CPU consumer after the modeled device charges
// (hash probes over a table with one entry per ino ever issued).
//
// Locking is inherited from the table's slot in the controller: the
// global tables are guarded by tabMu on the fast paths, and lockAll
// sections (which exclude every fast path) may touch them directly —
// exactly the discipline the maps required, so swapping the container
// changes no happens-before edges. Growth reallocates the backing
// array, which is a write like any other.
package controller

import "trio/internal/core"

type inoTable[T any] struct {
	vals    []T
	present []bool
	n       int // live entries
}

// get returns the entry for ino. Bounds-checked both ways: lookups are
// performed on inos read from untrusted core state, which corruption
// can set to anything (including values negative as an int).
func (t *inoTable[T]) get(ino core.Ino) (T, bool) {
	if i := int(ino); i >= 0 && i < len(t.vals) && t.present[i] {
		return t.vals[i], true
	}
	var zero T
	return zero, false
}

// has reports whether ino has an entry.
func (t *inoTable[T]) has(ino core.Ino) bool {
	i := int(ino)
	return i >= 0 && i < len(t.vals) && t.present[i]
}

// set installs (or overwrites) the entry for ino, growing the table to
// cover it. Growth is amortized: the allocator issues inos densely, so
// the table tracks the high-water mark with slack.
func (t *inoTable[T]) set(ino core.Ino, v T) {
	i := int(ino)
	if i >= len(t.vals) {
		newLen := i + 1
		if min := 2 * len(t.vals); newLen < min {
			newLen = min
		}
		vals := make([]T, newLen)
		copy(vals, t.vals)
		present := make([]bool, newLen)
		copy(present, t.present)
		t.vals, t.present = vals, present
	}
	if !t.present[i] {
		t.present[i] = true
		t.n++
	}
	t.vals[i] = v
}

// del removes the entry for ino (no-op when absent).
func (t *inoTable[T]) del(ino core.Ino) {
	if i := int(ino); i >= 0 && i < len(t.vals) && t.present[i] {
		var zero T
		t.vals[i] = zero
		t.present[i] = false
		t.n--
	}
}

// count reports the number of live entries.
func (t *inoTable[T]) count() int { return t.n }

// forEach visits every live entry in ino order until f returns false.
// O(high-water mark), for the cold full-registry walks only.
func (t *inoTable[T]) forEach(f func(core.Ino, T) bool) {
	for i := range t.vals {
		if t.present[i] && !f(core.Ino(i), t.vals[i]) {
			return
		}
	}
}
