package index

import (
	"sync"
	"sync/atomic"
)

// hashStripes is the number of writer locks. Writers of different
// buckets serialize only when their buckets are congruent mod 64; the
// locks are striped rather than per bucket so a grow does not have to
// reallocate them.
const hashStripes = 64

// Map is the resizable chained hash table ArckFS keeps per directory
// (FPFS keeps one globally keyed by full path, KVFS one of its values).
// It maps a string name to a value of type V.
//
// Readers take no lock. Bucket heads and next links are atomic pointers
// to entries whose hash, key and value never change once published;
// a writer links, unlinks or swaps entries under its bucket's stripe
// mutex, so a reader walking a chain concurrently sees each key either
// before or after the write, never a torn entry. A Put of an existing
// key publishes a replacement entry in the old one's place. The table
// doubles, under every stripe, once there are more entries than
// buckets; a reader still on the old table walks its frozen chains.
type Map[V any] struct {
	locks [hashStripes]sync.Mutex
	tab   atomic.Pointer[hashTable[V]]
	size  atomic.Int64
}

type hashTable[V any] struct {
	buckets []atomic.Pointer[hashEntry[V]]
	mask    uint64
}

type hashEntry[V any] struct {
	hash uint64
	key  string
	val  V
	next atomic.Pointer[hashEntry[V]]
}

// NewMap returns an empty table with a small initial bucket count.
func NewMap[V any]() *Map[V] {
	m := &Map[V]{}
	m.tab.Store(newHashTable[V](64))
	return m
}

func newHashTable[V any](n int) *hashTable[V] {
	return &hashTable[V]{buckets: make([]atomic.Pointer[hashEntry[V]], n), mask: uint64(n - 1)}
}

// fnv1a hashes the key; inlined to avoid the hash/fnv allocation.
func fnv1a(s string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Len reports the number of entries.
func (m *Map[V]) Len() int { return int(m.size.Load()) }

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) {
	h := fnv1a(key)
	t := m.tab.Load()
	for e := t.buckets[h&t.mask].Load(); e != nil; e = e.next.Load() {
		if e.hash == h && e.key == key {
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Put stores val under key, replacing any existing value. It reports
// whether the key was newly inserted.
func (m *Map[V]) Put(key string, val V) bool { return m.put(key, val, true) }

// PutIfAbsent stores val under key only when absent; it reports whether
// the store happened. This is the insert path for create(2), where "no
// file shares the same name under one directory" must hold atomically.
func (m *Map[V]) PutIfAbsent(key string, val V) bool { return m.put(key, val, false) }

// put inserts key, or replaces its entry when replace is set; it
// reports whether the key was newly inserted.
func (m *Map[V]) put(key string, val V, replace bool) bool {
	h := fnv1a(key)
	l := &m.locks[h%hashStripes]
	l.Lock()
	t := m.tab.Load() // current: a grow holds every stripe
	head := &t.buckets[h&t.mask]
	link := head
	for e := link.Load(); e != nil; e = link.Load() {
		if e.hash == h && e.key == key {
			if replace {
				ne := &hashEntry[V]{hash: h, key: key, val: val}
				ne.next.Store(e.next.Load())
				link.Store(ne)
			}
			l.Unlock()
			return false
		}
		link = &e.next
	}
	ne := &hashEntry[V]{hash: h, key: key, val: val}
	ne.next.Store(head.Load())
	head.Store(ne)
	n := m.size.Add(1)
	l.Unlock()
	if n > int64(len(t.buckets)) {
		m.grow(t)
	}
	return true
}

// Delete removes key and reports whether it was present. The unlinked
// entry keeps its next link, so a reader standing on it walks on.
func (m *Map[V]) Delete(key string) bool {
	h := fnv1a(key)
	l := &m.locks[h%hashStripes]
	l.Lock()
	defer l.Unlock()
	t := m.tab.Load()
	link := &t.buckets[h&t.mask]
	for e := link.Load(); e != nil; e = link.Load() {
		if e.hash == h && e.key == key {
			link.Store(e.next.Load())
			m.size.Add(-1)
			return true
		}
		link = &e.next
	}
	return false
}

// grow doubles the bucket array. It takes every stripe lock, so no
// writer runs while it copies; the old table's chains are left as they
// are for the readers still walking them.
func (m *Map[V]) grow(old *hashTable[V]) {
	for i := range m.locks {
		m.locks[i].Lock()
	}
	defer func() {
		for i := len(m.locks) - 1; i >= 0; i-- {
			m.locks[i].Unlock()
		}
	}()
	t := m.tab.Load()
	if t != old {
		return // someone else already grew it
	}
	nt := newHashTable[V](len(t.buckets) * 2)
	for i := range t.buckets {
		for e := t.buckets[i].Load(); e != nil; e = e.next.Load() {
			b := &nt.buckets[e.hash&nt.mask]
			ne := &hashEntry[V]{hash: e.hash, key: e.key, val: e.val}
			ne.next.Store(b.Load())
			b.Store(ne)
		}
	}
	m.tab.Store(nt)
}

// Range calls fn for every entry until fn returns false, in unspecified
// order. It walks the table current at the call, taking no lock, so fn
// may call any method of the Map. Each key is visited at most once; a
// key stored or deleted during the walk may or may not be visited.
func (m *Map[V]) Range(fn func(key string, val V) bool) {
	t := m.tab.Load()
	for i := range t.buckets {
		for e := t.buckets[i].Load(); e != nil; e = e.next.Load() {
			if !fn(e.key, e.val) {
				return
			}
		}
	}
}
