package index

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// mapKeys is the fuzz model's key space: 1,024 names, enough to take the
// table from 64 buckets through four doublings.
var mapKeys = func() []string {
	ks := make([]string, 1024)
	for i := range ks {
		ks[i] = fmt.Sprintf("f%04d", i)
	}
	return ks
}()

// FuzzMapModel runs put, putIfAbsent, delete, get, range and len
// sequences against a Go map. Each op is three bytes: the op, then a
// key index. A bulk op inserts 128 keys at once so short inputs cross
// the grow boundaries; a range op deletes what it visits from inside
// its callback, which a lock-free Range allows.
func FuzzMapModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1})
	f.Add([]byte{6, 0, 0, 6, 0, 128, 4, 0, 0, 7, 0, 0, 5, 0, 0})
	f.Add([]byte{6, 1, 0, 6, 2, 0, 6, 3, 0, 2, 1, 5, 0, 1, 5, 1, 1, 5, 3, 1, 5, 4, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewMap[int]()
		ref := map[string]int{}
		for i := 0; i+2 < len(ops); i += 3 {
			k := (int(ops[i+1])<<8 | int(ops[i+2])) % len(mapKeys)
			key := mapKeys[k]
			switch ops[i] % 8 {
			case 0:
				_, had := ref[key]
				if m.Put(key, i) == had {
					t.Fatalf("op %d: Put(%s) inserted=%v, model had=%v", i, key, !had, had)
				}
				ref[key] = i
			case 1:
				_, had := ref[key]
				if m.PutIfAbsent(key, i) == had {
					t.Fatalf("op %d: PutIfAbsent(%s) stored=%v, model had=%v", i, key, !had, had)
				}
				if !had {
					ref[key] = i
				}
			case 2:
				_, had := ref[key]
				if m.Delete(key) != had {
					t.Fatalf("op %d: Delete(%s) != model %v", i, key, had)
				}
				delete(ref, key)
			case 3:
				want, had := ref[key]
				if got, ok := m.Get(key); ok != had || got != want {
					t.Fatalf("op %d: Get(%s) = %d,%v, model %d,%v", i, key, got, ok, want, had)
				}
			case 4:
				seen := map[string]bool{}
				m.Range(func(rk string, v int) bool {
					if seen[rk] {
						t.Fatalf("op %d: Range visited %s twice", i, rk)
					}
					seen[rk] = true
					if want, ok := ref[rk]; !ok || want != v {
						t.Fatalf("op %d: Range saw %s=%d, model %d,%v", i, rk, v, want, ok)
					}
					return true
				})
				if len(seen) != len(ref) {
					t.Fatalf("op %d: Range visited %d keys, model has %d", i, len(seen), len(ref))
				}
			case 5:
				if m.Len() != len(ref) {
					t.Fatalf("op %d: Len = %d, model %d", i, m.Len(), len(ref))
				}
			case 6:
				for j := 0; j < 128; j++ {
					bk := mapKeys[(k+j)%len(mapKeys)]
					m.Put(bk, i+j)
					ref[bk] = i + j
				}
			case 7:
				// Delete from inside Range every entry with an odd value.
				m.Range(func(rk string, v int) bool {
					if v%2 == 1 {
						if !m.Delete(rk) {
							t.Fatalf("op %d: Delete(%s) inside Range found nothing", i, rk)
						}
						delete(ref, rk)
					}
					return true
				})
			}
			if n, b := m.Len(), len(m.tab.Load().buckets); n > b {
				t.Fatalf("op %d: %d entries in %d buckets: load factor above 1", i, n, b)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("end: Len = %d, model %d", m.Len(), len(ref))
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("end: Get(%s) = %d,%v, model %d", k, got, ok, want)
			}
		}
	})
}

// TestMapReadersDuringGrow races lock-free readers against writers that
// insert, replace and delete through several doublings. A value carries
// the id of the key it was stored under in its high half, so a reader
// can tell a value that was never stored under its key; the stable keys
// are present throughout (only ever replaced), so every Get and every
// Range must find each of them. Each of the first shadows stable keys
// has a shadow key of the same bucket at every table size, which a
// churner inserts (at the chain's head, in front of it) and deletes over
// and over: a reader standing on a shadow as it is unlinked must still
// walk on to the stable key.
func TestMapReadersDuringGrow(t *testing.T) {
	const (
		stable  = 64
		shadows = 16
		writers = 2
		inserts = 4096 // per writer: 64 buckets to 16,384, eight doublings
		readers = 3
	)
	keys := make([]string, stable+writers*inserts, stable+writers*inserts+shadows)
	ids := make(map[string]uint64, cap(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
		ids[keys[i]] = uint64(i)
	}
	const finalMask = 1<<14 - 1 // the table ends at 16,384 buckets
	for i := 0; i < shadows; i++ {
		want := fnv1a(keys[i]) & finalMask
		for n := 0; ; n++ {
			if k := fmt.Sprintf("s%02d-%d", i, n); fnv1a(k)&finalMask == want {
				ids[k] = uint64(len(keys))
				keys = append(keys, k)
				break
			}
		}
	}
	shadow := keys[stable+writers*inserts:]
	val := func(id, version uint64) uint64 { return id<<32 | version }

	m := NewMap[uint64]()
	for i := 0; i < stable; i++ {
		m.Put(keys[i], val(uint64(i), 0))
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := stable + w*inserts
			for i := 0; i < inserts; i++ {
				id := uint64(base + i)
				m.Put(keys[id], val(id, 1))
				// Replace a stable key: its entry is swapped, never absent.
				s := uint64((i*7 + w) % stable)
				m.Put(keys[s], val(s, uint64(i+1)))
				// Churn: drop and restore a key inserted earlier.
				if i%4 == 3 {
					old := uint64(base + i/2)
					m.Delete(keys[old])
					m.PutIfAbsent(keys[old], val(old, 2))
				}
			}
		}(w)
	}

	// The shadow churner puts each shadow in front of its stable key and
	// unlinks it again, until the readers are done.
	var stop atomic.Bool
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for !stop.Load() {
			for _, sk := range shadow {
				m.PutIfAbsent(sk, val(ids[sk], 1))
				m.Delete(sk)
			}
		}
	}()

	errs := make(chan error, readers)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for pass := 0; ; pass++ {
				last := done.Load() // one full pass after the writers stop
				for i := 0; i < stable; i++ {
					v, ok := m.Get(keys[i])
					if !ok {
						errs <- fmt.Errorf("reader %d: stable key %s not found", r, keys[i])
						return
					}
					if v>>32 != uint64(i) {
						errs <- fmt.Errorf("reader %d: %s = id %d, never stored under it", r, keys[i], v>>32)
						return
					}
				}
				for i := stable + pass%7; i < len(keys); i += 7 {
					if v, ok := m.Get(keys[i]); ok && v>>32 != uint64(i) {
						errs <- fmt.Errorf("reader %d: %s = id %d, never stored under it", r, keys[i], v>>32)
						return
					}
				}
				if pass%4 == r%4 {
					seen := make(map[string]bool, m.Len())
					var bad error
					m.Range(func(k string, v uint64) bool {
						switch {
						case seen[k]:
							bad = fmt.Errorf("reader %d: Range visited %s twice", r, k)
						case v>>32 != ids[k]:
							bad = fmt.Errorf("reader %d: Range saw %s = id %d", r, k, v>>32)
						}
						seen[k] = true
						return bad == nil
					})
					for i := 0; bad == nil && i < stable; i++ {
						if !seen[keys[i]] {
							bad = fmt.Errorf("reader %d: Range missed stable key %s", r, keys[i])
						}
					}
					if bad != nil {
						errs <- bad
						return
					}
				}
				if last {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	stop.Store(true)
	cwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if want := stable + writers*inserts; m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
	if b := len(m.tab.Load().buckets); b < m.Len() {
		t.Fatalf("%d entries in %d buckets: load factor above 1", m.Len(), b)
	}
}
