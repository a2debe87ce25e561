// Package mmu simulates the hardware memory-management unit that Trio
// relies on for access control (paper §2.1, §3.2).
//
// The kernel controller owns the nvm.Device; untrusted LibFSes only ever
// hold an AddressSpace. Every load and store goes through the address
// space, which checks the page's mapped permission and faults (returns
// ErrFault) on violation — the software analogue of a SIGSEGV.
//
// This is the enforcement point of the whole architecture: within a
// mapped page a LibFS (or a malicious application) can write arbitrary
// bytes — corrupting metadata at will, exactly as the paper's threat
// model allows — but it can never touch a page the controller did not
// map for it, and it can never write through a read-only mapping.
//
// The page table has two page sizes, as hardware does and for hardware's
// reason: a mapping call over a long run should cost page-table words,
// not pages. A run the controller maps is held by one word per aligned
// 32-page granule it covers whole and by one word per page at its ragged
// ends; a call that treats part of a large-mapped granule differently
// from the rest splits it into its pages first. Which size holds a page
// is a function of alignment and of what the table holds, nothing a
// caller chooses, and no caller can observe it: PermOf, Mapped and the
// reports of Ref and Unref speak of pages.
package mmu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// Perm is a page permission.
type Perm uint8

const (
	// PermNone means unmapped.
	PermNone Perm = 0
	// PermRead allows loads.
	PermRead Perm = 1
	// PermWrite allows loads and stores.
	PermWrite Perm = 2
)

func (p Perm) String() string {
	switch p {
	case PermNone:
		return "none"
	case PermRead:
		return "r"
	case PermWrite:
		return "rw"
	}
	return fmt.Sprintf("Perm(%d)", uint8(p))
}

// A page-table word holds the permission in its low bits and, next to
// it, the hardware dirty bit: the MMU sets it on the first store through
// the mapping and only the controller's unmap clears it. The remaining
// bits are software-available, as in a hardware PTE — the access checks
// ignore them — and hold the page's reference count (Ref/Unref), so a
// session's refcounts cost no memory beyond the page table itself.
const (
	ptePerm  = 0x3
	pteDirty = 0x4
	pteRef   = 0x8 // one reference; the count occupies the bits from here up
)

// A large word maps one aligned granule of granulePages pages: its upper
// half is a page word without the dirty bit — the permission and the
// reference count every page of the granule has — and its lower half is
// the granule's dirty bits, one per page. They share the word so that the
// page walk's rule holds at this size too: a store sets its bit with a
// CAS from the word whose permission it checked, and the swap that
// unmaps the granule is the operation that collects all 32. The size is
// what one word can say: 32 dirty bits beside a permission and a count.
// Fixed, like the hardware's: a 2 MiB file is 16 of them. The constant
// is nvm's: the checksum region's open bits use it too.
const (
	granuleShift = nvm.GranuleShift
	granulePages = nvm.GranulePages
	lgDirty      = 1<<32 - 1
	lgPerm       = ptePerm << 32
	lgRef        = pteRef << 32
)

// largePerm reads the permission of a large word.
func largePerm(w uint64) Perm { return Perm(w >> 32 & ptePerm) }

// ErrFault is the access violation "signal".
var ErrFault = errors.New("mmu: access violation")

// ErrRevoked is the fault raised on any access through an address space
// whose process the controller has reaped. It wraps ErrFault — to the
// untrusted side it is just a segfault — but carries the distinction so
// trusted code (and tests) can tell a revocation from a stale mapping.
var ErrRevoked = fmt.Errorf("%w: address space revoked", ErrFault)

// Fault is the error of a refused access: which page, what the access
// needed and what was mapped, or that the whole address space is revoked.
// errors.Is matches it to ErrFault (and ErrRevoked when Revoked). Taking
// a fault is how a LibFS learns it must ask for a mapping, so one costs
// an allocation and is put into words only if somebody prints it.
type Fault struct {
	Page      nvm.PageID
	Need, Got Perm
	Revoked   bool
}

func (f *Fault) Error() string {
	if f.Revoked {
		return fmt.Sprintf("%v (page %d)", ErrRevoked, f.Page)
	}
	return fmt.Sprintf("%v: page %d needs %v, mapped %v", ErrFault, f.Page, f.Need, f.Got)
}

// Is reports whether target is the sentinel this fault stands for.
func (f *Fault) Is(target error) bool {
	return target == ErrFault || f.Revoked && target == ErrRevoked
}

// AddressSpace is one process's view of the NVM device.
//
// Map and Unmap are invoked by the kernel controller only; the
// controller hands the untrusted LibFS an AddressSpace whose mapping
// table it alone mutates. (In Go the privilege separation is an API
// discipline rather than a hardware ring, but the untrusted code paths
// in this repository never call Map/Unmap themselves — they ask the
// controller, which validates the request first.) The mapping calls —
// Map, Unmap, Ref, Unref, UnmapAll, Revoke, HarvestDirty — race loads
// and stores freely but not one another: the controller makes them
// under the lock of the session that owns the address space.
type AddressSpace struct {
	dev *nvm.Device

	// perms is a flat page table: one word (permission + dirty bit) per
	// device page, indexed by nvm.PageID — the same shape hardware gives
	// real systems. Permission checks on every load/store are single
	// atomic loads that proceed without serializing against each other
	// (a store's first touch of a clean page adds one CAS), while
	// map/unmap (the slow, controller-mediated path) swaps entries
	// concurrently.
	perms []atomic.Uint32
	// large is the table of the second page size, one word per aligned
	// granule (a device's ragged last granule has a word that stays
	// zero). One level holds a page at a time: while a granule's large
	// word is non-zero its 32 page words are zero — but for the instant
	// of a split, when both say the same.
	large []atomic.Uint64
	// small counts each granule's non-zero page words. Zero is what lets
	// a whole-granule Ref or Map install a large word; only the mapping
	// calls touch it.
	small []uint8
	// mapped counts installed pages.
	mapped atomic.Int64

	// revoked is set by the controller when it reaps the owning process
	// (Reap): every subsequent access faults with ErrRevoked, including
	// accesses already in flight on delegation workers.
	revoked atomic.Bool

	// shoot is the TLB-shootdown barrier. Every access holds it shared
	// across the permission check AND the device operation; Revoke takes
	// it exclusively, so when Revoke returns no access that passed a
	// pre-revocation check is still landing. Without this the reaper's
	// verification walks would race the dying process's (or its
	// delegation workers') last in-flight stores — a real kernel gets the
	// same guarantee from the shootdown IPIs.
	shoot sync.RWMutex

	// home is the view from the NUMA node of the CPU this address space's
	// process is running on (the node feeds the cost model's
	// remote-access penalty); the address space's own accessors are its.
	home View
}

// NewAddressSpace creates an empty address space for a process whose
// CPUs live on the given NUMA node.
func NewAddressSpace(dev *nvm.Device, node int) *AddressSpace {
	granules := (dev.NumPages() + granulePages - 1) >> granuleShift
	as := &AddressSpace{
		dev:   dev,
		perms: make([]atomic.Uint32, dev.NumPages()),
		large: make([]atomic.Uint64, granules),
		small: make([]uint8, granules),
	}
	as.home = View{as: as, node: node}
	return as
}

// Device exposes the underlying device; used by trusted components that
// share an address space object (the controller) — untrusted code holds
// the AddressSpace only through the narrower access methods.
func (as *AddressSpace) Device() *nvm.Device { return as.dev }

// Node reports the NUMA node of the owning process.
func (as *AddressSpace) Node() int { return as.home.node }

// clip bounds the run [p, p+count) to the device: pages beyond it are
// ignored by every mapping call (they can never check as mapped).
func (as *AddressSpace) clip(p nvm.PageID, count int) (lo, hi uint64) {
	lo, n := uint64(p), uint64(len(as.perms))
	if count <= 0 || lo >= n {
		return 0, 0
	}
	return lo, min(lo+uint64(count), n)
}

// A mapping call walks its run granule by granule: part cuts the piece
// [a, b) of [a, hi) that lies in a's granule, and largeFor says which
// level holds it.

func part(a, hi uint64) (b uint64) { return min(hi, a|(granulePages-1)+1) }

// largeFor returns the large word a mapping call acts on for [a, b), the
// part of its run inside one granule, or nil when the call acts on the
// pages' own words. A whole granule goes by its large word when that
// holds it, and when nothing does — the call's own install is then a
// large one; a ragged part of a large-mapped granule splits it first.
func (as *AddressSpace) largeFor(a, b uint64) *atomic.Uint64 {
	g := a >> granuleShift
	lw := &as.large[g]
	switch held := lw.Load() != 0; {
	case b-a == granulePages && (held || as.small[g] == 0):
		return lw
	case held:
		as.split(g)
	}
	return nil
}

// split turns granule g's large mapping into 32 page mappings with the
// same permission, reference count and dirty bits. The page words go in
// first and the swap that retires the large word second, so an access
// finds the permission on one level or on both, never on neither; a
// store that set its dirty bit in the large word after the bits were
// copied shows in what the swap returns, and is carried over then — seen
// on one side or the other, never lost.
func (as *AddressSpace) split(g uint64) {
	as.splitRetire(g, as.splitInstall(g))
	mSplits.Inc()
}

// splitInstall writes granule g's page words from its large word and
// returns the large word it copied.
func (as *AddressSpace) splitInstall(g uint64) (w uint64) {
	w = as.large[g].Load()
	for i, base := uint64(0), g<<granuleShift; i < granulePages; i++ {
		as.perms[base+i].Store(uint32(w>>32) | uint32(w>>i&1)*pteDirty)
	}
	as.small[g] = granulePages
	return w
}

// splitRetire zeroes granule g's large word, of which splitInstall
// copied w, and marks the pages stored to in between.
func (as *AddressSpace) splitRetire(g, w uint64) {
	for late := as.large[g].Swap(0) &^ w & lgDirty; late != 0; late &= late - 1 {
		pte := &as.perms[g<<granuleShift+uint64(bits.TrailingZeros64(late))]
		for old := pte.Load(); !pte.CompareAndSwap(old, old|pteDirty); old = pte.Load() {
		}
	}
}

// Map installs pages [p, p+count) with exactly permission perm, read or
// write (Unmap removes). A page that is already mapped keeps its dirty
// bit and its reference count.
func (as *AddressSpace) Map(p nvm.PageID, count int, perm Perm) {
	lo, hi := as.clip(p, count)
	fresh, words := 0, 0
	for a, b := lo, lo; a < hi; a = b {
		b = part(a, hi)
		if lw := as.largeFor(a, b); lw != nil {
			words++
			for old := lw.Load(); largePerm(old) != perm; old = lw.Load() {
				if lw.CompareAndSwap(old, old&^lgPerm|uint64(perm)<<32) {
					if old == 0 {
						fresh += granulePages
						mLargeInstalls.Inc()
					}
					break
				}
			}
			continue
		}
		words += int(b - a)
		for i := a; i < b; i++ {
			pte := &as.perms[i]
			for old := pte.Load(); old&ptePerm != uint32(perm); old = pte.Load() {
				if pte.CompareAndSwap(old, old&^ptePerm|uint32(perm)) {
					if old == 0 {
						fresh++
						as.small[i>>granuleShift]++
					}
					break
				}
			}
		}
	}
	as.mapped.Add(int64(fresh))
	mPTWords.Add(int64(words))
}

// Unmap removes pages [p, p+count) whatever their reference counts and
// forgets their dirty bits. The releases that harvest dirty bits — the
// only way one is read — are Unref and Revoke; like Map, all of them are
// the controller's alone.
func (as *AddressSpace) Unmap(p nvm.PageID, count int) {
	lo, hi := as.clip(p, count)
	gone, words := 0, 0
	for a, b := lo, lo; a < hi; a = b {
		b = part(a, hi)
		if lw := as.largeFor(a, b); lw != nil {
			words++
			if lw.Swap(0) != 0 {
				gone += granulePages
			}
			continue
		}
		words += int(b - a)
		for i := a; i < b; i++ {
			if as.perms[i].Swap(0) != 0 {
				gone++
				as.small[i>>granuleShift]--
			}
		}
	}
	as.mapped.Add(int64(-gone))
	mPTWords.Add(int64(words))
}

// Ref takes one reference on each page of [p, p+count) and maps it with
// at least perm: a page mapped with less is raised, a page mapped with
// more keeps what it has. raised (may be nil) is called, a run of pages
// at a time, for every page whose permission this call raised — a whole
// granule's, or the consecutive raised pages at a ragged end. One
// atomic swap per page-table word — a whole granule's, or a page's at
// the run's ragged ends — and one update of the mapped count per run.
func (as *AddressSpace) Ref(p nvm.PageID, count int, perm Perm, raised func(start nvm.PageID, n int)) {
	lo, hi := as.clip(p, count)
	fresh, words := 0, 0
	for a, b := lo, lo; a < hi; a = b {
		b = part(a, hi)
		if lw := as.largeFor(a, b); lw != nil {
			words++
			for {
				old := lw.Load()
				word, was := old+lgRef, largePerm(old)
				if was < perm {
					word = word&^lgPerm | uint64(perm)<<32
				}
				if !lw.CompareAndSwap(old, word) {
					continue // a store marked a page dirty under us
				}
				if was < perm {
					if was == PermNone {
						fresh += granulePages
						mLargeInstalls.Inc()
					}
					if raised != nil {
						raised(nvm.PageID(a), granulePages)
					}
				}
				break
			}
			continue
		}
		words += int(b - a)
		run := reportRun{raised: raised}
		for i := a; i < b; i++ {
			pte := &as.perms[i]
			for {
				old := pte.Load()
				word, was := old+pteRef, Perm(old&ptePerm)
				if was < perm {
					word = word&^ptePerm | uint32(perm)
				}
				if !pte.CompareAndSwap(old, word) {
					continue // a store marked the page dirty under us
				}
				if old == 0 {
					as.small[i>>granuleShift]++
				}
				if was < perm {
					if was == PermNone {
						fresh++
					}
					run.push(i, PermNone, false)
				}
				break
			}
		}
		run.flush()
	}
	as.mapped.Add(int64(fresh))
	mPTWords.Add(int64(words))
}

// reportRun gathers the per-page reports of one granule's page words
// into runs: consecutive pages reported alike — raised, or unmapped with
// the same permission — go to the callback as one call, so a run's
// ragged end costs one report, not one per page. A run never leaves its
// granule, so its dirty bits fit the report's 32. One of the callbacks
// is set (or neither: nobody listens).
type reportRun struct {
	start    uint64
	n        int
	was      Perm
	dirty    uint32
	raised   func(start nvm.PageID, n int)
	unmapped func(start nvm.PageID, n int, was Perm, dirty uint32)
}

// push adds page i, first reporting a run it does not extend.
func (r *reportRun) push(i uint64, was Perm, dirty bool) {
	if r.n > 0 && (r.start+uint64(r.n) != i || r.was != was) {
		r.flush()
	}
	if r.n == 0 {
		r.start, r.was, r.dirty = i, was, 0
	}
	if dirty {
		r.dirty |= 1 << r.n
	}
	r.n++
}

// flush reports the gathered run and empties it.
func (r *reportRun) flush() {
	switch {
	case r.n == 0:
	case r.raised != nil:
		r.raised(nvm.PageID(r.start), r.n)
	case r.unmapped != nil:
		r.unmapped(nvm.PageID(r.start), r.n, r.was, r.dirty)
	}
	r.n = 0
}

// Unref drops one reference from each page of [p, p+count). Pages
// whose last reference this was are unmapped and reported to unmapped
// (may be nil), a run [start, start+n) inside one granule at a time —
// consecutive pages that had the same permission go together — with the
// permission they had and their dirty bits (bit i is page start+i's) —
// the swap that clears the word is the one that collects the bits, so no
// store passes a check whose bit the controller does not see. A page
// other references still hold keeps its permission, even one a dropped
// reference had raised.
func (as *AddressSpace) Unref(p nvm.PageID, count int, unmapped func(start nvm.PageID, n int, was Perm, dirty uint32)) {
	lo, hi := as.clip(p, count)
	gone, words := 0, 0
	for a, b := lo, lo; a < hi; a = b {
		b = part(a, hi)
		if lw := as.largeFor(a, b); lw != nil {
			words++
			for {
				old, word := lw.Load(), uint64(0)
				if old >= 2*lgRef {
					word = old - lgRef // other references remain
				}
				if !lw.CompareAndSwap(old, word) {
					continue // a store marked a page dirty under us
				}
				if was := largePerm(old); word == 0 && was != PermNone {
					gone += granulePages
					if unmapped != nil {
						unmapped(nvm.PageID(a), granulePages, was, uint32(old))
					}
				}
				break
			}
			continue
		}
		words += int(b - a)
		run := reportRun{unmapped: unmapped}
		for i := a; i < b; i++ {
			pte := &as.perms[i]
			for {
				old, word := pte.Load(), uint32(0)
				if old >= 2*pteRef {
					word = old - pteRef // other references remain
				}
				if !pte.CompareAndSwap(old, word) {
					continue // a store marked the page dirty under us
				}
				if word == 0 && old != 0 {
					as.small[i>>granuleShift]--
				}
				if was := Perm(old & ptePerm); word == 0 && was != PermNone {
					gone++
					run.push(i, was, old&pteDirty != 0)
				}
				break
			}
		}
		run.flush()
	}
	as.mapped.Add(int64(-gone))
	mPTWords.Add(int64(words))
}

// UnmapAll clears the whole mapping table, reporting every page it
// unmaps to unmapped (may be nil) as Unref does. The walk is by granule
// — a large word, or the count of page words in use, says what is there
// without reading 32 of them — and the mapped count makes the common
// teardown cheaper still: a process that already unmapped everything
// (orderly close, or a reap at a syscall boundary) skips the walk
// entirely, and a partial walk stops at the last installed entry.
func (as *AddressSpace) UnmapAll(unmapped func(start nvm.PageID, n int, was Perm, dirty uint32)) {
	left, gone, words := as.mapped.Load(), int64(0), 0
	for g := range as.large {
		if gone >= left {
			break
		}
		base := uint64(g) << granuleShift
		if as.large[g].Load() != 0 {
			old := as.large[g].Swap(0)
			words++
			gone += granulePages
			if unmapped != nil {
				unmapped(nvm.PageID(base), granulePages, largePerm(old), uint32(old))
			}
			continue
		}
		if as.small[g] == 0 {
			continue
		}
		as.small[g] = 0
		run := reportRun{unmapped: unmapped}
		for i, end := base, part(base, uint64(len(as.perms))); i < end; i++ {
			words++
			old := as.perms[i].Swap(0)
			if was := Perm(old & ptePerm); was != PermNone {
				gone++
				run.push(i, was, old&pteDirty != 0)
			}
		}
		run.flush()
	}
	as.mapped.Add(-gone)
	mPTWords.Add(int64(words))
}

// PermOf reports the installed permission of page p.
func (as *AddressSpace) PermOf(p nvm.PageID) Perm {
	if uint64(p) >= uint64(len(as.perms)) {
		return PermNone
	}
	if w := as.large[p>>granuleShift].Load(); w != 0 {
		return largePerm(w)
	}
	return Perm(as.perms[p].Load() & ptePerm)
}

// Mapped reports how many pages are currently mapped.
func (as *AddressSpace) Mapped() int { return int(as.mapped.Load()) }

// Revoke tears down the whole address space: every page is unmapped and
// any access — current or future, from the process or from a delegation
// worker acting on its behalf — faults with ErrRevoked. Controller-only,
// like Map/Unmap. Revoke returns only after every in-flight access has
// either completed or will observe the revocation (the shootdown
// barrier), so the caller sees a frozen state — and unmapped (may be
// nil), called under the barrier for every run torn down, sees dirty
// bits no store can still add to.
func (as *AddressSpace) Revoke(unmapped func(start nvm.PageID, n int, was Perm, dirty uint32)) {
	mShootdowns.Inc()
	as.shoot.Lock()
	as.revoked.Store(true)
	as.UnmapAll(unmapped)
	as.shoot.Unlock()
}

// HarvestDirty collects and clears the dirty bits of the listed pages
// while they stay mapped, calling fn (under the barrier) with each page's
// permission and the bit it had. It runs inside the shootdown barrier, as
// Revoke does — on hardware, clearing a live PTE's dirty bit needs the
// same TLB flush — so a store is on one side or the other: one that
// passed its permission check before the harvest has landed when fn
// runs, and one that checks afterwards sets the bit again for the next
// harvest (Unref, Revoke or this). Never "bit clear, bytes land later".
// A page inside a large mapping has its bit cleared in the large word:
// nothing about the granule's pages comes to differ, so nothing splits.
// Controller-only, like Map/Unmap.
func (as *AddressSpace) HarvestDirty(pages []nvm.PageID, fn func(p nvm.PageID, was Perm, dirty bool)) {
	mShootdowns.Inc()
	as.shoot.Lock()
	defer as.shoot.Unlock()
	for _, p := range pages {
		if uint64(p) >= uint64(len(as.perms)) {
			continue
		}
		lw, bit := &as.large[p>>granuleShift], uint64(1)<<(p%granulePages)
		if old := lw.Load(); old != 0 {
			for old&bit != 0 && !lw.CompareAndSwap(old, old&^bit) {
				old = lw.Load()
			}
			fn(p, largePerm(old), old&bit != 0)
			continue
		}
		pte := &as.perms[p]
		old := pte.Load()
		for old&pteDirty != 0 && !pte.CompareAndSwap(old, old&^pteDirty) {
			old = pte.Load()
		}
		fn(p, Perm(old&ptePerm), old&pteDirty != 0)
	}
}

// Revoked reports whether the address space has been torn down.
func (as *AddressSpace) Revoked() bool { return as.revoked.Load() }

// WithShootdownBarrier runs fn while holding the shootdown barrier
// exclusively: every in-flight access through this address space has
// completed before fn starts, and none can begin until it returns. The
// scrubber uses this to audit or repair a page knowing no store that
// passed an earlier permission check is still landing. fn must not
// touch the address space (deadlock).
func (as *AddressSpace) WithShootdownBarrier(fn func()) {
	mShootdowns.Inc()
	as.shoot.Lock()
	defer as.shoot.Unlock()
	fn()
}

// check is the permission check of one access: permission need on every
// page of [p, last], with the access faulting on the first page that
// lacks it. Callers hold the shootdown barrier shared across the check
// and the device operation. A one-page access is one page walk (touch);
// a store spanning pages checks them all before it marks any dirty, so a
// span that faults on a later page leaves the earlier ones clean.
func (as *AddressSpace) check(p, last nvm.PageID, need Perm) error {
	if telemetry.On() {
		mChecks.IncOn(int(p))
	}
	if as.revoked.Load() {
		mFaults.IncOn(int(p))
		return &Fault{Page: p, Revoked: true}
	}
	if need == PermWrite && last != p {
		for q := p; q <= last; q++ {
			if got := as.PermOf(q); got < need {
				mFaults.IncOn(int(q))
				return &Fault{Page: q, Need: need, Got: got}
			}
		}
	}
	for q := p; q <= last; q++ {
		if got, ok := as.touch(q, need); !ok {
			mFaults.IncOn(int(q))
			return &Fault{Page: q, Need: need, Got: got}
		}
	}
	return nil
}

// touch is the page walk of one access: it checks page p's permission
// and, for a store, sets the dirty bit with a CAS from the very word it
// checked — an unmap that slipped in between makes the CAS fail and the
// re-check fault, so no store passes whose bit the unmap did not
// collect. Steady state is the one atomic load: the bit is already set.
// The walk reads the granule's large word first and the page's own word
// only when that does not grant the access.
func (as *AddressSpace) touch(p nvm.PageID, need Perm) (Perm, bool) {
	if uint64(p) >= uint64(len(as.perms)) {
		return PermNone, false
	}
	lw, bit := &as.large[p>>granuleShift], uint64(1)<<(p%granulePages)
	held := lw.Load()
	for ; largePerm(held) >= need; held = lw.Load() {
		if need != PermWrite || held&bit != 0 || lw.CompareAndSwap(held, held|bit) {
			return need, true
		}
	}
	pte := &as.perms[p]
	for {
		word := pte.Load()
		if got := Perm(word & ptePerm); got < need {
			return max(got, largePerm(held)), false
		}
		if need != PermWrite || word&pteDirty != 0 || pte.CompareAndSwap(word, word|pteDirty) {
			return need, true
		}
	}
}

// Read copies from page p at off into buf.
func (as *AddressSpace) Read(p nvm.PageID, off int, buf []byte) error {
	return as.home.Read(p, off, buf)
}

// Write copies data into page p at off.
func (as *AddressSpace) Write(p nvm.PageID, off int, data []byte) error {
	return as.home.Write(p, off, data)
}

// Persist flushes the cachelines covering [off, off+n) of page p.
func (as *AddressSpace) Persist(p nvm.PageID, off, n int) error { return as.home.Persist(p, off, n) }

// ReadRange copies a contiguous multi-page span at (p, off) into buf.
func (as *AddressSpace) ReadRange(p nvm.PageID, off int, buf []byte) error {
	return as.home.ReadRange(p, off, buf)
}

// WriteRange copies data into a contiguous multi-page span at (p, off).
func (as *AddressSpace) WriteRange(p nvm.PageID, off int, data []byte) error {
	return as.home.WriteRange(p, off, data)
}

// PersistRange flushes the cachelines of a contiguous multi-page span.
func (as *AddressSpace) PersistRange(p nvm.PageID, off, n int) error {
	return as.home.PersistRange(p, off, n)
}

// ReadU64 loads a little-endian uint64 at (p, off).
func (as *AddressSpace) ReadU64(p nvm.PageID, off int) (uint64, error) {
	var b [8]byte
	if err := as.Read(p, off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a little-endian uint64 at (p, off). An aligned 8-byte
// store is atomic on the modeled hardware.
func (as *AddressSpace) WriteU64(p nvm.PageID, off int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(p, off, b[:])
}

// WriteU128 stores 16 bytes at (p, off) atomically (the modeled hardware
// supports 16-byte atomic NVM updates, paper §4.4). off must be 16-byte
// aligned.
func (as *AddressSpace) WriteU128(p nvm.PageID, off int, b [16]byte) error {
	if off%16 != 0 {
		return fmt.Errorf("mmu: WriteU128 offset %d not 16-byte aligned", off)
	}
	return as.Write(p, off, b[:])
}

// View returns an accessor that enforces this address space's
// permissions but issues device accesses from the given NUMA node.
// Delegation workers use it: they act on behalf of the application (so
// its permissions apply) while running on the node that owns the page —
// which is the whole point of delegation (§4.5). The owning process's
// own node is the home view, returned without allocating.
func (as *AddressSpace) View(node int) *View {
	if node == as.home.node {
		return &as.home
	}
	return &View{as: as, node: node}
}

// View is a node-pinned accessor over an AddressSpace, and the one
// checked path from untrusted code to the device: each access takes the
// shootdown barrier shared, checks the pages it touches (check) and
// issues the device operation from the view's node, all under the
// barrier. The one-page forms stay inside their page (the device
// refuses the rest); the range forms check every page of their span.
type View struct {
	as   *AddressSpace
	node int
}

// Read copies from page p at off into buf.
func (v *View) Read(p nvm.PageID, off int, buf []byte) error {
	as := v.as
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, p, PermRead); err != nil {
		return err
	}
	return as.dev.ReadAt(v.node, p, off, buf)
}

// Write copies data into page p at off.
func (v *View) Write(p nvm.PageID, off int, data []byte) error {
	as := v.as
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, p, PermWrite); err != nil {
		return err
	}
	return as.dev.WriteAt(v.node, p, off, data)
}

// Persist flushes the cachelines covering [off, off+n) of page p.
// Persist itself needs no permission (CLWB works on any mapped line);
// requiring read keeps the simulation honest about unmapped pages.
func (v *View) Persist(p nvm.PageID, off, n int) error {
	as := v.as
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, p, PermRead); err != nil {
		return err
	}
	return as.dev.Persist(p, off, n)
}

// ReadRange copies a contiguous multi-page span into buf; the device
// charges the run as one streamed access.
func (v *View) ReadRange(p nvm.PageID, off int, buf []byte) error {
	as := v.as
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, nvm.LastPage(p, off, len(buf)), PermRead); err != nil {
		return err
	}
	return as.dev.ReadRange(v.node, p, off, buf)
}

// WriteRange copies data into a contiguous multi-page span.
func (v *View) WriteRange(p nvm.PageID, off int, data []byte) error {
	as := v.as
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, nvm.LastPage(p, off, len(data)), PermWrite); err != nil {
		return err
	}
	return as.dev.WriteRange(v.node, p, off, data)
}

// PersistRange flushes the cachelines of a contiguous multi-page span as
// one coalesced CLWB batch.
func (v *View) PersistRange(p nvm.PageID, off, n int) error {
	as := v.as
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, nvm.LastPage(p, off, n), PermRead); err != nil {
		return err
	}
	return as.dev.PersistRange(p, off, n)
}

// Fence issues a store fence.
func (as *AddressSpace) Fence() { as.dev.Fence() }
