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
package mmu

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// ErrFault is the access violation "signal".
var ErrFault = errors.New("mmu: access violation")

// ErrRevoked is the fault raised on any access through an address space
// whose process the controller has reaped. It wraps ErrFault — to the
// untrusted side it is just a segfault — but carries the distinction so
// trusted code (and tests) can tell a revocation from a stale mapping.
var ErrRevoked = fmt.Errorf("%w: address space revoked", ErrFault)

// AddressSpace is one process's view of the NVM device.
//
// Map and Unmap are invoked by the kernel controller only; the
// controller hands the untrusted LibFS an AddressSpace whose mapping
// table it alone mutates. (In Go the privilege separation is an API
// discipline rather than a hardware ring, but the untrusted code paths
// in this repository never call Map/Unmap themselves — they ask the
// controller, which validates the request first.)
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

	// node is the NUMA node of the CPU this address space's process is
	// running on; it feeds the cost model's remote-access penalty.
	node int
}

// NewAddressSpace creates an empty address space for a process whose
// CPUs live on the given NUMA node.
func NewAddressSpace(dev *nvm.Device, node int) *AddressSpace {
	return &AddressSpace{
		dev:   dev,
		node:  node,
		perms: make([]atomic.Uint32, dev.NumPages()),
	}
}

// Device exposes the underlying device; used by trusted components that
// share an address space object (the controller) — untrusted code holds
// the AddressSpace only through the narrower access methods.
func (as *AddressSpace) Device() *nvm.Device { return as.dev }

// Node reports the NUMA node of the owning process.
func (as *AddressSpace) Node() int { return as.node }

// SetNode migrates the process to another NUMA node (test hook).
func (as *AddressSpace) SetNode(n int) { as.node = n }

// clip bounds the run [p, p+count) to the device: pages beyond it are
// ignored by every mapping call (they can never check as mapped).
func (as *AddressSpace) clip(p nvm.PageID, count int) (lo, hi uint64) {
	lo, n := uint64(p), uint64(len(as.perms))
	if count <= 0 || lo >= n {
		return 0, 0
	}
	return lo, min(lo+uint64(count), n)
}

// Map installs pages [p, p+count) with exactly permission perm, read or
// write (Unmap removes). A page that is already mapped keeps its dirty
// bit and its reference count.
func (as *AddressSpace) Map(p nvm.PageID, count int, perm Perm) {
	lo, hi := as.clip(p, count)
	fresh := 0
	for i := lo; i < hi; i++ {
		pte := &as.perms[i]
		for {
			old := pte.Load()
			if old&ptePerm == uint32(perm) {
				break
			}
			if pte.CompareAndSwap(old, old&^ptePerm|uint32(perm)) {
				if old&ptePerm == 0 {
					fresh++
				}
				break
			}
		}
	}
	as.mapped.Add(int64(fresh))
}

// Unmap removes pages [p, p+count) whatever their reference counts and
// forgets their dirty bits. The releases that harvest dirty bits — the
// only way one is read — are Unref and Revoke; like Map, all of them are
// the controller's alone.
func (as *AddressSpace) Unmap(p nvm.PageID, count int) {
	lo, hi := as.clip(p, count)
	gone := 0
	for i := lo; i < hi; i++ {
		if as.perms[i].Swap(0)&ptePerm != 0 {
			gone++
		}
	}
	as.mapped.Add(int64(-gone))
}

// Ref takes one reference on each page of [p, p+count) and maps it with
// at least perm: a page mapped with less is raised, a page mapped with
// more keeps what it has. raised (may be nil) is called for every page
// whose permission this call raised. One atomic swap per page table
// word, one update of the mapped count per run.
func (as *AddressSpace) Ref(p nvm.PageID, count int, perm Perm, raised func(nvm.PageID)) {
	lo, hi := as.clip(p, count)
	fresh := 0
	for i := lo; i < hi; i++ {
		pte := &as.perms[i]
		for {
			old := pte.Load()
			word := old + pteRef
			was := Perm(old & ptePerm)
			if was < perm {
				word = word&^ptePerm | uint32(perm)
			}
			if !pte.CompareAndSwap(old, word) {
				continue // a store marked the page dirty under us
			}
			if was < perm {
				if was == PermNone {
					fresh++
				}
				if raised != nil {
					raised(nvm.PageID(i))
				}
			}
			break
		}
	}
	as.mapped.Add(int64(fresh))
}

// Unref drops one reference from each page of [p, p+count). A page
// whose last reference this was is unmapped and reported to unmapped
// (may be nil) with the permission it had and its dirty bit — the swap
// that clears the word is the one that collects the bit, so no store
// passes a check whose bit the controller does not see. A page other
// references still hold keeps its permission, even one a dropped
// reference had raised.
func (as *AddressSpace) Unref(p nvm.PageID, count int, unmapped func(p nvm.PageID, was Perm, dirty bool)) {
	lo, hi := as.clip(p, count)
	gone := 0
	for i := lo; i < hi; i++ {
		pte := &as.perms[i]
		for {
			old, word := pte.Load(), uint32(0)
			if old >= 2*pteRef {
				word = old - pteRef // other references remain
			}
			if !pte.CompareAndSwap(old, word) {
				continue // a store marked the page dirty under us
			}
			if was := Perm(old & ptePerm); word == 0 && was != PermNone {
				gone++
				if unmapped != nil {
					unmapped(nvm.PageID(i), was, old&pteDirty != 0)
				}
			}
			break
		}
	}
	as.mapped.Add(int64(-gone))
}

// UnmapAll clears the whole mapping table, reporting every page it
// unmaps to unmapped (may be nil) as Unref does. The mapped count makes
// the common teardown cheap: a process that already unmapped everything
// (orderly close, or a reap at a syscall boundary) skips the table walk
// entirely, and a partial walk stops at the last installed entry — an
// atomic swap per device page on every teardown is what a flat page
// table would otherwise cost.
func (as *AddressSpace) UnmapAll(unmapped func(p nvm.PageID, was Perm, dirty bool)) {
	left, gone := as.mapped.Load(), int64(0)
	for i := 0; i < len(as.perms) && gone < left; i++ {
		if as.perms[i].Load() == 0 {
			continue
		}
		old := as.perms[i].Swap(0)
		if was := Perm(old & ptePerm); was != PermNone {
			gone++
			if unmapped != nil {
				unmapped(nvm.PageID(i), was, old&pteDirty != 0)
			}
		}
	}
	as.mapped.Add(-gone)
}

// PermOf reports the installed permission of page p.
func (as *AddressSpace) PermOf(p nvm.PageID) Perm {
	if uint64(p) >= uint64(len(as.perms)) {
		return PermNone
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
// nil), called under the barrier for every page torn down, sees dirty
// bits no store can still add to.
func (as *AddressSpace) Revoke(unmapped func(p nvm.PageID, was Perm, dirty bool)) {
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
// Controller-only, like Map/Unmap.
func (as *AddressSpace) HarvestDirty(pages []nvm.PageID, fn func(p nvm.PageID, was Perm, dirty bool)) {
	mShootdowns.Inc()
	as.shoot.Lock()
	defer as.shoot.Unlock()
	for _, p := range pages {
		if uint64(p) >= uint64(len(as.perms)) {
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

func (as *AddressSpace) check(p nvm.PageID, need Perm) error {
	if telemetry.On() {
		mChecks.IncOn(int(p))
	}
	if as.revoked.Load() {
		mFaults.IncOn(int(p))
		return fmt.Errorf("%w (page %d)", ErrRevoked, p)
	}
	if got, ok := as.touch(p, need); !ok {
		mFaults.IncOn(int(p))
		return fmt.Errorf("%w: page %d needs %v, mapped %v", ErrFault, p, need, got)
	}
	return nil
}

// touch is the page walk of one access: it checks page p's permission
// and, for a store, sets the dirty bit with a CAS from the very word it
// checked — an unmap that slipped in between makes the CAS fail and the
// re-check fault, so no store passes whose bit the unmap did not
// collect. Steady state is the one atomic load: the bit is already set.
func (as *AddressSpace) touch(p nvm.PageID, need Perm) (Perm, bool) {
	if uint64(p) >= uint64(len(as.perms)) {
		return PermNone, false
	}
	pte := &as.perms[p]
	for {
		word := pte.Load()
		if got := Perm(word & ptePerm); got < need {
			return got, false
		}
		if need != PermWrite || word&pteDirty != 0 || pte.CompareAndSwap(word, word|pteDirty) {
			return need, true
		}
	}
}

// Read copies from page p at off into buf.
func (as *AddressSpace) Read(p nvm.PageID, off int, buf []byte) error {
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, PermRead); err != nil {
		return err
	}
	return as.dev.ReadAt(as.node, p, off, buf)
}

// Write copies data into page p at off.
func (as *AddressSpace) Write(p nvm.PageID, off int, data []byte) error {
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, PermWrite); err != nil {
		return err
	}
	return as.dev.WriteAt(as.node, p, off, data)
}

// checkSpan verifies permission `need` on every page a range access
// starting at (p, off) with n bytes touches. Callers hold the shootdown
// barrier shared across the check and the device operation.
func (as *AddressSpace) checkSpan(p nvm.PageID, off, n int, need Perm) error {
	if telemetry.On() {
		mChecks.IncOn(int(p))
	}
	if as.revoked.Load() {
		mFaults.IncOn(int(p))
		return fmt.Errorf("%w (page %d)", ErrRevoked, p)
	}
	last := p
	if n > 0 {
		last = p + nvm.PageID(uint64(off+n-1)/nvm.PageSize)
	}
	if uint64(last) >= uint64(len(as.perms)) {
		mFaults.IncOn(int(p))
		return fmt.Errorf("%w: page %d beyond device", ErrFault, last)
	}
	// Two passes for a store: a span that faults on a later page must not
	// have marked the earlier ones dirty.
	for q := p; q <= last; q++ {
		if got := as.PermOf(q); got < need {
			mFaults.IncOn(int(q))
			return fmt.Errorf("%w: page %d needs %v, mapped %v", ErrFault, q, need, got)
		}
	}
	if need == PermWrite {
		for q := p; q <= last; q++ {
			if got, ok := as.touch(q, need); !ok {
				mFaults.IncOn(int(q))
				return fmt.Errorf("%w: page %d needs %v, mapped %v", ErrFault, q, need, got)
			}
		}
	}
	return nil
}

// ReadRange copies a span of physically contiguous pages starting at
// (p, off) into buf. Permissions are checked on every page of the span;
// the device charges the run as one streamed access.
func (as *AddressSpace) ReadRange(p nvm.PageID, off int, buf []byte) error {
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.checkSpan(p, off, len(buf), PermRead); err != nil {
		return err
	}
	return as.dev.ReadRange(as.node, p, off, buf)
}

// WriteRange copies data into a span of physically contiguous pages
// starting at (p, off).
func (as *AddressSpace) WriteRange(p nvm.PageID, off int, data []byte) error {
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.checkSpan(p, off, len(data), PermWrite); err != nil {
		return err
	}
	return as.dev.WriteRange(as.node, p, off, data)
}

// PersistRange flushes the cachelines of a contiguous multi-page span,
// coalescing the flush into one cost-model charge.
func (as *AddressSpace) PersistRange(p nvm.PageID, off, n int) error {
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.checkSpan(p, off, n, PermRead); err != nil {
		return err
	}
	return as.dev.PersistRange(p, off, n)
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
// permissions but issues device accesses from a different NUMA node.
// Delegation workers use it: they act on behalf of the application (so
// its permissions apply) while running on the node that owns the page —
// which is the whole point of delegation (§4.5).
func (as *AddressSpace) View(node int) *View { return &View{as: as, node: node} }

// View is a node-pinned accessor over an AddressSpace.
type View struct {
	as   *AddressSpace
	node int
}

// Read copies from page p at off into buf, charged from the view's node.
func (v *View) Read(p nvm.PageID, off int, buf []byte) error {
	v.as.shoot.RLock()
	defer v.as.shoot.RUnlock()
	if err := v.as.check(p, PermRead); err != nil {
		return err
	}
	return v.as.dev.ReadAt(v.node, p, off, buf)
}

// Write copies data into page p at off, charged from the view's node.
func (v *View) Write(p nvm.PageID, off int, data []byte) error {
	v.as.shoot.RLock()
	defer v.as.shoot.RUnlock()
	if err := v.as.check(p, PermWrite); err != nil {
		return err
	}
	return v.as.dev.WriteAt(v.node, p, off, data)
}

// ReadRange copies a contiguous multi-page span, charged from the
// view's node.
func (v *View) ReadRange(p nvm.PageID, off int, buf []byte) error {
	v.as.shoot.RLock()
	defer v.as.shoot.RUnlock()
	if err := v.as.checkSpan(p, off, len(buf), PermRead); err != nil {
		return err
	}
	return v.as.dev.ReadRange(v.node, p, off, buf)
}

// WriteRange copies data into a contiguous multi-page span, charged from
// the view's node.
func (v *View) WriteRange(p nvm.PageID, off int, data []byte) error {
	v.as.shoot.RLock()
	defer v.as.shoot.RUnlock()
	if err := v.as.checkSpan(p, off, len(data), PermWrite); err != nil {
		return err
	}
	return v.as.dev.WriteRange(v.node, p, off, data)
}

// PersistRange flushes the cachelines of a contiguous multi-page span as
// one coalesced CLWB batch.
func (v *View) PersistRange(p nvm.PageID, off, n int) error {
	v.as.shoot.RLock()
	defer v.as.shoot.RUnlock()
	if err := v.as.checkSpan(p, off, n, PermRead); err != nil {
		return err
	}
	return v.as.dev.PersistRange(p, off, n)
}

// Persist flushes lines from the view's node.
func (v *View) Persist(p nvm.PageID, off, n int) error {
	v.as.shoot.RLock()
	defer v.as.shoot.RUnlock()
	if err := v.as.check(p, PermRead); err != nil {
		return err
	}
	return v.as.dev.Persist(p, off, n)
}

// Persist flushes the cachelines covering [off, off+n) of page p.
// Persist itself needs no permission (CLWB works on any mapped line);
// requiring read keeps the simulation honest about unmapped pages.
func (as *AddressSpace) Persist(p nvm.PageID, off, n int) error {
	as.shoot.RLock()
	defer as.shoot.RUnlock()
	if err := as.check(p, PermRead); err != nil {
		return err
	}
	return as.dev.Persist(p, off, n)
}

// Fence issues a store fence.
func (as *AddressSpace) Fence() { as.dev.Fence() }
