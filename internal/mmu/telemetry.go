// Telemetry instruments of the simulated MMU: permission checks (every
// load/store pays one), faults raised (violations and revoked-space
// accesses), and shootdowns (Revoke barriers). Checks shard by page
// number so concurrent processes don't contend on one cacheline. The
// mapping calls count the page-table words they act on — of either size,
// one Add per call — and the two events that move a granule between the
// sizes: a large word installed, a large mapping split into its pages.
package mmu

import "trio/internal/telemetry"

var (
	mChecks        = telemetry.Default().NewCounter("mmu.checks")
	mFaults        = telemetry.Default().NewCounter("mmu.faults")
	mShootdowns    = telemetry.Default().NewCounter("mmu.shootdowns")
	mPTWords       = telemetry.Default().NewCounter("mmu.pt_words")
	mLargeInstalls = telemetry.Default().NewCounter("mmu.large_installs")
	mSplits        = telemetry.Default().NewCounter("mmu.splits")
)
