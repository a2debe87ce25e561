// Telemetry instruments of the simulated device, registered against the
// process-wide default registry (disabled unless an operator turns it
// on). Shard hints: accesses shard by the caller's NUMA node, cost
// charges are per-shard keyed by the *target* node so the snapshot shows
// the per-node charge distribution the cost model's contention and
// remote-access penalties act on.
package nvm

import "trio/internal/telemetry"

var (
	mReads       = telemetry.Default().NewCounter("nvm.reads")
	mReadBytes   = telemetry.Default().NewCounter("nvm.read_bytes")
	mWrites      = telemetry.Default().NewCounter("nvm.writes")
	mWriteBytes  = telemetry.Default().NewCounter("nvm.write_bytes")
	mPersists    = telemetry.Default().NewCounter("nvm.persists")
	mFences      = telemetry.Default().NewCounter("nvm.fences")
	mFaults      = telemetry.Default().NewCounter("nvm.faults_injected")
	mRetries     = telemetry.Default().NewCounter("nvm.retries")
	mRetryGiveup = telemetry.Default().NewCounter("nvm.retry_giveup")
	mCharges     = telemetry.Default().NewCounterPerShard("nvm.cost_charges")
	// Boundary crossings charged through the cost model: the crossing
	// counts are the delays actually paid, the op counts include every
	// batched op (TrapN/IPCN add one crossing and n ops per delay) — the
	// ratio of the two is the batch amortization at work.
	mTraps   = telemetry.Default().NewCounter("nvm.cost_traps")
	mTrapOps = telemetry.Default().NewCounter("nvm.cost_trap_ops")
	mIPCs    = telemetry.Default().NewCounter("nvm.cost_ipcs")
	mIPCOps  = telemetry.Default().NewCounter("nvm.cost_ipc_ops")
)
