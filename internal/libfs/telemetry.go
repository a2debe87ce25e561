// Telemetry instruments of the ArckFS LibFS datapath: op counters and
// latency/size histograms on the default registry, and op-level trace
// spans. A traced operation fathers child spans for each layer it
// crosses — index lookup/link, allocation, delegation dispatch, NVM
// persist — so a Chrome trace of one 4K write lays the whole stack out.
package libfs

import "trio/internal/telemetry"

var (
	mReadOps   = telemetry.Default().NewCounter("libfs.read_ops")
	mWriteOps  = telemetry.Default().NewCounter("libfs.write_ops")
	hReadNS    = telemetry.Default().NewHistogram("libfs.read_ns")
	hWriteNS   = telemetry.Default().NewHistogram("libfs.write_ns")
	hReadSize  = telemetry.Default().NewHistogram("libfs.read_bytes")
	hWriteSize = telemetry.Default().NewHistogram("libfs.write_bytes")
	mNamespace = telemetry.Default().NewCounter("libfs.namespace_ops")

	// A (re)map either rebuilt the node's auxiliary state from the core
	// state or kept the one the controller still vouches for (MapInfo.Gen).
	mAuxReused  = telemetry.Default().NewCounter("libfs.aux_reused")
	mAuxRebuilt = telemetry.Default().NewCounter("libfs.aux_rebuilt")

	// Read-path CRC verification (Config.VerifyReads).
	mReadVerified   = telemetry.Default().NewCounter("libfs.read_verified_pages")
	mReadVerifyFail = telemetry.Default().NewCounter("libfs.read_verify_failures")
)
