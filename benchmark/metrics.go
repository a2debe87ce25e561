package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names; the smoke test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEndDefs are what a user of the system sees; the same four for
// every workload, measured in the untraced run.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerDefs are the single-layer metrics of the traced run: probes
// (tight loops over one layer's public functions), counter deltas per
// op, span self times per op, and the run/host/go diagnostics.
var perLayerDefs = []metricDef{
	// nvm
	{"nvm.read_4k_ns", "ns", "lower"},
	{"nvm.write_4k_ns", "ns", "lower"},
	{"nvm.persist_4k_ns", "ns", "lower"},
	{"nvm.fence_ns", "ns", "lower"},
	{"nvm.read_range_1m_us", "us", "lower"},
	{"nvm.device_alloc_s", "s", "lower"},
	{"nvm.reads_per_op", "count", "lower"},
	{"nvm.writes_per_op", "count", "lower"},
	{"nvm.write_bytes_per_op", "B", "lower"},
	{"nvm.persists_per_op", "count", "lower"},
	{"nvm.fences_per_op", "count", "lower"},
	{"nvm.self_ns_per_op", "ns", "lower"},
	// mmu
	{"mmu.read_4k_ns", "ns", "lower"},
	{"mmu.map_unmap_64_ns", "ns", "lower"},
	{"mmu.shootdown_ns", "ns", "lower"},
	{"mmu.checks_per_op", "count", "lower"},
	{"mmu.faults_per_op", "count", "lower"},
	{"mmu.shootdowns_per_op", "count", "lower"},
	// index
	{"index.radix_get_ns", "ns", "lower"},
	{"index.radix_range_256_ns", "ns", "lower"},
	{"index.radix_insert_ns", "ns", "lower"},
	{"index.map_get_ns", "ns", "lower"},
	{"index.map_put_delete_ns", "ns", "lower"},
	{"index.self_ns_per_op", "ns", "lower"},
	// alloc
	{"alloc.page_alloc_free_ns", "ns", "lower"},
	{"alloc.run_64_alloc_free_ns", "ns", "lower"},
	{"alloc.ino_alloc_ns", "ns", "lower"},
	{"alloc.pages_out_per_op", "count", "lower"},
	{"alloc.mag_hit_ratio", "ratio", "higher"},
	{"alloc.mag_refills_per_op", "count", "lower"},
	{"alloc.self_ns_per_op", "ns", "lower"},
	// journal, core
	{"journal.tx_1undo_ns", "ns", "lower"},
	{"core.page_crc_ns", "ns", "lower"},
	{"core.checksum_seal_ns", "ns", "lower"},
	// delegation
	{"delegation.inline_4k_ns", "ns", "lower"},
	{"delegation.read_1m_us", "us", "lower"},
	{"delegation.write_1m_us", "us", "lower"},
	{"delegation.delegated_ratio", "ratio", "higher"},
	{"delegation.self_ns_per_op", "ns", "lower"},
	// libfs
	{"libfs.read_4k_ns", "ns", "lower"},
	{"libfs.write_4k_ns", "ns", "lower"},
	{"libfs.append_4k_ns", "ns", "lower"},
	{"libfs.create_ns", "ns", "lower"},
	{"libfs.open_close_ns", "ns", "lower"},
	{"libfs.stat_ns", "ns", "lower"},
	{"libfs.rename_ns", "ns", "lower"},
	{"libfs.unlink_ns", "ns", "lower"},
	{"libfs.readdir_256_us", "us", "lower"},
	{"libfs.open_by_handle_ns", "ns", "lower"},
	{"libfs.self_ns_per_op", "ns", "lower"},
	// controller, ring
	{"controller.map_unmap_same_domain_us", "us", "lower"},
	{"controller.map_unmap_cross_domain_us", "us", "lower"},
	{"ring.submit_complete_ns", "ns", "lower"},
	{"controller.map_ns_per_op", "ns", "lower"},
	{"controller.verify_ns_per_op", "ns", "lower"},
	{"controller.unmap_ns_per_op", "ns", "lower"},
	{"controller.checkpoints_per_op", "count", "lower"},
	{"controller.maps_per_op", "count", "lower"},
	{"controller.unmaps_per_op", "count", "lower"},
	{"controller.alloc_calls_per_op", "count", "lower"},
	{"controller.lease_recalls", "count", "lower"},
	{"controller.lease_expiries", "count", "lower"},
	{"controller.self_ns_per_op", "ns", "lower"},
	// verifier
	{"verifier.verify_file_2m_us", "us", "lower"},
	{"verifier.verify_dir_256_us", "us", "lower"},
	{"verifier.reports_per_op", "count", "lower"},
	// serve
	{"serve.codec_frame_16k_ns", "ns", "lower"},
	{"serve.rpc_getattr_us", "us", "lower"},
	{"serve.rpc_read_16k_us", "us", "lower"},
	{"serve.rpc_write_16k_us", "us", "lower"},
	{"serve.self_us_per_op", "us", "lower"},
	{"serve.reply_frames_per_batch", "ratio", "higher"},
	{"serve.drc_hits_per_op", "count", "lower"},
	{"serve.shed_per_op", "count", "lower"},
	// process
	{"go.allocs_per_op", "count", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_cycles_per_s", "1/s", "lower"},
	// run, host, harness
	{"run.op_p99_us", "us", "lower"},
	{"run.all_ops_per_s", "1/s", "higher"},
	{"run.slice_cv", "ratio", "lower"},
	{"run.quiet_gap", "ratio", "lower"},
	{"host.copy4k_per_s", "1/s", "higher"},
	{"host.alu_per_s", "1/s", "higher"},
	{"bench.self_ns_per_op", "ns", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}
