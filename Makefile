GO ?= go

.PHONY: check build test race vet bench bench-go benchmark loc fuzz tenancy smallops serve netchaos

# The full gate: vet + build + tests + race detector + fuzz smoke.
# CI runs this.
check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the packages that exercise real concurrency: the
# conformance suite's parallel cases, the LibFS they drive, the
# controller, page table and verifier under it (the store path's
# dirty-bit CAS races the controller's unmap, harvest and granule split),
# the telemetry
# registry/ring everything records into, and the wire-serving front-end
# (pipelined connections, out-of-order workers). The workload package's
# tenancy sweeps are too heavy for the race detector's ~20x slowdown;
# race just its network generators (the netload fleet and the netchaos
# fault storm) and the small-op driver's two arms. scripts/check.sh
# runs this target, so the package list lives here only.
race:
	$(GO) test -race ./internal/fstest/... ./internal/libfs/... ./internal/telemetry/... ./internal/controller/... ./internal/mmu/... ./internal/verifier/... ./internal/ring/... ./internal/serve/... ./internal/netsim/...
	$(GO) test -race -run '^TestNet|^TestSmallOps' ./internal/workload/

vet:
	$(GO) vet ./...

# Adversarial fuzzing of the trusted verifier: random core-state
# corruption must always terminate in a Report, never a panic/hang —
# and of the scrubber: any nonzero bit flip in a sealed page must be
# detected, and sealing must round-trip — and of the two parsers of
# untrusted wire bytes: an arbitrary client stream into the server, an
# arbitrary server stream into a session with a call pending — and of
# the scoping of verification by dirty metadata: for any stores through
# a session's address space, scoped and full verification agree — and of
# the page table's two page sizes against the per-page model.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyRegular$$' -fuzztime=10s ./internal/verifier/
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyDirectory$$' -fuzztime=10s ./internal/verifier/
	$(GO) test -run='^$$' -fuzz='^FuzzScrubPage$$' -fuzztime=10s ./internal/verifier/
	$(GO) test -run='^$$' -fuzz='^FuzzServeFrame$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve/
	$(GO) test -run='^$$' -fuzz='^FuzzSessionDemux$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve/
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyScopedAgrees$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/controller/
	$(GO) test -run='^$$' -fuzz='^FuzzPageTableModel$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/mmu/

# Data-path regression harness: per-op software overhead (cost model
# off) across workloads × FS, rewritten into BENCH_trio.json so PRs
# carry a diffable perf trajectory. See EXPERIMENTS.md "Data-path
# performance" for how to read it.
bench:
	$(GO) run ./cmd/trio-bench -experiment datapath -json BENCH_trio.json

# Massive-tenancy shard-scaling sweep (ISSUE 6): 2k concurrent
# sessions against 1/2/4/8 controller shards with the cost model on,
# merged into the "tenancy" section of BENCH_trio.json and gated on
# shard scaling, p99 lease-recall latency, and throughput. See
# EXPERIMENTS.md "Massive tenancy". Run on an otherwise-idle machine —
# the points are wall-clock measurements.
tenancy:
	$(GO) run ./cmd/trio-bench -experiment tenancy -json BENCH_trio.json

# Trust-boundary latency experiment: interleaved per-call-vs-batched
# pairs of the small-op workloads (4K append, create/unlink, map/unmap)
# with the cost model on, merged into the "smallops" section of
# BENCH_trio.json and gated on batched MapFiles/UnmapFiles reaching
# >= 2x the one-trap-per-call path on at least one metadata-heavy mode
# and >= 1x on every mode. See EXPERIMENTS.md "Trust-boundary latency".
# Run on an otherwise-idle machine — the pairs are wall-clock
# measurements.
smallops:
	$(GO) run ./cmd/trio-bench -experiment smallops -json BENCH_trio.json

# Wire-serving experiment (ISSUE 9): one trio-serve connection against
# an in-process ArckFS server, serial RPC (depth 1) vs pipelined
# (depth 8), cost model on — merged into the "serving" section of
# BENCH_trio.json and gated on pipelining reaching >= 2x serial
# throughput. See EXPERIMENTS.md "Network serving". Run on an
# otherwise-idle machine — the pairs are wall-clock measurements.
serve:
	$(GO) run ./cmd/trio-bench -experiment serving -json BENCH_trio.json

# Network-resilience experiment (ISSUE 10): a fleet of reconnecting
# sessions appends unique records through fault-injected transports
# (kills, partitions, truncated frames) while a chaos controller fires
# faults mid-flight; the post-storm oracle audit is the gate — zero
# acked-op loss, zero double-apply, availability >= 99%, acked p99
# under the per-call deadline. Merged into the "netchaos" section of
# BENCH_trio.json. See EXPERIMENTS.md "Network resilience".
netchaos:
	$(GO) run ./cmd/trio-bench -experiment netchaos -json BENCH_trio.json

# The full Go benchmark suite: paper figures, ablations, and the
# datapath families (testing.B form of the harness above).
bench-go:
	$(GO) test -bench=. -benchmem

# The repository's benchmark (BENCHMARK.json): four workloads with
# end-to-end and per-layer metrics. See benchmark/README.md.
benchmark:
	bash benchmark/run.sh

# Non-test Go lines per package and in total — the number every PR
# reports (ROADMAP, quality aim).
loc:
	sh scripts/loc.sh
