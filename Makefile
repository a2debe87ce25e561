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
# the directory hash table whose lock-free readers race its writers,
# the device (a busy persist retries inside it, on any goroutine, and
# every retry draws from one shared jitter stream) and the delegation
# workers that persist through it, the telemetry
# registry/ring everything records into, and the wire-serving front-end
# (pipelined connections, out-of-order workers). The workload package's
# tenancy sweeps are too heavy for the race detector's ~20x slowdown;
# race just its network generators (the netload fleet and the netchaos
# fault storm) and the small-op driver's two arms. scripts/check.sh
# runs this target, so the package list lives here only.
race:
	$(GO) test -race ./internal/fstest/... ./internal/libfs/... ./internal/index/... ./internal/telemetry/... ./internal/controller/... ./internal/mmu/... ./internal/nvm/... ./internal/delegation/... ./internal/verifier/... ./internal/ring/... ./internal/serve/... ./internal/netsim/...
	$(GO) test -race -run '^TestNet|^TestSmallOps' ./internal/workload/

vet:
	$(GO) vet ./...

# The fuzz smoke, ten seconds per target. scripts/check.sh runs this
# target, so the list lives here only. Targets that mount a controller
# or run goroutines cap minimising at a second (-fuzzminimizetime):
# their coverage differs a little from run to run, and without the cap
# the engine spends its budget minimising "new" inputs, not executing.
fuzz:
# The trusted verifier: random core-state corruption must always
# terminate in a Report, never a panic or a hang.
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyRegular$$' -fuzztime=10s ./internal/verifier/
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyDirectory$$' -fuzztime=10s ./internal/verifier/
# The scrubber: a sealed page with any nonzero bit flip must scrub as
# a mismatch, and sealing must round-trip.
	$(GO) test -run='^$$' -fuzz='^FuzzScrubPage$$' -fuzztime=10s ./internal/verifier/
# The two parsers of untrusted wire bytes: an arbitrary client stream
# into the server, an arbitrary server stream into a session with a
# call pending.
	$(GO) test -run='^$$' -fuzz='^FuzzServeFrame$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve/
	$(GO) test -run='^$$' -fuzz='^FuzzSessionDemux$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve/
# Scoped vs full verification: whatever a session stores through its
# address space, the release's scoped verification and a full walk of
# the same image agree on the verdict and the page set.
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyScopedAgrees$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/controller/
# The two-size page table against the per-page model it replaced: any
# sequence of mapping calls and stores, same permissions, same reports.
	$(GO) test -run='^$$' -fuzz='^FuzzPageTableModel$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/mmu/
# The checksum region's two levels against the per-page opener: any
# grants, stores, releases, revokes, scrubs and crashes leave every
# page open while it may be written, sealed with its content's CRC
# otherwise.
	$(GO) test -run='^$$' -fuzz='^FuzzChecksumOpenModel$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/controller/
# Write references at two sizes against the per-page counts: any whole
# and ragged grants, releases, pool references, stores and revocations
# leave every page's count, and the scrub, seal and open decisions it
# makes, as the per-page table had them.
	$(GO) test -run='^$$' -fuzz='^FuzzControllerTablesModel$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/controller/
# The one grant rule, from the outside: after every map (a contended
# one waits out a short lease and revokes every write holder), unmap,
# index store, free, allocation or close by sessions in two trust
# groups, each page a session reaches is its files' dirent or owned
# page, or in its own trust group's pool or parked sets, and no two
# trust groups write-map one file.
	$(GO) test -run='^$$' -fuzz='^FuzzGrantOwnership$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/controller/
# The directory hash table against a Go map: any put, putIfAbsent,
# delete, get, range and len sequence, across its grow boundaries,
# with deletes from inside a Range.
	$(GO) test -run='^$$' -fuzz='^FuzzMapModel$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/index/

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
# reports (ROADMAP, quality aim). make loc BASE=<git ref> prints each
# package at the ref, now, and the net change.
loc:
	BASE='$(BASE)' sh scripts/loc.sh
