#!/bin/sh
# check.sh — the repo's one-command CI gate.
#
# Runs, in order:
#   1. go vet  over every package
#   2. go build over every package
#   3. the full test suite (includes the crash-point conformance sweeps)
#   4. the race detector over the packages with real concurrency
#      (the Makefile's race target owns the list).
#   5. a fuzz smoke pass (make fuzz; the Makefile owns the list and
#      says what each target checks): ten seconds per target — the
#      verifier's adversarial targets (randomly corrupted core state
#      must always terminate in a Report, never a panic or a hang), the
#      scrub page, the two parsers of untrusted wire bytes, scoped
#      against full verification, the page table, the checksum region's
#      open bits, the controller's write references, the grant rule and
#      the directory hash table — plus a race-enabled end-to-end scrub
#      smoke: one injected flip in a cold file must be detected by a
#      single pass and quarantined with a typed read error.
#   6. a bench smoke: every Benchmark* target compiles and the
#      data-path families run once, the cross-domain handover benchmark
#      must stream one page, read no index page, act on at most 160
#      page-table words and rewrite at most 96 checksum records per
#      handover within its recorded allocs/op, the
#      same handover through two mounted LibFSes must rebuild no
#      auxiliary state and, its file placed in whole granules, act on at
#      most 41.8 page-table words and 5.5 records, and the trio-bench
#      regression harness completes a -quick pass. A bench that fails to build or errors at runtime
#      fails the gate — perf coverage must not rot silently.
#   7. a telemetry-overhead smoke: the disabled-path micro-benchmarks
#      must report 0 allocs/op (instrumentation on the hot paths must
#      stay near-free when off), and a -quick datapath run is gated
#      against BENCH_trio.json allocs/op — a regression fails loudly.
#      One small file's whole life (BenchmarkLifecycle: create, append
#      4 KiB, stat, open, read, rename, unlink on a mounted arckfs) must
#      stay within 16 allocs/op and 1536 B/op: a one-block file pays for
#      no page-sized auxiliary state (ISSUE 22).
#   8. a massive-tenancy smoke: trio-bench -experiment tenancy -quick
#      drives 1k concurrent sessions against the sharded controller at
#      1 and 8 shards with the cost model on, and its in-process gates
#      (shard-scaling floor and p99 lease-recall ceiling) exit nonzero
#      on violation — a controller serialization regression fails here,
#      loudly, not in the next full bench run.
#   9. a trust-boundary smoke: trio-bench -experiment smallops -quick
#      runs shrunken interleaved per-call-vs-batched pairs with the cost
#      model on; its in-process gates (batched speedup floor on the
#      metadata modes) exit nonzero on violation.
#  10. a serving smoke: the wire codec's steady-state encode/decode
#      must report 0 allocs/op, a whole 16 KiB READ over the loopback
#      must allocate under 1 KiB (its payload lands in the caller's
#      buffer) and a WRITE under 24 KiB (the retransmit unit, nothing
#      else payload-sized), and trio-bench -experiment serving
#      -quick runs shrunken serial-vs-pipelined pairs with the cost
#      model on; its in-process gate (pipelined speedup floor at
#      depth 8) exits nonzero on violation.
#  11. a netchaos smoke: a netsim wrapper with no fault plan must add
#      0 allocs/op to the codec path, and trio-bench -experiment
#      netchaos -quick runs a shrunken fault storm (kills, partitions,
#      truncated frames against reconnecting sessions); its in-process
#      gates (zero acked-op loss, zero double-apply, availability
#      floor) exit nonzero on violation.
#  12. a trio-top smoke: two short refreshes of the observability
#      console over its live workload must run and shut down clean.
#
# Any failure stops the run with a non-zero exit.
set -eu

cd "$(dirname "$0")/.."

# gate_zero_allocs <pkg> <bench-regex> <message>: every benchmark in pkg
# matching the regex must report 0 allocs/op under -benchmem. A run
# that matches no benchmark fails too — a renamed benchmark must not
# turn the gate into a silent pass.
gate_zero_allocs() {
	bad=$(go test -run='^$' -bench="$2" -benchtime=100x -benchmem "$1" \
		| awk '/^Benchmark/ { n++; if ($(NF-1) + 0 != 0) bad = 1 } END { if (n == 0) bad = 1; print bad + 0 }')
	if [ "$bad" != "0" ]; then
		echo "FAIL: $3 (see benchmarks above)" >&2
		exit 1
	fi
}

# gate_alloc_ceiling <pkg> <bench-regex> <max-allocs> <max-bytes>: every
# benchmark in pkg matching the regex must report at most max-allocs
# allocs/op and max-bytes B/op under -benchmem. A run that matches no
# benchmark, or one that stops reporting either number, fails too.
gate_alloc_ceiling() {
	bad=$(go test -run='^$' -bench="$2" -benchtime=20000x -benchmem "$1" \
		| awk -v maxa="$3" -v maxb="$4" '/^Benchmark/ {
				n++
				for (i = 2; i < NF; i++) {
					if ($(i + 1) == "B/op") { seen++; if ($i + 0 > maxb) bad = 1 }
					if ($(i + 1) == "allocs/op") { seen++; if ($i + 0 > maxa) bad = 1 }
				}
			}
			END { if (n == 0 || seen != 2 * n) bad = 1; print bad + 0 }')
	if [ "$bad" != "0" ]; then
		echo "FAIL: $2 in $1 must report at most $3 allocs/op and $4 B/op" >&2
		exit 1
	fi
}

# gate_handover <max-allocs> <max-pt-words> <max-records>:
# BenchmarkHandover2M must stream exactly one page per handover (the
# seal costs the write set, not the file), read no index page — not to
# verify, not to build the grant, not to cut the checkpoint: nobody
# stored to one — act on at most max-pt-words page-table words per
# handover (a 2 MiB file granted and released by 32-page granule is
# about 100, page by page 1,030), rewrite at most max-records checksum
# records (the granules open by their bit, the ragged ends by record:
# about 70, record by record 1,030) and report at most
# max-allocs allocs/op, the recorded value, so per-grant allocations
# cannot creep back. A run that matches no benchmark, or one that stops
# reporting any of the numbers, fails too.
gate_handover() {
	bad=$(go test -run='^$' -bench='^BenchmarkHandover2M$' -benchtime=200x -benchmem ./internal/controller/ \
		| awk -v max="$1" -v maxw="$2" -v maxr="$3" '/^BenchmarkHandover2M/ {
				n++
				for (i = 2; i < NF; i++) {
					if ($(i + 1) == "streamed-pages/op") { seen++; if ($i + 0 != 1) bad = 1 }
					if ($(i + 1) == "index-pages-read/op") { seen++; if ($i + 0 != 0) bad = 1 }
					if ($(i + 1) == "pt-words/op") { seen++; if ($i + 0 > maxw) bad = 1 }
					if ($(i + 1) == "records/op") { seen++; if ($i + 0 > maxr) bad = 1 }
					if ($(i + 1) == "allocs/op") { seen++; if ($i + 0 > max) bad = 1 }
				}
			}
			END { if (n == 0 || seen != 5 * n) bad = 1; print bad + 0 }')
	if [ "$bad" != "0" ]; then
		echo "FAIL: BenchmarkHandover2M must report 1 streamed-pages/op, 0 index-pages-read/op, at most $2 pt-words/op, at most $3 records/op and at most $1 allocs/op" >&2
		exit 1
	fi
}

# gate_handover_libfs <max-allocs> <max-pt-words> <max-records>:
# BenchmarkHandoverLibFS2M — the same handover through two mounted
# LibFSes, the benchmark's share-handover op — must rebuild no auxiliary
# state (an in-place overwrite stores to no index page, so each mount
# keeps the aux the controller still vouches for) within max-allocs
# allocs/op, and act on at most max-pt-words page-table words and
# rewrite at most max-records checksum records per handover: the file
# the LibFS appended sits in 16 whole aligned granules, so a handover is
# their 16 words and the dirent and index pages' (about 38 words and 5
# records; 100 and 69 when its ends were ragged).
gate_handover_libfs() {
	bad=$(go test -run='^$' -bench='^BenchmarkHandoverLibFS2M$' -benchtime=200x -benchmem ./internal/libfs/ \
		| awk -v max="$1" -v maxw="$2" -v maxr="$3" '/^BenchmarkHandoverLibFS2M/ {
				n++
				for (i = 2; i < NF; i++) {
					if ($(i + 1) == "aux-rebuilds/op") { seen++; if ($i + 0 != 0) bad = 1 }
					if ($(i + 1) == "pt-words/op") { seen++; if ($i + 0 > maxw) bad = 1 }
					if ($(i + 1) == "records/op") { seen++; if ($i + 0 > maxr) bad = 1 }
					if ($(i + 1) == "allocs/op") { seen++; if ($i + 0 > max) bad = 1 }
				}
			}
			END { if (n == 0 || seen != 4 * n) bad = 1; print bad + 0 }')
	if [ "$bad" != "0" ]; then
		echo "FAIL: BenchmarkHandoverLibFS2M must report 0 aux-rebuilds/op, at most $2 pt-words/op, at most $3 records/op and at most $1 allocs/op" >&2
		exit 1
	fi
}

# gate_wire_rpc: BenchmarkWireRPC16K must run its read, write and
# getattr legs, each reporting B/op and allocs/op; a 16 KiB READ must
# allocate less than 1 KiB per RPC (no payload-sized buffer anywhere on
# its path — the copy-once data path of ISSUE 19) and a 16 KiB WRITE
# less than 24 KiB (one retransmit unit). A leg that goes missing or
# stops reporting fails too.
gate_wire_rpc() {
	bad=$(go test -run='^$' -bench='^BenchmarkWireRPC16K$' -benchtime=2000x -benchmem ./internal/serve/ \
		| awk '/^BenchmarkWireRPC16K\// {
				n++
				for (i = 2; i < NF; i++) {
					if ($(i + 1) == "B/op") {
						seen++
						if ($1 ~ /\/read/ && $i + 0 >= 1024) bad = 1
						if ($1 ~ /\/write/ && $i + 0 >= 24576) bad = 1
					}
					if ($(i + 1) == "allocs/op") seen++
				}
			}
			END { if (n != 3 || seen != 2 * n) bad = 1; print bad + 0 }')
	if [ "$bad" != "0" ]; then
		echo "FAIL: BenchmarkWireRPC16K must report read, write and getattr with READ < 1 KiB/op and WRITE < 24 KiB/op" >&2
		exit 1
	fi
}

# trio-bench is built once; the datapath stages and the four gated
# smokes below all run this binary.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...
go build -o "$tmp/trio-bench" ./cmd/trio-bench

echo "== go test ./..."
go test ./...

echo "== go test -race (concurrency-bearing packages)"
make race

echo "== fuzz smoke (make fuzz: the verifier, scrubber, wire parsers, scoped verification, page-table, checksum-opener, write-reference and hash-table models and the grant rule, 10s each)"
make fuzz

echo "== scrub smoke (one injected bit flip: detected, quarantined, typed error)"
go test -race -run='^TestScrubSmoke$' -count=1 ./internal/fstest/

echo "== bench smoke (benchmarks must build and run, never silently skip)"
# Compile every benchmark in the module; a bench that no longer builds
# is a test failure, not a skip.
go test -run='^$' -bench='^$' ./... > /dev/null
# One-shot run of the data-path families that back BENCH_trio.json.
go test -run='^$' -bench='^BenchmarkDataPath' -benchtime=1x . > /dev/null
# Cross-domain 2 MiB write handovers: streamed-pages/op,
# index-pages-read/op and allocs/op are gated, not just printed — at the
# controller's surface, then through two mounted LibFSes.
gate_handover 4 160 96
gate_handover_libfs 5 41.8 5.5
# And the regression harness itself, end to end in quick mode.
"$tmp/trio-bench" -experiment datapath -quick -json /dev/null > /dev/null

echo "== telemetry overhead smoke (disabled instruments must not allocate)"
# The disabled-path micro-benchmarks report allocs/op with -benchmem;
# any allocation on the disabled path is a regression.
gate_zero_allocs ./internal/telemetry/ '^BenchmarkTelemetryDisabled' 'disabled telemetry path allocates'
# Gate the quick datapath run's allocs/op against the checked-in
# baseline: new allocations on the hot paths fail here, loudly.
"$tmp/trio-bench" -experiment datapath -quick -baseline BENCH_trio.json > /dev/null
# A small file's whole life: the allocs and bytes of its auxiliary state
# are gated, so a page-sized node per file cannot creep back.
gate_alloc_ceiling ./internal/libfs/ '^BenchmarkLifecycle$' 16 1536

echo "== tenancy smoke (1k sessions; shard-scaling and recall-latency gates)"
# The quick sweep's gates run in trio-bench itself (TenancyReport's
# gate in internal/experiments): scaling below the floor or p99
# lease-recall above the ceiling prints the violations and exits 1.
"$tmp/trio-bench" -experiment tenancy -quick > /dev/null

echo "== smallops smoke (per-call-vs-batched speedup gates)"
# The quick sweep's gates run in trio-bench itself (SmallOpsReport's
# gate in internal/experiments): batched map/unmap below the quick
# speedup floor on both metadata modes prints the violations and
# exits 1.
"$tmp/trio-bench" -experiment smallops -quick > /dev/null

echo "== serving smoke (wire codec allocs; serial-vs-pipelined speedup gate)"
# The steady-state codec (frame encode + ReadFrame + decode) must stay
# allocation-free: an alloc per RPC would show up on every wire op of
# every connection.
gate_zero_allocs ./internal/serve/ '^BenchmarkServeCodec' 'serve codec steady state allocates'
# A whole RPC's allocations, both sides of the wire: the regression
# guard of the data path's copy count.
gate_wire_rpc
# The quick run's gate runs in trio-bench itself (ServingReport's gate
# in internal/experiments): pipelined throughput below the quick
# speedup floor over serial RPC prints the violation and exits 1.
"$tmp/trio-bench" -experiment serving -quick > /dev/null

echo "== netchaos smoke (disabled-faults wrapper allocs; exactly-once storm gate)"
# A netsim wrapper with no fault plan must be invisible: the codec
# round trip through it has to stay at 0 allocs/op, or every transport
# that keeps the wrapper for later fault injection pays on every RPC.
gate_zero_allocs ./internal/netsim/ '^BenchmarkNetsimCodec' 'disabled netsim wrapper allocates on the codec path'
# The quick storm's gates run in trio-bench itself (NetChaosReport's
# gate in internal/experiments): acked-op loss, double-apply,
# unexplained bytes, missing faults, or an availability collapse
# prints the violations and exits 1.
"$tmp/trio-bench" -experiment netchaos -quick > /dev/null

echo "== trio-top smoke (two refreshes over the live workload, clean shutdown)"
go run ./cmd/trio-top -n 2 -interval 200ms > /dev/null

echo "== all checks passed"
