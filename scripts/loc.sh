#!/bin/sh
# loc.sh — non-test Go lines per package and in total: the number
# ROADMAP's quality aim says every PR reports. Counts physical lines of
# every tracked-tree *.go file that is not a *_test.go and not under
# benchmark/ (the benchmark measures the program; it is not the program).
#
# Usage: sh scripts/loc.sh [dir]   (default: the repo this script is in)
set -eu

cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
	| sort \
	| while read -r f; do
		printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
	done \
	| awk '{ n[$1] += $2; total += $2 }
		END {
			for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
			close("sort -k2")
			printf "%7d  total\n", total
		}'
