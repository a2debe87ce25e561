#!/bin/sh
# loc.sh — non-test Go lines per package and in total: the number
# ROADMAP's quality aim says every PR reports. Counts physical lines of
# every tracked-tree *.go file that is not a *_test.go and not under
# benchmark/ (the benchmark measures the program; it is not the program).
#
# Usage: sh scripts/loc.sh [dir]   (default: the repo this script is in)
#        BASE=<git ref> sh scripts/loc.sh [dir]
#
# With BASE set (make loc BASE=<ref>), the tree at that ref is unpacked
# with git archive into a temporary directory and each package is
# printed as its lines at the ref, its lines now and the net change —
# the "parent → change" line of a CHANGES.md entry.
set -eu

cd "${1:-$(dirname "$0")/..}"

# counts <dir>: one "<package> <lines>" line per package, then "total".
counts() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*') \
		| sort \
		| while read -r f; do
			printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$1/$f")"
		done \
		| awk '{ n[$1] += $2; total += $2 } END { for (p in n) print p, n[p]; print "total", total + 0 }'
}

if [ -z "${BASE:-}" ]; then
	counts . | awk '$1 != "total" { printf "%7d  %s\n", $2, $1 | "sort -k2" }
		$1 == "total" { total = $2 }
		END { close("sort -k2"); printf "%7d  total\n", total }'
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git archive "$BASE" | tar -x -C "$tmp/tree"
counts "$tmp/tree" > "$tmp/base"
counts . > "$tmp/now"
printf '%7s %7s %7s  %s\n' base now net "package (base = $BASE)"
awk 'NR == FNR { b[$1] = $2; seen[$1] = 1; next }
	{ n[$1] = $2; seen[$1] = 1 }
	END {
		for (p in seen)
			if (p != "total") printf "%7d %7d %+7d  %s\n", b[p], n[p], n[p] - b[p], p | "sort -k4"
		close("sort -k4")
		printf "%7d %7d %+7d  total\n", b["total"], n["total"], n["total"] - b["total"]
	}' "$tmp/base" "$tmp/now"
