package controller

import (
	"cmp"
	"slices"
	"sort"

	"trio/internal/nvm"
)

// A mapping and a file's verified page set hold their pages as page runs
// (pageRun, bulkio.go) in normal form: sorted by start, disjoint,
// adjacent runs merged. A sequentially allocated 2 MiB file is three or
// four of them, so membership is a binary search, set equality is slice
// equality, and a difference costs the runs, not the pages.

func (r pageRun) end() nvm.PageID { return r.start + nvm.PageID(r.n) }

// appendPage adds p to runs being built in walk order: a page that
// follows the last run extends it. normalizeRuns finishes the job.
func appendPage(runs []pageRun, p nvm.PageID) []pageRun {
	if n := len(runs); n > 0 && runs[n-1].end() == p {
		runs[n-1].n++
		return runs
	}
	return append(runs, pageRun{start: p, n: 1})
}

// normalizeRuns puts runs into normal form, in place. A walk of a
// sequentially allocated file usually is already, which the first loop
// detects.
func normalizeRuns(runs []pageRun) []pageRun {
	ok := true
	for i := 1; i < len(runs) && ok; i++ {
		ok = runs[i-1].end() < runs[i].start
	}
	if ok {
		return runs
	}
	slices.SortFunc(runs, func(a, b pageRun) int { return cmp.Compare(a.start, b.start) })
	out := runs[:1]
	for _, r := range runs[1:] {
		last := &out[len(out)-1]
		if r.start > last.end() {
			out = append(out, r)
		} else if r.end() > last.end() {
			last.n = int(r.end() - last.start)
		}
	}
	return out
}

// runsAdd adds page p to normal-form runs.
func runsAdd(runs []pageRun, p nvm.PageID) []pageRun {
	return normalizeRuns(appendPage(runs, p))
}

// runsLen counts the pages of normal-form runs.
func runsLen(runs []pageRun) (n int) {
	for _, r := range runs {
		n += r.n
	}
	return n
}

// runsDiff appends to dst the pages of a that are not in b, both in
// normal form, and returns it in normal form.
func runsDiff(dst, a, b []pageRun) []pageRun {
	j := 0
	for _, r := range a {
		lo, end := r.start, r.end()
		for ; j < len(b) && b[j].end() <= lo; j++ {
		}
		for k := j; k < len(b) && b[k].start < end; k++ {
			if b[k].start > lo {
				dst = append(dst, pageRun{start: lo, n: int(b[k].start - lo)})
			}
			lo = max(lo, b[k].end())
		}
		if lo < end {
			dst = append(dst, pageRun{start: lo, n: int(end - lo)})
		}
	}
	return dst
}

// runsFind returns the index of the run holding page p, -1 when none.
func runsFind(runs []pageRun, p nvm.PageID) int {
	i := sort.Search(len(runs), func(i int) bool { return runs[i].end() > p })
	if i < len(runs) && runs[i].start <= p {
		return i
	}
	return -1
}

// runsRemove removes page p from normal-form runs, splitting the run
// that held it.
func runsRemove(runs []pageRun, p nvm.PageID) []pageRun {
	i := runsFind(runs, p)
	if i < 0 {
		return runs
	}
	if tail := (pageRun{start: p + 1, n: int(runs[i].end() - p - 1)}); tail.n > 0 {
		runs = slices.Insert(runs, i+1, tail)
	}
	if runs[i].n = int(p - runs[i].start); runs[i].n == 0 {
		runs = slices.Delete(runs, i, i+1)
	}
	return runs
}
