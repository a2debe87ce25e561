package controller

import (
	"fmt"
	"slices"
	"time"

	"trio/internal/core"
	"trio/internal/telemetry"
)

// Batched map/unmap (§4.5: a LibFS amortises its kernel crossings by
// batching resource calls, as AllocPages, AllocInos and RemoveFiles
// already do). A batch runs inline on the caller: one trap and one
// admission slot for the whole call, each entry on the same narrow fast
// path MapFile/UnmapFile take, the entries that escalate finished under
// one lockAll, and the verifier round trips charged as one IPC after
// the locks drop. Every check of the per-call path runs per entry.

// MaxBatch bounds one MapFiles/UnmapFiles call, so a single crossing
// cannot hold its admission slot (or lockAll) for unbounded work.
const MaxBatch = 64

// MapReq is one MapFiles entry: the arguments of one MapFile.
type MapReq struct {
	Ino   core.Ino
	Loc   core.FileLoc
	Write bool
}

// MapRes is one MapFiles entry's verdict: what MapFile would have
// returned for it.
type MapRes struct {
	Info MapInfo
	Err  error
}

// MapFiles is MapFile for up to MaxBatch requests in one crossing;
// out[i] receives request i's verdict, and one failing entry leaves the
// others granted. Lease conflicts are waited out exactly as MapFile
// does — the batch is the caller's own, so the wait holds nobody else
// up. Entries naming the same file take effect in order. A batch longer
// than MaxBatch or than out is refused with ErrBadRequest before
// anything is charged or changed.
func (s *Session) MapFiles(reqs []MapReq, out []MapRes) error {
	if len(reqs) > MaxBatch || len(out) < len(reqs) {
		return fmt.Errorf("%w: batch of %d map requests, room for %d verdicts (limit %d)", ErrBadRequest, len(reqs), len(out), MaxBatch)
	}
	if len(reqs) == 0 {
		return nil
	}
	c := s.c
	if c.cost != nil {
		c.cost.TrapN(len(reqs))
	}
	start := time.Now()
	sp := telemetry.StartSpan(c.shardIdxSession(s.ls.id), "controller.map_batch", "controller")
	defer sp.End()
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)

	escal := make([]int, 0, MaxBatch) // on the stack
	for i, r := range reqs {
		c.stats.shard(c.shardIdxIno(r.Ino)).Maps.Add(1)
		// An entry naming a file an earlier entry escalated queues behind
		// it, so entries for one file take effect in order.
		if !slices.ContainsFunc(escal, func(j int) bool { return reqs[j].Ino == r.Ino }) {
			out[i].Info, out[i].Err = s.mapFileFast(r.Ino, r.Loc, r.Write, gate)
			if out[i].Err != errEscalate {
				continue
			}
		}
		escal = append(escal, i)
	}
	verifies := 0
	if len(escal) > 0 {
		c.lockAll()
		for _, i := range escal {
			out[i].Info, out[i].Err = s.mapSlowLocked(reqs[i].Ino, reqs[i].Loc, reqs[i].Write, gate, &verifies)
		}
		c.unlockAll()
	}
	c.stats.addMapN(int64(len(reqs)), time.Since(start))
	if c.cost != nil {
		c.cost.IPCN(verifies)
	}
	return nil
}

// UnmapFiles is UnmapFile for up to MaxBatch files in one crossing;
// errs[i] receives file i's verdict. Naming a file twice releases it
// once: the second entry finds it unmapped (ErrBadRequest).
func (s *Session) UnmapFiles(inos []core.Ino, errs []error) error {
	if len(inos) > MaxBatch || len(errs) < len(inos) {
		return fmt.Errorf("%w: batch of %d unmap requests, room for %d verdicts (limit %d)", ErrBadRequest, len(inos), len(errs), MaxBatch)
	}
	if len(inos) == 0 {
		return nil
	}
	c := s.c
	if c.cost != nil {
		c.cost.TrapN(len(inos))
	}
	start := time.Now()
	sp := telemetry.StartSpan(c.shardIdxSession(s.ls.id), "controller.unmap_batch", "controller")
	defer sp.End()
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)

	verifies := 0
	escal := make([]int, 0, MaxBatch)
	for i, ino := range inos {
		c.stats.shard(c.shardIdxIno(ino)).Unmaps.Add(1)
		if !slices.ContainsFunc(escal, func(j int) bool { return inos[j] == ino }) { // as in MapFiles
			if errs[i] = s.unmapFast(ino, &verifies, sp); errs[i] != errEscalate {
				continue
			}
		}
		escal = append(escal, i)
	}
	if len(escal) > 0 {
		c.lockAll()
		for _, i := range escal {
			if errs[i] = s.aliveLocked(); errs[i] == nil {
				errs[i] = c.unmapLocked(s.ls, inos[i], &verifies, sp)
			}
		}
		c.unlockAll()
	}
	c.stats.addUnmapN(int64(len(inos)), time.Since(start))
	if c.cost != nil {
		c.cost.IPCN(verifies)
	}
	return nil
}
