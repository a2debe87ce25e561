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
// admission slot for the whole call, each entry on the narrow fast path
// first, the entries that escalate finished under one lockAll, and the
// verifier round trips charged as one IPC after the locks drop.
// MapFile and UnmapFile are one-entry batches.

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

// MapFiles is MapFile for up to MaxBatch requests in one crossing, and
// the one map path: MapFile is a one-entry batch. out[i] receives
// request i's verdict, and one failing entry leaves the others granted.
// Lease conflicts are waited out (mapEntry) — the batch is the caller's
// own, so the wait holds nobody else up, and an entry that waits holds
// back the entries behind it. Entries naming the same file take effect in
// order. A batch longer than MaxBatch or than out is refused with
// ErrBadRequest before anything is charged or changed.
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
	start := telemetry.Now()
	sp := telemetry.StartSpan(c.shardIdxSession(s.ls.id), "controller.map", "controller")
	defer sp.End()
	gate := c.admit(s.ls.id)
	defer gate.exit(s.ls.id)

	// Common case: the file is known and self-contained — only the
	// involved shards' locks are taken, and even lease contention is
	// waited out under them. Everything wider (adoption, upgrades,
	// forcible revocation, corruption) escalates to one lockAll.
	escal := make([]int, 0, MaxBatch) // on the stack
	for i, r := range reqs {
		c.stats.shard(c.shardIdxIno(r.Ino)).Maps.Add(1)
		// An entry naming a file an earlier entry escalated queues behind
		// it, so entries for one file take effect in order.
		if !slices.ContainsFunc(escal, func(j int) bool { return reqs[j].Ino == r.Ino }) {
			out[i].Info, out[i].Err = s.mapEntry(r, false, gate, nil, start)
			if out[i].Err != errEscalate {
				continue
			}
		}
		escal = append(escal, i)
	}
	verifies := 0
	if len(escal) > 0 {
		c.stats.MapEscalations.Add(int64(len(escal)))
		c.lockAll()
		for _, i := range escal {
			out[i].Info, out[i].Err = s.mapEntry(reqs[i], true, gate, &verifies, start)
		}
		c.unlockAll()
	}
	c.stats.addMapN(int64(len(reqs)), since(start))
	if c.cost != nil {
		c.cost.IPCN(verifies)
	}
	return nil
}

// mapEntry runs one entry to its verdict; its loop is the map path's one
// lease wait. An attempt never blocks: the narrow one
// (mapFileOnceLocked, under the session's, the file's and for a write the
// parent's shard) or the wide one (mapWideLocked, under the batch's
// lockAll) returns how long a foreign group's lease still runs. The entry
// parks on the file and drops its locks and admission slot (its lease
// holder may need the slot to comply with a recall) until a release
// (releaseLocked), a holder's or its own death (markDeadLocked) or the
// end of the wait, when the next attempt recalls or revokes. It is the
// lease's one driver. The gate is re-entered before the locks (enter can
// block, and slot holders may be waiting on the locks), and the grant's
// lease runs from the wake: LeaseTime + RecallTimeout bounds the wait.
func (s *Session) mapEntry(r MapReq, wide bool, gate *admitGate, acc *int, now int64) (MapInfo, error) {
	c := s.c
	for {
		var set lockSet
		var fs *fileState
		var info MapInfo
		var wait time.Duration
		var err error
		if wide {
			info, wait, err = s.mapWideLocked(r, acc, now)
			fs = c.fileOf(r.Ino)
		} else {
			set, fs = c.lockForFile(c.shardIdxSession(s.ls.id), r.Ino, r.Write)
			info, wait, err = s.mapFileOnceLocked(fs, r.Write, now)
		}
		if wait <= 0 {
			if !wide {
				c.unlockShards(&set)
			}
			return info, err
		}
		woken := fs.parkLocked()
		gate.exit(s.ls.id)
		if wide {
			c.unlockAll()
		} else {
			c.unlockShards(&set)
		}
		deadline := time.NewTimer(wait)
		select {
		case <-woken:
		case <-s.ls.gone:
		case <-deadline.C:
		}
		deadline.Stop()
		gate.enter(s.ls.id)
		if wide {
			c.lockAll()
		}
		now = telemetry.Now()
	}
}

// UnmapFiles is UnmapFile for up to MaxBatch files in one crossing, and
// the one unmap path: UnmapFile is a one-entry batch. errs[i] receives
// file i's verdict. Naming a file twice releases it once: the second
// entry finds it unmapped (ErrBadRequest).
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
	start := telemetry.Now()
	sp := telemetry.StartSpan(c.shardIdxSession(s.ls.id), "controller.unmap", "controller")
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
	c.stats.addUnmapN(int64(len(inos)), since(start))
	if c.cost != nil {
		c.cost.IPCN(verifies)
	}
	return nil
}
