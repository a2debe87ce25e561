package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// blockOracle is the version oracle the data workloads share: every
// block the program stores carries its identity and a version in its
// first 16 bytes, the version again in its last 8 (a torn block shows),
// and a seed-derived fill in between. The oracle remembers the version
// last written to each block.
type blockOracle struct {
	fill    []byte   // one block of seed-derived bytes
	ver     []uint32 // per block id
	scratch []byte
}

func newBlockOracle(rng *rand.Rand, blockLen, blocks int) *blockOracle {
	o := &blockOracle{
		fill:    make([]byte, blockLen),
		ver:     make([]uint32, blocks),
		scratch: make([]byte, blockLen),
	}
	rng.Read(o.fill)
	return o
}

// stamp writes id and version into a block image.
func stamp(b []byte, id int, version uint32) {
	binary.LittleEndian.PutUint64(b[0:], uint64(id))
	binary.LittleEndian.PutUint64(b[8:], uint64(version))
	binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(version))
}

// stampOf reads a block's identity and version back; ok is false when
// head and tail versions disagree.
func stampOf(b []byte) (id int, version uint32, ok bool) {
	id = int(binary.LittleEndian.Uint64(b[0:]))
	head := binary.LittleEndian.Uint64(b[8:])
	tail := binary.LittleEndian.Uint64(b[len(b)-8:])
	return id, uint32(head), head == tail
}

// next stamps block id at its next version into dst (a buffer that
// already holds the fill) and returns that version; the caller commits
// it to ver once the program has stored the block.
func (o *blockOracle) next(dst []byte, id int) uint32 {
	v := o.ver[id] + 1
	stamp(dst, id, v)
	return v
}

// checkStamp verifies that got is block id at the version the oracle
// holds, looking at the stamp only — cheap enough for every read.
func (o *blockOracle) checkStamp(got []byte, id int) error {
	gid, gv, ok := stampOf(got)
	if !ok || gid != id || gv != o.ver[id] {
		return fmt.Errorf("block %d: read id %d version %d (torn=%v), oracle has version %d", id, gid, gv, !ok, o.ver[id])
	}
	return nil
}

// checkFull verifies every byte of got.
func (o *blockOracle) checkFull(got []byte, id int) error {
	copy(o.scratch, o.fill)
	stamp(o.scratch, id, o.ver[id])
	if !bytes.Equal(got, o.scratch) {
		return fmt.Errorf("block %d: content differs from oracle version %d", id, o.ver[id])
	}
	return nil
}
