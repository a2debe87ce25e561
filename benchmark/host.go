package main

import "time"

// Two reference kernels that touch none of the program's code, run for
// 100 ms each after every episode. They explain a run, they never gate
// it: a slow host.* next to a large run.quiet_gap is a noisy neighbour,
// while host.* holding steady under a falling run.all_ops_per_s means
// the program stalled itself.

const (
	hostKernelLen = 100 * time.Millisecond
	hostBufLen    = 64 << 20
)

// hostBuf is allocated and touched when the process starts, so that
// every episode runs with the same heap under it.
var (
	hostBuf  = newHostBuf()
	hostSink uint64
)

func newHostBuf() []byte {
	b := make([]byte, hostBufLen)
	for i := 0; i < len(b); i += 4096 {
		b[i] = byte(i >> 12)
	}
	return b
}

// hostKernels returns random-4-KiB-copies per second out of a 64 MiB
// buffer (memory bandwidth and cache pressure from neighbours) and
// xorshift steps per second (CPU time actually granted).
func hostKernels() (copyPerS, aluPerS float64) {
	var dst [4096]byte
	x := uint64(88172645463325252)
	step := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}

	const copyBatch = 256
	start := time.Now()
	n := 0
	for time.Since(start) < hostKernelLen {
		for k := 0; k < copyBatch; k++ {
			off := int(step()%(hostBufLen/4096)) * 4096
			copy(dst[:], hostBuf[off:off+4096])
		}
		n += copyBatch
	}
	copyPerS = float64(n) / time.Since(start).Seconds()
	hostSink += uint64(dst[0])

	const aluBatch = 1 << 16
	start = time.Now()
	n = 0
	for time.Since(start) < hostKernelLen {
		for k := 0; k < aluBatch; k++ {
			step()
		}
		n += aluBatch
	}
	aluPerS = float64(n) / time.Since(start).Seconds()
	hostSink += x
	return copyPerS, aluPerS
}
