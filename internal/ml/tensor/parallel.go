package tensor

import (
	"sync/atomic"

	"memfp/internal/par"
)

// workers is the package-wide worker-count knob consumed by parallelRows.
// 0 (the default) means one worker per CPU.
var workers atomic.Int32

// SetWorkers pins the number of workers kernel fan-outs may use (0
// restores the GOMAXPROCS default) and returns the previous setting.
// Kernel results are bit-identical for every worker count — the oracle
// tests pin {1, 2, 8} and compare bytes — so this knob only trades
// parallelism, never numerics. With 1, kernels run fully inline with zero
// synchronization. Only tests and benchmarks call it: the serving path
// leaves the default, so kernel calls made from the engine's shard
// goroutines fan out over the shared pool at GOMAXPROCS.
func SetWorkers(n int) int {
	prev := int(workers.Swap(int32(n)))
	return prev
}

// parallelRows fans fn out over [0, rows) in contiguous chunks through
// internal/par's shared resident worker pool. The chunk size depends only
// on the per-row work estimate — never on the worker count — which is
// half of the determinism contract; the other half is that kernels write
// disjoint rows per chunk.
func parallelRows(rows, workPerRow int, fn func(lo, hi int)) {
	const minWork = 1 << 15
	if workPerRow < 1 {
		workPerRow = 1
	}
	chunk := minWork / workPerRow
	if chunk < 1 {
		chunk = 1
	}
	par.ForEachChunk(int(workers.Load()), rows, chunk, fn)
}
