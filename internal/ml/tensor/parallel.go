package tensor

import "memfp/internal/par"

// parallelRows fans fn out over [0, rows) in contiguous chunks through
// internal/par's shared resident worker pool, at one worker per CPU
// (GOMAXPROCS). The chunk size depends only on the per-row work estimate
// — never on GOMAXPROCS — which is half of the determinism contract; the
// other half is that kernels write disjoint rows per chunk. Kernel
// results are therefore bit-identical at every GOMAXPROCS: the oracle
// tests pin it to {1, 2, 8} and compare bytes (at 1, kernels run fully
// inline with zero synchronization).
func parallelRows(rows, workPerRow int, fn func(lo, hi int)) {
	par.ForEachChunk(rows, chunkRows(workPerRow), fn)
}

// chunkRows is parallelRows' chunk size: as many rows as reach a work
// estimate of 1<<15, and at least one.
func chunkRows(workPerRow int) int {
	const minWork = 1 << 15
	if workPerRow < 1 {
		workPerRow = 1
	}
	return max(minWork/workPerRow, 1)
}
