package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the shared persistent worker pool behind every fan-out
// in the package. Kernels invoke it tens of thousands of times per second
// (one matmul per transformer op), so ForEachChunk hands chunks to a
// lazily-started, process-wide pool of resident workers: a call costs one
// channel send per offered worker instead of a goroutine spawn, and zero
// synchronization at GOMAXPROCS=1. An offer is queued, not handed to an
// idle worker or dropped: a coarse loop (experiment cells, forest trees)
// that starts while the workers are still starting up, or busy, is joined
// by each worker as it frees up, instead of running on its caller alone.

// poolJob is one ForEachChunk invocation. Workers claim fixed-size chunks
// through the shared atomic cursor; which worker runs which chunk is
// scheduling-dependent, but chunk boundaries are not, so kernels that
// write disjoint per-chunk outputs produce identical bytes at every
// GOMAXPROCS.
type poolJob struct {
	fn    func(lo, hi int)
	chunk int
	n     int
	next  atomic.Int64
	wg    sync.WaitGroup // one count per chunk, all added before any offer
}

// run claims chunks until the job is exhausted. A worker that takes an
// offer after the job is done claims nothing and returns at once.
func (j *poolJob) run() {
	for {
		c := int(j.next.Add(1)) - 1
		lo := c * j.chunk
		if lo >= j.n {
			return
		}
		j.fn(lo, min(lo+j.chunk, j.n))
		j.wg.Done()
	}
}

var (
	poolOnce sync.Once
	poolJobs chan *poolJob
)

// poolSize is the resident worker count: GOMAXPROCS when the pool
// starts, floored at 8 so worker-count determinism (tests pinning
// GOMAXPROCS ∈ {1, 2, 8}) stays exercisable on small CI boxes. Idle
// workers cost only a parked goroutine.
func poolSize() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// startPool starts the workers. The offer queue holds one offer per
// worker: when it is full, every worker already has work waiting.
func startPool() {
	size := poolSize()
	poolJobs = make(chan *poolJob, size)
	for w := 0; w < size; w++ {
		go func() {
			for j := range poolJobs {
				j.run()
			}
		}()
	}
}

// ForEachChunk runs fn over [0, n) split into fixed chunks of the given
// size, fanning the chunks across at most GOMAXPROCS goroutines: the
// caller plus workers of the shared resident pool, each of which joins
// when it takes the call's offer. The calling goroutine always
// participates and waits only for chunks a worker has claimed, so the
// call makes progress even when every pool worker is busy (nested loops
// cannot deadlock: offers never block, and an offer taken late finds the
// chunks gone).
//
// Determinism contract: chunk boundaries depend only on n and chunk —
// never on GOMAXPROCS or on which worker claims which chunk — so a fn
// whose chunks write disjoint output regions yields byte-identical results
// at every GOMAXPROCS, including 1, where fn(0, n) runs inline on the
// caller with no synchronization at all (so fn must loop over [lo, hi)).
func ForEachChunk(n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	workers := runtime.GOMAXPROCS(0)
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	poolOnce.Do(startPool)
	j := &poolJob{fn: fn, chunk: chunk, n: n}
	j.wg.Add(nChunks)
	for i := 0; i < workers-1; i++ {
		select {
		case poolJobs <- j:
		default:
			// The queue is full, so every worker has work waiting; the
			// caller absorbs the chunks instead of blocking on an offer.
		}
	}
	j.run()
	j.wg.Wait()
}
