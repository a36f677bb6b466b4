package par

import (
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachChunkCoversRange: every index is visited exactly once, for
// chunk sizes that do and don't divide n, and for worker counts
// (GOMAXPROCS) below, at, and above the chunk count.
func TestForEachChunkCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, chunk := range []int{1, 3, 64, 1000} {
			for _, workers := range []int{1, 2, 8, 33} {
				hits := make([]int32, n)
				withProcs(workers, func() {
					ForEachChunk(n, chunk, func(lo, hi int) {
						if lo < 0 || hi > n || lo >= hi {
							t.Errorf("bad chunk [%d, %d) for n=%d", lo, hi, n)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d chunk=%d workers=%d: index %d visited %d times", n, chunk, workers, i, h)
					}
				}
			}
		}
	}
}

// TestForEachChunkBoundariesFixed: for every multi-worker count
// (GOMAXPROCS) the set of (lo, hi) chunks handed to fn depends only on n
// and chunk — the determinism contract disjoint-write kernels rely on.
// (GOMAXPROCS=1 is the documented inline fast path: one [0, n) span on
// the caller.)
func TestForEachChunkBoundariesFixed(t *testing.T) {
	const n, chunk = 1003, 17
	collect := func(workers int) map[[2]int]bool {
		seen := make([]atomic.Bool, (n+chunk-1)/chunk)
		withProcs(workers, func() {
			ForEachChunk(n, chunk, func(lo, hi int) {
				if lo%chunk != 0 {
					t.Errorf("workers=%d: chunk start %d not aligned to %d", workers, lo, chunk)
				}
				want := lo + chunk
				if want > n {
					want = n
				}
				if hi != want {
					t.Errorf("workers=%d: chunk [%d, %d), want end %d", workers, lo, hi, want)
				}
				seen[lo/chunk].Store(true)
			})
		})
		out := map[[2]int]bool{}
		for i := range seen {
			if seen[i].Load() {
				out[[2]int{i * chunk, 0}] = true
			}
		}
		return out
	}
	base := collect(2)
	for _, w := range []int{8, 16} {
		got := collect(w)
		if len(got) != len(base) {
			t.Fatalf("workers=%d produced %d chunks, workers=2 produced %d", w, len(got), len(base))
		}
	}
}

// TestForEachChunkNested: a fn that itself calls ForEachChunk must not
// deadlock — inner borrows fall back to the borrowing goroutine when the
// pool is saturated.
func TestForEachChunkNested(t *testing.T) {
	var total atomic.Int64
	withProcs(8, func() {
		ForEachChunk(64, 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ForEachChunk(32, 4, func(ilo, ihi int) {
					total.Add(int64(ihi - ilo))
				})
			}
		})
	})
	if got := total.Load(); got != 64*32 {
		t.Fatalf("nested ForEachChunk covered %d units, want %d", got, 64*32)
	}
}

// TestForEachChunkSingleWorkerInline: at GOMAXPROCS=1 fn must run on the
// calling goroutine (kernels rely on this for the zero-synchronization
// path).
func TestForEachChunkSingleWorkerInline(t *testing.T) {
	calls := 0 // no atomics: inline execution means no concurrency
	withProcs(1, func() { ForEachChunk(100, 7, func(lo, hi int) { calls += hi - lo }) })
	if calls != 100 {
		t.Fatalf("covered %d of 100", calls)
	}
}

// TestForEachNColdPool: the first loop in a process, made while the pool's
// workers are still starting, is still joined by a worker. Its two calls
// wait for each other, so a loop left to its caller alone times out. The
// check runs in a fresh copy of the test binary, where it is the first use
// of the pool.
func TestForEachNColdPool(t *testing.T) {
	if os.Getenv("PAR_COLD_POOL") == "1" {
		var arrived sync.WaitGroup
		arrived.Add(2)
		met := make(chan struct{})
		go func() { arrived.Wait(); close(met) }()
		withProcs(2, func() {
			ForEachN(2, func(i int) {
				arrived.Done()
				select {
				case <-met:
				case <-time.After(10 * time.Second):
					t.Errorf("call %d ran alone: no pool worker joined the loop", i)
				}
			})
		})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestForEachNColdPool$", "-test.count=1")
	cmd.Env = append(os.Environ(), "PAR_COLD_POOL=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cold-pool run failed: %v\n%s", err, out)
	}
}
