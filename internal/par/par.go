// Package par is the repo's generic bounded worker pool. It is a leaf
// package (stdlib only) so that every layer — the simulation substrate
// (internal/faultsim), the trace store (internal/trace) and the experiment
// orchestrator (internal/pipeline) — can share one runner without import
// cycles: pipeline imports faultsim for the fleet cache, so the runner it
// used to own could never be reused *inside* generation until it moved
// down here.
//
// The contract that makes the pool safe for deterministic work: results
// are returned in task order regardless of completion order, so with
// pure per-task functions the output is identical to running the tasks
// sequentially.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one named unit of work producing a T.
type Task[T any] struct {
	// Name identifies the task in error messages ("table2/Intel_Purley/LightGBM").
	Name string
	// Run computes the task's result. It must honor ctx cancellation for
	// long computations, and must not mutate state shared with sibling
	// tasks.
	Run func(ctx context.Context) (T, error)
}

// Workers resolves a worker-count knob: n <= 0 means one worker per
// available CPU.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run fans tasks out across one goroutine per CPU (GOMAXPROCS) and
// returns results in task order, regardless of completion order — with the
// same inputs the output is identical to running the tasks sequentially.
// The first task error cancels everything still queued and is returned
// wrapped with the task's name; an already-canceled ctx returns ctx.Err()
// without starting any task.
func Run[T any](ctx context.Context, tasks []Task[T]) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := Workers(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]T, len(tasks))
	if len(tasks) == 0 {
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					return
				}
				out, err := tasks[i].Run(ctx)
				if err != nil {
					fail(fmt.Errorf("%s: %w", tasks[i].Name, err))
					return
				}
				results[i] = out
			}
		}()
	}
feed:
	for i := range tasks {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Map is a convenience wrapper over Run for the common fan-out shape: one
// task per item, results in item order.
func Map[I, T any](ctx context.Context, items []I,
	name func(I) string, fn func(ctx context.Context, item I) (T, error)) ([]T, error) {
	tasks := make([]Task[T], len(items))
	for i, item := range items {
		tasks[i] = Task[T]{Name: name(item), Run: func(ctx context.Context) (T, error) {
			return fn(ctx, item)
		}}
	}
	return Run(ctx, tasks)
}

// MapN is Map over the index range [0, n): the sharded-loop shape used by
// the parallel fleet generator, where the item *is* its index.
func MapN[T any](ctx context.Context, n int,
	name func(int) string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	tasks := make([]Task[T], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[T]{Name: name(i), Run: func(ctx context.Context) (T, error) {
			return fn(ctx, i)
		}}
	}
	return Run(ctx, tasks)
}

// ForEachN runs fn(i) for every i in [0, n) across at most `workers`
// goroutines and returns when all calls complete — the infallible,
// uncancellable sharded-loop shape (per-log sorting, storm annotation,
// per-DIMM extraction). fn must not fail and must touch only state owned
// by its index; results are communicated by writing to index-owned slots.
func ForEachN(workers, n int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n == 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
