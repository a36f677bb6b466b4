// Package par is the repo's one fan-out: a process-wide pool of resident
// workers (pool.go) that every parallel loop borrows from, one worker per
// CPU (GOMAXPROCS). It is a leaf package (stdlib only) so that every
// layer — the simulation substrate (internal/faultsim), the trace store
// (internal/trace), the model kernels and the experiment orchestrator
// (internal/pipeline) — can share it without import cycles. Offers to the
// workers never block and the caller always works, so loops nest freely:
// the pool size, not a per-call worker count, bounds how many run at once.
//
// The contract that makes the pool safe for deterministic work: results
// are returned in task order regardless of completion order, so with
// pure per-task functions the output is identical to running the tasks
// sequentially.
package par

import (
	"context"
	"fmt"
	"sync"
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

// Run fans tasks out on the pool and returns results in task order,
// regardless of completion order — with the same inputs the output is
// identical to running the tasks sequentially. The first task error
// cancels everything still queued and is returned wrapped with the task's
// name; an already-canceled ctx returns ctx.Err() without starting any
// task.
func Run[T any](ctx context.Context, tasks []Task[T]) ([]T, error) {
	return MapN(ctx, len(tasks), func(i int) string { return tasks[i].Name },
		func(ctx context.Context, i int) (T, error) { return tasks[i].Run(ctx) })
}

// Map is Run for the common fan-out shape: one task per item, results in
// item order. name is called only for a failing item.
func Map[I, T any](ctx context.Context, items []I,
	name func(I) string, fn func(ctx context.Context, item I) (T, error)) ([]T, error) {
	return MapN(ctx, len(items), func(i int) string { return name(items[i]) },
		func(ctx context.Context, i int) (T, error) { return fn(ctx, items[i]) })
}

// MapN is Map over the index range [0, n): the sharded-loop shape used by
// the parallel fleet generator, where the item *is* its index. It is
// ForEachN plus first-error cancellation: once a call fails, indices not
// yet started are skipped, and the error comes back wrapped with name(i)
// of the failing index — the only index name is called for.
func MapN[T any](ctx context.Context, n int,
	name func(int) string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]T, n)
	var (
		errOnce  sync.Once
		firstErr error
	)
	ForEachN(n, func(i int) {
		if ctx.Err() != nil {
			return
		}
		out, err := fn(ctx, i)
		if err != nil {
			errOnce.Do(func() {
				firstErr = fmt.Errorf("%s: %w", name(i), err)
				cancel()
			})
			return
		}
		results[i] = out
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// ForEachN runs fn(i) for every i in [0, n) on the pool and returns when
// all calls complete — the infallible, uncancellable sharded-loop shape
// (per-log sorting, storm annotation, per-DIMM extraction, per-feature
// histograms). fn must not fail and must touch only state owned by its
// index; results are communicated by writing to index-owned slots.
func ForEachN(n int, fn func(i int)) {
	ForEachChunk(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
