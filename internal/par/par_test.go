package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn with GOMAXPROCS pinned to n — the worker count Run
// fans out to — and restores the previous value on return.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestRunStableOrder(t *testing.T) {
	for _, n := range []int{0, 100} {
		tasks := make([]Task[int], n)
		for i := 0; i < n; i++ {
			i := i
			tasks[i] = Task[int]{Name: fmt.Sprintf("t%d", i), Run: func(context.Context) (int, error) {
				// Later tasks finish first.
				time.Sleep(time.Duration(n-i) * time.Microsecond)
				return i * i, nil
			}}
		}
		for _, workers := range []int{1, 3, 16} {
			var out []int
			var err error
			withProcs(workers, func() { out, err = Run(context.Background(), tasks) })
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(out))
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
				}
			}
		}
	}
}

func TestRunFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var started atomic.Int64
		tasks := make([]Task[int], 64)
		for i := range tasks {
			i := i
			name := fmt.Sprintf("t%d", i)
			if i == 0 {
				name = "fails"
			}
			tasks[i] = Task[int]{Name: name, Run: func(ctx context.Context) (int, error) {
				started.Add(1)
				if i == 0 {
					return 0, boom
				}
				<-ctx.Done()
				return 0, nil
			}}
		}
		var err error
		withProcs(workers, func() { _, err = Run(context.Background(), tasks) })
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		if got := err.Error(); got != "fails: boom" {
			t.Errorf("workers=%d: error not wrapped with the task name: %q", workers, got)
		}
		got := started.Load()
		if got == 64 {
			t.Errorf("workers=%d: error did not cancel queued tasks", workers)
		}
		// With one worker the failing task runs first and no sibling starts.
		if workers == 1 && got != 1 {
			t.Errorf("workers=1: %d sibling tasks ran after the failure", got-1)
		}
	}
}

func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := Run(ctx, []Task[int]{{Name: "t", Run: func(context.Context) (int, error) {
		ran = true
		return 0, nil
	}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("task ran under a pre-canceled context")
	}
}

func TestMapN(t *testing.T) {
	out, err := MapN(context.Background(), 10,
		func(i int) string { return fmt.Sprintf("n%d", i) },
		func(_ context.Context, i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestMapNNamesOnlyTheFailure: MapN formats the name of the failing
// index alone, not one per index up front.
func TestMapNNamesOnlyTheFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var named atomic.Int64
		var err error
		withProcs(workers, func() {
			_, err = MapN(context.Background(), 100,
				func(i int) string { named.Add(1); return fmt.Sprintf("n%d", i) },
				func(_ context.Context, i int) (int, error) {
					if i == 37 {
						return 0, boom
					}
					return i, nil
				})
		})
		if err == nil || err.Error() != "n37: boom" {
			t.Fatalf("workers=%d: err = %v, want n37: boom", workers, err)
		}
		if got := named.Load(); got != 1 {
			t.Errorf("workers=%d: name called %d times, want 1", workers, got)
		}
	}
}

// inFlight records the most calls running at once.
type inFlight struct{ cur, peak atomic.Int64 }

func (f *inFlight) enter() {
	c := f.cur.Add(1)
	for {
		p := f.peak.Load()
		if c <= p || f.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (f *inFlight) leave() { f.cur.Add(-1) }

// TestWorkers: the worker count is GOMAXPROCS, so at GOMAXPROCS=3 neither
// ForEachN nor Run ever has more than 3 calls in flight.
func TestWorkers(t *testing.T) {
	const procs, n = 3, 48
	withProcs(procs, func() {
		var f inFlight
		ForEachN(n, func(int) {
			f.enter()
			time.Sleep(200 * time.Microsecond)
			f.leave()
		})
		if got := f.peak.Load(); got > procs {
			t.Errorf("ForEachN: %d calls in flight at GOMAXPROCS=%d", got, procs)
		}

		var g inFlight
		tasks := make([]Task[int], n)
		for i := range tasks {
			tasks[i] = Task[int]{Name: fmt.Sprintf("t%d", i), Run: func(context.Context) (int, error) {
				g.enter()
				time.Sleep(200 * time.Microsecond)
				g.leave()
				return 0, nil
			}}
		}
		if _, err := Run(context.Background(), tasks); err != nil {
			t.Fatal(err)
		}
		if got := g.peak.Load(); got > procs {
			t.Errorf("Run: %d calls in flight at GOMAXPROCS=%d", got, procs)
		}
	})
}

// TestForEachNNested: a ForEachN inside a ForEachN — the forest's trees
// each fanning out their histogram features — visits every inner index
// exactly once and returns, at every GOMAXPROCS.
func TestForEachNNested(t *testing.T) {
	const outer, inner = 25, 40
	for _, procs := range []int{1, 2, 8} {
		hits := make([]int32, outer*inner)
		withProcs(procs, func() {
			ForEachN(outer, func(o int) {
				ForEachN(inner, func(i int) {
					atomic.AddInt32(&hits[o*inner+i], 1)
				})
			})
		})
		for k, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d: inner index %d/%d visited %d times", procs, k/inner, k%inner, h)
			}
		}
	}
}
