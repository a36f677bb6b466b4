package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

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
			out, err := Run(context.Background(), workers, tasks)
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
		_, err := Run(context.Background(), workers, tasks)
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
	_, err := Run(ctx, 2, []Task[int]{{Name: "t", Run: func(context.Context) (int, error) {
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
	out, err := MapN(context.Background(), 0, 10,
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

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("defaulted worker count must be positive")
	}
}
