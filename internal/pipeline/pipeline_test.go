package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memfp/internal/faultsim"
	"memfp/internal/par"
	"memfp/internal/platform"
)

// ---------------------------------------------------------------------------
// Runner (internal/par, as the experiment cells use it)
// ---------------------------------------------------------------------------

func TestRunStableOrder(t *testing.T) {
	// Later tasks finish first; results must still come back in task order.
	const n = 16
	tasks := make([]par.Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = par.Task[int]{Name: fmt.Sprintf("t%d", i), Run: func(ctx context.Context) (int, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i * i, nil
		}}
	}
	got, err := par.Run(context.Background(), 8, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d (order scrambled)", i, v, i*i)
		}
	}
}

func TestRunMatchesSequential(t *testing.T) {
	tasks := make([]par.Task[int], 10)
	for i := range tasks {
		i := i
		tasks[i] = par.Task[int]{Name: fmt.Sprintf("t%d", i), Run: func(ctx context.Context) (int, error) {
			return 3*i + 1, nil
		}}
	}
	seq, err := par.Run(context.Background(), 1, tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Run(context.Background(), 8, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != got[i] {
			t.Fatalf("parallel diverged from sequential at %d: %d vs %d", i, got[i], seq[i])
		}
	}
}

func TestRunErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	tasks := []par.Task[int]{
		{Name: "fails", Run: func(ctx context.Context) (int, error) { return 0, boom }},
	}
	for i := 0; i < 64; i++ {
		tasks = append(tasks, par.Task[int]{Name: fmt.Sprintf("t%d", i), Run: func(ctx context.Context) (int, error) {
			started.Add(1)
			return 0, nil
		}})
	}
	_, err := par.Run(context.Background(), 1, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := err.Error(); got != "fails: boom" {
		t.Errorf("error not wrapped with task name: %q", got)
	}
	// With one worker the failing task runs first and cancels the rest.
	if started.Load() != 0 {
		t.Errorf("%d sibling tasks ran after the failure", started.Load())
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := par.Run(ctx, 4, []par.Task[int]{{Name: "t", Run: func(ctx context.Context) (int, error) {
		ran = true
		return 1, nil
	}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("task ran despite pre-cancelled context")
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := par.Run[int](context.Background(), 4, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestWorkers(t *testing.T) {
	if par.Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if par.Workers(0) < 1 || par.Workers(-1) < 1 {
		t.Error("defaulted worker count must be at least 1")
	}
}

// ---------------------------------------------------------------------------
// FleetCache
// ---------------------------------------------------------------------------

func TestFleetCacheHitMiss(t *testing.T) {
	c := NewFleetCache()
	cfg := faultsim.Config{Platform: platform.Purley, Scale: 0.005, Seed: 7}

	r1, err := c.Get(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Get(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second Get returned a different result pointer — fleet regenerated")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats after 2 Gets = %+v, want 1 miss / 1 hit / 1 entry", st)
	}

	// A different seed is a different fleet.
	cfg2 := cfg
	cfg2.Seed = 8
	r3, err := c.Get(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("different seed returned the cached fleet")
	}
	st = c.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Errorf("stats after 3 Gets = %+v, want 2 misses / 1 hit / 2 entries", st)
	}
}

func TestFleetCacheSingleflight(t *testing.T) {
	c := NewFleetCache()
	cfg := faultsim.Config{Platform: platform.K920, Scale: 0.005, Seed: 11}
	const n = 16
	results := make([]*faultsim.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Get(context.Background(), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different fleet pointer", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("%d generations for %d concurrent Gets, want exactly 1 (singleflight)", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
}

func TestFleetCacheBypass(t *testing.T) {
	c := NewFleetCache()
	cfg := faultsim.Config{Platform: platform.Purley, Scale: 0.005, Seed: 7, MaxEventsPerDIMM: 10}
	if _, err := c.Get(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Bypasses != 1 || st.Entries != 0 || st.Misses != 0 {
		t.Errorf("non-key config must bypass the cache: %+v", st)
	}
}

func TestFleetCacheErrorNotCached(t *testing.T) {
	c := NewFleetCache()
	bad := faultsim.Config{Platform: "no-such-platform", Scale: 0.01, Seed: 1}
	if _, err := c.Get(context.Background(), bad); err == nil {
		t.Fatal("expected error for unknown platform")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed generation left %d cache entries", st.Entries)
	}
}

func TestFleetCacheCancelledContext(t *testing.T) {
	c := NewFleetCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Get(ctx, faultsim.Config{Platform: platform.Purley, Scale: 0.005, Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Error("cancelled Get still generated a fleet")
	}
}

// TestEnvDefaults checks the package's default fleet source: Generate,
// which programs without a cache of their own call, draws from Shared.
func TestEnvDefaults(t *testing.T) {
	cfg := faultsim.Config{Platform: platform.Purley, Scale: 0.005, Seed: 5}
	r1, err := Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Shared.Get(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("Generate must fall back to the Shared cache")
	}
}
