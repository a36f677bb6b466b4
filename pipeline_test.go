package memfp

import (
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"memfp/internal/pipeline"
)

// The full-grid parallel-vs-sequential determinism check lives in
// table2_check_test.go (TestTableIIGrid), sharing one expensive grid with
// the paper-shape assertions.

// TestExperimentRunnersShareFleetCache checks the cache accounting across
// runners: three platforms are generated exactly once, then every further
// runner consuming the same (platform, scale, seed) hits.
func TestExperimentRunnersShareFleetCache(t *testing.T) {
	cache := pipeline.NewFleetCache()
	cfg := Config{Scale: 0.005, Seed: 13, Fleets: cache}

	if _, err := RunTableI(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("Table I over 3 platforms: %+v, want 3 misses / 0 hits", st)
	}

	if _, err := RunFigure4(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFigure5(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 3 {
		t.Errorf("later runners regenerated fleets: %+v", st)
	}
	// Figure 4 hits all three platforms, Figure 5 the two Intel ones.
	if st.Hits != 5 {
		t.Errorf("hits = %d, want 5 (3 from fig4 + 2 from fig5)", st.Hits)
	}
}

// TestRunnersCancelledContext checks that an already-cancelled context
// aborts every runner before any fleet is generated.
func TestRunnersCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := pipeline.NewFleetCache()
	cfg := Config{Scale: 0.005, Seed: 13, Fleets: cache}

	if _, err := RunTableI(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTableI err = %v, want context.Canceled", err)
	}
	if _, err := RunTableII(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTableII err = %v, want context.Canceled", err)
	}
	if _, err := RunFigure4(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunFigure4 err = %v, want context.Canceled", err)
	}
	if _, err := RunFigure5(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunFigure5 err = %v, want context.Canceled", err)
	}
	if _, err := RunTransferMatrix(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTransferMatrix err = %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("cancelled runners still touched the cache: %+v", st)
	}
}

// withProcs runs fn with GOMAXPROCS pinned to n — the worker count every
// parallel stage fans out to — and restores the previous value on return.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestWorkersKnobDeterminism runs a cheap analysis experiment at several
// worker counts (GOMAXPROCS) and requires identical output.
func TestWorkersKnobDeterminism(t *testing.T) {
	var ref []Figure4Result
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{Scale: 0.005, Seed: 17, Fleets: pipeline.NewFleetCache()}
		var out []Figure4Result
		var err error
		withProcs(workers, func() { out, err = RunFigure4(context.Background(), cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		if len(out) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(out), len(ref))
		}
		for i := range out {
			if out[i].Platform != ref[i].Platform {
				t.Fatalf("workers=%d: platform order changed", workers)
			}
			for j := range out[i].Cats {
				if out[i].Cats[j] != ref[i].Cats[j] {
					t.Fatalf("workers=%d: %s category %d differs: %+v vs %+v",
						workers, out[i].Platform, j, out[i].Cats[j], ref[i].Cats[j])
				}
			}
		}
	}
}

// TestScenarioRegistryComplete pins the experiment list: every paper
// artifact plus the transfer extension, in the paper's order.
func TestScenarioRegistryComplete(t *testing.T) {
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.Name)
	}
	want := []string{"table1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6", "transfer"}
	if !slices.Equal(got, want) {
		t.Errorf("experiments %v, want %v", got, want)
	}
}

// TestScenarioRunsCheap executes the cheap experiments end to end,
// discarding output, and requires them to share one generation per fleet.
func TestScenarioRunsCheap(t *testing.T) {
	cfg := Config{Scale: 0.005, Seed: 19, Fleets: pipeline.NewFleetCache()}
	cheap := map[string]bool{"table1": true, "fig2": true, "fig3": true, "fig4": true, "fig5": true}
	for _, e := range Experiments() {
		if !cheap[e.Name] {
			continue
		}
		if err := e.Run(context.Background(), cfg, io.Discard); err != nil {
			t.Errorf("experiment %s: %v", e.Name, err)
		}
	}
	if st := cfg.Fleets.Stats(); st.Misses != 3 {
		t.Errorf("experiments regenerated fleets: %+v", st)
	}
}
