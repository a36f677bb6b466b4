package memfp

import (
	"context"
	"errors"
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

	if _, err := RunTableICtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("Table I over 3 platforms: %+v, want 3 misses / 0 hits", st)
	}

	if _, err := RunFigure4Ctx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFigure5Ctx(context.Background(), cfg); err != nil {
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

	if _, err := RunTableICtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTableICtx err = %v, want context.Canceled", err)
	}
	if _, err := RunTableIICtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTableIICtx err = %v, want context.Canceled", err)
	}
	if _, err := RunFigure4Ctx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunFigure4Ctx err = %v, want context.Canceled", err)
	}
	if _, err := RunFigure5Ctx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunFigure5Ctx err = %v, want context.Canceled", err)
	}
	if _, err := RunTransferMatrixCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTransferMatrixCtx err = %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("cancelled runners still touched the cache: %+v", st)
	}
}

// TestWorkersKnobDeterminism runs a cheap analysis experiment at several
// worker counts and requires identical output.
func TestWorkersKnobDeterminism(t *testing.T) {
	var ref []Figure4Result
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{Scale: 0.005, Seed: 17, Workers: workers, Fleets: pipeline.NewFleetCache()}
		out, err := RunFigure4Ctx(context.Background(), cfg)
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

// TestScenarioRegistryComplete checks that every paper artifact is
// registered and ordered like the paper.
func TestScenarioRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig2", "fig3", "fig4", "fig5", "table2", "transfer"}
	for _, name := range want {
		if _, ok := pipeline.Lookup(name); !ok {
			t.Errorf("scenario %q not registered", name)
		}
	}
	all := pipeline.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Order > all[i].Order {
			t.Errorf("registry out of order at %q", all[i].Name)
		}
	}
}

// TestScenarioRunsCheap executes the cheap registered scenarios end to end
// through an Env, discarding output.
func TestScenarioRunsCheap(t *testing.T) {
	env := &pipeline.Env{Cache: pipeline.NewFleetCache(), Scale: 0.005, Seed: 19}
	for _, name := range []string{"table1", "fig2", "fig3", "fig4", "fig5"} {
		s, ok := pipeline.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		if err := s.Run(context.Background(), env); err != nil {
			t.Errorf("scenario %s: %v", name, err)
		}
	}
	if st := env.Fleets().Stats(); st.Misses != 3 {
		t.Errorf("scenarios regenerated fleets: %+v", st)
	}
}
