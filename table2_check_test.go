package memfp

import (
	"context"
	"testing"

	"memfp/internal/ml/model"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
)

// TestTableIIGrid runs the full Table II grid — every platform, every
// registered algorithm — once through the old sequential
// generate-then-evaluate path and once through the concurrent pipeline,
// then checks (a) the two are byte-identical for the same seed, (b) the
// four paper algorithms match their pinned pre-registry metrics exactly
// (table2_pinned_test.go — this grid covers the FT-Transformer rows the
// fast pinned test skips), and (c) the paper's qualitative findings
// hold: ML beats the rule baseline on Purley, Whitley is the weakest
// platform, and F1 scores land in a plausible band.
//
// The scale matches the benchmark suite (0.02): large enough for every
// platform to carry training positives, small enough that the double grid
// completes on one laptop core.
func TestTableIIGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	ctx := context.Background()
	cfg := Config{Scale: 0.02, Seed: 42}

	// Old sequential path: one platform at a time, one algorithm at a
	// time, single worker, private cache.
	seqCfg := cfg
	seqCfg.Workers = 1
	seqCfg.Fleets = pipeline.NewFleetCache()
	seq := &TableII{Cells: map[platform.ID]map[Algo]Cell{}}
	for _, id := range platform.All() {
		fleet, err := BuildFleet(ctx, seqCfg, id)
		if err != nil {
			t.Fatal(err)
		}
		cells := map[Algo]Cell{}
		for _, a := range Algos() {
			cell, err := EvaluateAlgo(ctx, seqCfg, fleet, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, a, err)
			}
			checkPinnedCell(t, id, a, cell)
			cells[a] = cell
		}
		seq.Cells[id] = cells
	}

	// Concurrent pipeline, fresh cache so nothing is shared with the
	// sequential run.
	parCfg := cfg
	parCfg.Workers = 8
	parCfg.Fleets = pipeline.NewFleetCache()
	t2, err := RunTableII(ctx, parCfg)
	if err != nil {
		t.Fatalf("RunTableII: %v", err)
	}
	t.Logf("\n%s", t2.Format())

	if got, want := t2.Format(), seq.Format(); got != want {
		t.Errorf("parallel Table II diverged from the sequential path:\n--- parallel ---\n%s--- sequential ---\n%s", got, want)
	}

	bestF1 := func(id platform.ID) (float64, Algo) {
		best, bestA := 0.0, Algo("")
		for _, a := range Algos() {
			c := t2.Cells[id][a]
			if c.Applicable && c.Metrics.F1 > best {
				best, bestA = c.Metrics.F1, a
			}
		}
		return best, bestA
	}
	purleyBest, _ := bestF1(platform.Purley)
	whitleyBest, _ := bestF1(platform.Whitley)
	k920Best, _ := bestF1(platform.K920)
	t.Logf("best F1: purley=%.3f whitley=%.3f k920=%.3f", purleyBest, whitleyBest, k920Best)

	rule := t2.Cells[platform.Purley][model.NameRiskyCE].Metrics.F1
	gb := t2.Cells[platform.Purley][model.NameGBDT].Metrics.F1
	if gb <= rule {
		t.Errorf("Purley: GBDT F1 %.3f should beat rule baseline %.3f", gb, rule)
	}
	if whitleyBest >= purleyBest {
		t.Errorf("Whitley best F1 %.3f should be below Purley %.3f (Finding 4)", whitleyBest, purleyBest)
	}
	if purleyBest < 0.45 || purleyBest > 0.85 {
		t.Errorf("Purley best F1 %.3f outside plausible band [0.45, 0.85]", purleyBest)
	}
	if t2.Cells[platform.Whitley][model.NameRiskyCE].Applicable {
		// Baseline must be inapplicable off-Purley.
		t.Errorf("baseline should be inapplicable on Whitley")
	}
}
