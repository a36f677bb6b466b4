package memfp

import (
	"context"
	"testing"

	"memfp/internal/eval"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
)

// Pinned Table II cells at (scale 0.02, seed 42), captured from the
// pre-registry implementation (the closed `switch` over Algo). The
// predictor-registry redesign must reproduce the paper algorithms'
// metrics exactly — same floats, same confusion counts — so these values
// are the regression contract for the algorithm layer. If a deliberate
// modeling change moves them, re-capture with:
//
//	for each platform: BuildFleet(ctx, Config{Scale: 0.02, Seed: 42}) and
//	EvaluateAlgo per algorithm, printing %.17g metrics.
type pinnedCell struct {
	applicable     bool
	p, r, f1, virr float64
	tp, fp, fn, tn int
}

var pinnedTableII = map[platform.ID]map[Algo]pinnedCell{
	platform.Purley: {
		model.NameRiskyCE: {true, 0.37096774193548387, 0.8214285714285714, 0.51111111111111118, 0.59999999999999998, 23, 39, 5, 811},
		model.NameForest:  {true, 0.76923076923076927, 0.7142857142857143, 0.74074074074074081, 0.62142857142857144, 20, 6, 8, 844},
		model.NameGBDT:    {true, 0.76190476190476186, 0.5714285714285714, 0.65306122448979587, 0.49642857142857144, 16, 5, 12, 845},
		model.NameFTT:     {true, 0.76000000000000001, 0.6785714285714286, 0.71698113207547176, 0.5892857142857143, 19, 6, 9, 844},
	},
	platform.Whitley: {
		model.NameRiskyCE: {applicable: false},
		model.NameForest:  {true, 0, 0, 0, 0, 0, 0, 3, 153},
		model.NameGBDT:    {true, 0, 0, 0, 0, 0, 0, 3, 153},
		model.NameFTT:     {true, 0.20000000000000001, 0.33333333333333331, 0.25, 0.16666666666666666, 1, 4, 2, 149},
	},
	platform.K920: {
		model.NameRiskyCE: {applicable: false},
		model.NameForest:  {true, 0.55555555555555558, 0.41666666666666669, 0.47619047619047622, 0.34166666666666673, 5, 4, 7, 504},
		model.NameGBDT:    {true, 0.59999999999999998, 0.5, 0.54545454545454541, 0.41666666666666663, 6, 4, 6, 504},
		model.NameFTT:     {true, 0.80000000000000004, 0.33333333333333331, 0.47058823529411764, 0.29166666666666663, 4, 1, 8, 507},
	},
}

// checkPinnedCell compares one evaluated cell to its pinned capture.
func checkPinnedCell(t *testing.T, id platform.ID, a Algo, cell Cell) {
	t.Helper()
	want, ok := pinnedTableII[id][a]
	if !ok {
		return // not a pinned (paper) algorithm
	}
	if cell.Applicable != want.applicable {
		t.Errorf("%s/%s: applicable=%v, pinned %v", id, a, cell.Applicable, want.applicable)
		return
	}
	if !want.applicable {
		return
	}
	m := cell.Metrics
	if m.Precision != want.p || m.Recall != want.r || m.F1 != want.f1 || m.VIRR != want.virr {
		t.Errorf("%s/%s: metrics P=%.17g R=%.17g F1=%.17g VIRR=%.17g diverged from pinned P=%.17g R=%.17g F1=%.17g VIRR=%.17g",
			id, a, m.Precision, m.Recall, m.F1, m.VIRR, want.p, want.r, want.f1, want.virr)
	}
	c := m.Confusion
	if (c != eval.Confusion{TP: want.tp, FP: want.fp, FN: want.fn, TN: want.tn}) {
		t.Errorf("%s/%s: confusion %+v diverged from pinned TP=%d FP=%d FN=%d TN=%d",
			id, a, c, want.tp, want.fp, want.fn, want.tn)
	}
}

// TestTableIIPinnedFast verifies the sub-second paper algorithms against
// the pinned capture on every platform. The FT-Transformer rows (minutes
// of training each) are verified by TestTableIIGrid, which has to train
// them anyway.
func TestTableIIPinnedFast(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models on full fleets")
	}
	ctx := context.Background()
	cfg := Config{Scale: 0.02, Seed: 42, Workers: 1}
	for _, id := range platform.All() {
		fleet, err := BuildFleet(ctx, cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []Algo{model.NameRiskyCE, model.NameForest, model.NameGBDT} {
			cell, err := EvaluateAlgo(ctx, cfg, fleet, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, a, err)
			}
			checkPinnedCell(t, id, a, cell)
		}
	}
}
