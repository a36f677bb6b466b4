package memfp

import (
	"context"
	"strings"
	"testing"

	"memfp/internal/features"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.25 || c.Seed != 42 || len(c.Platforms) != 3 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.TrainEndDay != 150 || c.ValEndDay != 180 || c.NegativeRatio != 4 {
		t.Errorf("split defaults wrong: %+v", c)
	}
}

func TestBuildFleetSmall(t *testing.T) {
	fleet, err := BuildFleet(Config{Scale: 0.01, Seed: 3}, platform.Purley)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Result.Store.Len() == 0 {
		t.Fatal("empty fleet")
	}
	if len(fleet.Samples) == 0 {
		t.Fatal("no samples extracted")
	}
	total := fleet.Split.Train.Len() + fleet.Split.Val.Len() + fleet.Split.Test.Len()
	if total != len(fleet.Samples) {
		t.Errorf("split lost samples: %d vs %d", total, len(fleet.Samples))
	}
	// Training downsample keeps ratio.
	if fleet.TrainDown.Positives() == 0 {
		t.Error("no positive training samples at scale 0.01 — calibration too sparse")
	}
	negs := fleet.TrainDown.Len() - fleet.TrainDown.Positives()
	if float64(negs) > 4.1*float64(fleet.TrainDown.Positives())+1 {
		t.Errorf("downsample ratio violated: %d negs for %d pos", negs, fleet.TrainDown.Positives())
	}
}

func TestBuildFleetFocusPositives(t *testing.T) {
	// With focus enabled (default), every positive training sample must
	// be within 10 days of its UE.
	fleet, err := BuildFleet(Config{Scale: 0.02, Seed: 4}, platform.Purley)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range fleet.TrainDown.Y {
		if y == 1 && fleet.TrainDown.Deltas[i] > 10*trace.Day {
			t.Fatalf("training positive %d is %v from its UE", i, fleet.TrainDown.Deltas[i])
		}
	}
	// Disabled: far positives may remain.
	fleet2, err := BuildFleet(Config{Scale: 0.02, Seed: 4, TrainFocusDays: -1}, platform.Purley)
	if err != nil {
		t.Fatal(err)
	}
	if fleet2.Split.Train.Positives() < fleet.Split.Train.Positives() {
		t.Error("unfocused split should not have fewer raw positives")
	}
}

func TestZeroErrorBitFeatures(t *testing.T) {
	fleet, err := BuildFleet(Config{Scale: 0.01, Seed: 5, DropErrorBitFeatures: true}, platform.Whitley)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, n := range features.Names() {
		if n == "frac_dq2" {
			idx = i
		}
	}
	for _, s := range fleet.Samples {
		if s.X[idx] != 0 {
			t.Fatal("bit-level feature not zeroed in ablation mode")
		}
	}
}

func TestRunTableIShapes(t *testing.T) {
	rows, err := RunTableICtx(context.Background(), Config{Scale: 0.02, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.DIMMsWithCEs == 0 || r.DIMMsWithUEs == 0 {
			t.Errorf("%s: empty row %+v", r.Platform, r)
		}
		if r.PredictablePct+r.SuddenPct < 99.9 || r.PredictablePct+r.SuddenPct > 100.1 {
			t.Errorf("%s: percentages don't sum to 100: %+v", r.Platform, r)
		}
	}
}

func TestRunFigure5SkipsK920(t *testing.T) {
	res, err := RunFigure5Ctx(context.Background(), Config{Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Platform == platform.K920 {
			t.Error("Figure 5 must be Intel-only")
		}
	}
	if len(res) != 2 {
		t.Errorf("platforms %d, want 2", len(res))
	}
}

func TestRunVIRRSensitivity(t *testing.T) {
	pts, err := RunVIRRSensitivityCtx(context.Background(), 0, nil, []float64{0.1})
	if err != nil || len(pts) != 0 {
		t.Error("no operating points → no rows")
	}
}

func TestEvaluateAlgoBaselineInapplicable(t *testing.T) {
	fleet, err := BuildFleet(Config{Scale: 0.01, Seed: 8}, platform.K920)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := EvaluateAlgo(Config{Scale: 0.01, Seed: 8}, fleet, model.NameRiskyCE)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Applicable {
		t.Error("rule baseline must be inapplicable on K920")
	}
}

func TestEvaluateAlgoUnknown(t *testing.T) {
	fleet, err := BuildFleet(Config{Scale: 0.01, Seed: 9}, platform.Purley)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateAlgo(Config{}, fleet, Algo("nope")); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestTableIIFormat(t *testing.T) {
	t2 := &TableII{Cells: map[platform.ID]map[Algo]Cell{
		platform.Purley: {
			model.NameRiskyCE: {Applicable: true},
			model.NameForest:  {Applicable: true},
			model.NameGBDT:    {Applicable: true},
			model.NameFTT:     {Applicable: false},
		},
	}}
	out := t2.Format()
	if out == "" {
		t.Fatal("empty format")
	}
	for _, a := range Algos() {
		if !strings.Contains(out, string(a)) {
			t.Errorf("format missing algorithm %s", a)
		}
	}
	if !strings.Contains(out, "X") {
		t.Error("inapplicable cell should render X")
	}
}
