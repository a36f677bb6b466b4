package memfp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"memfp/internal/eval"
	"memfp/internal/ml/model"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.25 || c.Seed != 42 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.FleetCache() != pipeline.Shared {
		t.Error("nil Fleets must fall back to pipeline.Shared")
	}
	own := pipeline.NewFleetCache()
	if (Config{Fleets: own}).FleetCache() != own {
		t.Error("explicit Fleets ignored")
	}
}

func TestBuildFleetSmall(t *testing.T) {
	fleet, err := BuildFleet(context.Background(), Config{Scale: 0.01, Seed: 3}, platform.Purley)
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
	// Every positive training sample must be within 10 days of its UE.
	fleet, err := BuildFleet(context.Background(), Config{Scale: 0.02, Seed: 4}, platform.Purley)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range fleet.TrainDown.Y {
		if y == 1 && fleet.TrainDown.Deltas[i] > 10*trace.Day {
			t.Fatalf("training positive %d is %v from its UE", i, fleet.TrainDown.Deltas[i])
		}
	}
}

func TestRunTableIShapes(t *testing.T) {
	rows, err := RunTableI(context.Background(), Config{Scale: 0.02, Seed: 6})
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
	res, err := RunFigure5(context.Background(), Config{Scale: 0.01, Seed: 7})
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

// TestRunVIRRSensitivity checks fig2's sweep: one row per operating
// point and yc, sorted by precision, then yc, each VIRR the closed form.
func TestRunVIRRSensitivity(t *testing.T) {
	var out bytes.Buffer
	if err := runFig2(context.Background(), Config{Seed: 42}, &out); err != nil {
		t.Fatal(err)
	}
	var rows [][4]float64
	for _, line := range strings.Split(out.String(), "\n") {
		var r [4]float64
		if n, _ := fmt.Sscanf(line, "%f %f %f %f", &r[0], &r[1], &r[2], &r[3]); n == 4 {
			rows = append(rows, r)
		}
	}
	if len(rows) != 16 {
		t.Fatalf("%d sweep rows, want 4 points × 4 yc:\n%s", len(rows), out.String())
	}
	for i, r := range rows {
		yc, p, rec, virr := r[0], r[1], r[2], r[3]
		if want := eval.VIRR(p, rec, yc); math.Abs(virr-want) > 0.0005 {
			t.Errorf("row %d: VIRR %.3f, closed form %.3f", i, virr, want)
		}
		if i > 0 {
			prev := rows[i-1]
			if p < prev[1] || (p == prev[1] && yc <= prev[0]) {
				t.Errorf("row %d %v not after %v (sorted by precision, then yc)", i, r, prev)
			}
		}
	}
}

func TestEvaluateAlgoBaselineInapplicable(t *testing.T) {
	ctx := context.Background()
	fleet, err := BuildFleet(ctx, Config{Scale: 0.01, Seed: 8}, platform.K920)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := EvaluateAlgo(ctx, Config{Scale: 0.01, Seed: 8}, fleet, model.NameRiskyCE)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Applicable {
		t.Error("rule baseline must be inapplicable on K920")
	}
}

func TestEvaluateAlgoUnknown(t *testing.T) {
	ctx := context.Background()
	fleet, err := BuildFleet(ctx, Config{Scale: 0.01, Seed: 9}, platform.Purley)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateAlgo(ctx, Config{}, fleet, Algo("nope")); err == nil {
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
