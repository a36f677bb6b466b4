package memfp

import (
	"context"
	"fmt"
	"os"
	"testing"

	"memfp/internal/ml/model"
	"memfp/internal/platform"
)

// TestCaptureTableII regenerates the pinned Table II literals for
// table2_pinned_test.go. It is a tool, not a test: it only runs with
// MEMFP_CAPTURE=1 in the environment, trains every paper algorithm at
// the pinned configuration (scale 0.02, seed 42), and prints each cell
// as a ready-to-paste pinnedCell literal with %.17g floats (enough
// digits to round-trip float64 exactly). Use it after a deliberate
// numerics change, then update the map by hand and record the
// re-baseline in CHANGES.md.
func TestCaptureTableII(t *testing.T) {
	if os.Getenv("MEMFP_CAPTURE") == "" {
		t.Skip("set MEMFP_CAPTURE=1 to regenerate Table II pins")
	}
	ctx := context.Background()
	cfg := Config{Scale: 0.02, Seed: 42, Workers: 1}
	for _, id := range platform.All() {
		fleet, err := BuildFleet(ctx, cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []Algo{model.NameRiskyCE, model.NameForest, model.NameGBDT, model.NameFTT} {
			cell, err := EvaluateAlgo(ctx, cfg, fleet, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, a, err)
			}
			if !cell.Applicable {
				fmt.Printf("%s / %s: {applicable: false},\n", id, a)
				continue
			}
			m := cell.Metrics
			c := m.Confusion
			fmt.Printf("%s / %s: {true, %.17g, %.17g, %.17g, %.17g, %d, %d, %d, %d},\n",
				id, a, m.Precision, m.Recall, m.F1, m.VIRR, c.TP, c.FP, c.FN, c.TN)
		}
	}
}
