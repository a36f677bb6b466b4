package analysis_test

import (
	"context"
	"testing"

	"memfp/internal/analysis"
	"memfp/internal/faultsim"
	"memfp/internal/platform"
)

// TestCalibrationShapes generates a mid-size fleet per platform and checks
// that the log-driven analysis reproduces the paper's qualitative shapes
// (Table I ratios, Figure 4 dominance patterns, Figure 5 risky buckets).
// This is the master guard for the simulator calibration.
func TestCalibrationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check is slow")
	}
	type shape struct {
		predLo, predHi float64 // predictable % bounds
		multiDominant  bool    // multi-device attribution > single-device
	}
	want := map[platform.ID]shape{
		platform.Purley:  {predLo: 62, predHi: 84, multiDominant: false},
		platform.Whitley: {predLo: 30, predHi: 54, multiDominant: true},
		platform.K920:    {predLo: 72, predHi: 92, multiDominant: true},
	}
	rates := map[platform.ID]float64{}
	for _, id := range platform.All() {
		res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: id, Scale: 0.2, Seed: 42})
		if err != nil {
			t.Fatalf("generate %s: %v", id, err)
		}
		st := analysis.TableI(res.Store)
		t.Logf("\n%s", analysis.FormatTableI([]analysis.DatasetStats{st}))
		w := want[id]
		if st.PredictablePct < w.predLo || st.PredictablePct > w.predHi {
			t.Errorf("%s predictable%% = %.1f, want in [%v, %v]", id, st.PredictablePct, w.predLo, w.predHi)
		}
		rates[id] = st.TotalUERatePct

		cats := analysis.Figure4(res.Store)
		t.Logf("\n%s", analysis.FormatFigure4(string(id), cats))
		byCat := map[analysis.FaultCategory]analysis.CategoryStats{}
		for _, c := range cats {
			byCat[c.Category] = c
		}
		single := byCat[analysis.CatSingleDevice].RelativeUEPct
		multi := byCat[analysis.CatMultiDevice].RelativeUEPct
		if w.multiDominant && multi <= single {
			t.Errorf("%s: want multi-device dominant, got single=%.1f multi=%.1f", id, single, multi)
		}
		if !w.multiDominant && single <= multi {
			t.Errorf("%s: want single-device dominant, got single=%.1f multi=%.1f", id, single, multi)
		}
		// Row+bank should out-attribute cell+column everywhere (Finding 2).
		rowBank := byCat[analysis.CatRow].RelativeUEPct + byCat[analysis.CatBank].RelativeUEPct
		cellCol := byCat[analysis.CatCell].RelativeUEPct + byCat[analysis.CatColumn].RelativeUEPct
		if rowBank <= cellCol {
			t.Errorf("%s: want row+bank attribution > cell+column, got %.1f vs %.1f", id, rowBank, cellCol)
		}
	}
	if !(rates[platform.K920] < rates[platform.Whitley] && rates[platform.Whitley] < rates[platform.Purley]) {
		t.Errorf("UE rate ordering: want K920 < Whitley < Purley, got %v", rates)
	}

	// Figure 5 risky buckets on the Intel platforms.
	for _, tc := range []struct {
		id          platform.ID
		riskyDQ     int
		riskyBeat   int
		riskyBeatIv int // -1 when interval carries no signal
	}{
		{platform.Purley, 2, 2, 4},
		{platform.Whitley, 4, 5, -1},
	} {
		res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: tc.id, Scale: 0.2, Seed: 42})
		if err != nil {
			t.Fatalf("generate %s: %v", tc.id, err)
		}
		panels := analysis.Figure5(res.Store)
		t.Logf("\n%s", analysis.FormatFigure5(string(tc.id), panels))
		assertArgmax := func(stat analysis.BitStat, wantValue int) {
			t.Helper()
			best, bestRate := -1, -1.0
			for _, b := range panels[stat] {
				if b.DIMMs < 8 {
					continue // tiny buckets are noise
				}
				if b.RelativeUERate > bestRate {
					best, bestRate = b.Value, b.RelativeUERate
				}
			}
			if best != wantValue {
				t.Errorf("%s %s: argmax bucket = %d (rate %.3f), want %d", tc.id, stat, best, bestRate, wantValue)
			}
		}
		assertArgmax(analysis.StatDQCount, tc.riskyDQ)
		assertArgmax(analysis.StatBeatCount, tc.riskyBeat)
		if tc.riskyBeatIv >= 0 {
			assertArgmax(analysis.StatBeatInterval, tc.riskyBeatIv)
		}
	}
}
