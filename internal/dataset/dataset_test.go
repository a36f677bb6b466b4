package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"memfp/internal/features"
	"memfp/internal/platform"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

func sample(dimm int, tm trace.Minutes, label features.Label, x ...float64) features.Sample {
	return features.Sample{
		DIMM:  trace.DIMMID{Platform: platform.Purley, Server: dimm, Slot: 0},
		Time:  tm,
		X:     x,
		Label: label,
	}
}

func TestFromSamples(t *testing.T) {
	d := FromSamples([]features.Sample{
		sample(1, 10, features.LabelPositive, 1, 2),
		sample(2, 20, features.LabelNegative, 3, 4),
	})
	if d.Len() != 2 || d.Positives() != 1 {
		t.Fatalf("len=%d pos=%d", d.Len(), d.Positives())
	}
}

func TestTimeSplit(t *testing.T) {
	var samples []features.Sample
	for i := 0; i < 100; i++ {
		samples = append(samples, sample(i, trace.Minutes(i*100), features.LabelNegative, float64(i)))
	}
	d := FromSamples(samples)
	sp, err := TimeSplit(d, 3000, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Train.Len()+sp.Val.Len()+sp.Test.Len() != 100 {
		t.Fatal("split lost samples")
	}
	for _, tm := range sp.Train.Times {
		if tm >= 3000 {
			t.Fatal("train sample after trainEnd")
		}
	}
	for _, tm := range sp.Val.Times {
		if tm < 3000 || tm >= 6000 {
			t.Fatal("val sample outside window")
		}
	}
	for _, tm := range sp.Test.Times {
		if tm < 6000 {
			t.Fatal("test sample before valEnd")
		}
	}
}

func TestTimeSplitRejectsInverted(t *testing.T) {
	d := FromSamples([]features.Sample{sample(1, 10, features.LabelNegative, 1)})
	if _, err := TimeSplit(d, 100, 100); err == nil {
		t.Error("trainEnd == valEnd should error")
	}
}

func TestDownsampleKeepsAllPositives(t *testing.T) {
	var samples []features.Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, sample(i, 1, features.LabelPositive, 1))
	}
	for i := 0; i < 200; i++ {
		samples = append(samples, sample(100+i, 1, features.LabelNegative, 0))
	}
	d := FromSamples(samples)
	out := Downsample(d, 3, xrand.New(1))
	if out.Positives() != 10 {
		t.Errorf("positives %d, want 10", out.Positives())
	}
	if negs := out.Len() - out.Positives(); negs != 30 {
		t.Errorf("negatives %d, want 30", negs)
	}
}

func TestDownsampleNoPositives(t *testing.T) {
	d := FromSamples([]features.Sample{sample(1, 1, features.LabelNegative, 0)})
	out := Downsample(d, 3, xrand.New(1))
	if out.Len() != 1 {
		t.Error("downsample with no positives should return input unchanged")
	}
}

func TestDownsampleFewNegatives(t *testing.T) {
	d := FromSamples([]features.Sample{
		sample(1, 1, features.LabelPositive, 1),
		sample(2, 1, features.LabelNegative, 0),
	})
	out := Downsample(d, 5, xrand.New(1))
	if out.Len() != 2 {
		t.Errorf("should keep the single negative, got %d samples", out.Len())
	}
}

func TestShufflePreservesAlignment(t *testing.T) {
	var samples []features.Sample
	for i := 0; i < 50; i++ {
		lab := features.LabelNegative
		if i%2 == 0 {
			lab = features.LabelPositive
		}
		samples = append(samples, sample(i, trace.Minutes(i), lab, float64(i)))
	}
	d := FromSamples(samples)
	Shuffle(d, xrand.New(2))
	for i := 0; i < d.Len(); i++ {
		// Feature value encodes the original index; verify label and
		// DIMM follow it.
		orig := int(d.X[i][0])
		wantLabel := 0
		if orig%2 == 0 {
			wantLabel = 1
		}
		if d.Y[i] != wantLabel {
			t.Fatal("labels decoupled from features by shuffle")
		}
		if d.DIMMs[i].Server != orig {
			t.Fatal("DIMM ids decoupled by shuffle")
		}
	}
}

func TestScaler(t *testing.T) {
	d := FromSamples([]features.Sample{
		sample(1, 1, features.LabelNegative, 1, 100),
		sample(2, 1, features.LabelNegative, 3, 300),
		sample(3, 1, features.LabelNegative, 5, 500),
	})
	s := FitScalerX(d.X)
	out := s.Transform(d.X)
	for j := 0; j < 2; j++ {
		mean, variance := 0.0, 0.0
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			dv := out[i][j] - mean
			variance += dv * dv
		}
		variance /= 3
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-9 {
			t.Errorf("feature %d standardized to mean=%.4f var=%.4f", j, mean, variance)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	d := FromSamples([]features.Sample{
		sample(1, 1, features.LabelNegative, 7),
		sample(2, 1, features.LabelNegative, 7),
	})
	s := FitScalerX(d.X)
	out := s.Transform(d.X)
	for i := range out {
		if math.IsNaN(out[i][0]) || math.IsInf(out[i][0], 0) {
			t.Fatal("constant feature produced NaN/Inf")
		}
	}
}

func TestScalerEmptyDataset(t *testing.T) {
	s := FitScalerX(nil)
	if got := s.Transform([][]float64{{1, 2}}); got[0][0] != 1 {
		t.Error("empty scaler should be identity")
	}
}

// Property: downsampling never invents samples and keeps ratio bound.
func TestDownsampleRatioQuick(t *testing.T) {
	f := func(seed uint64, posRaw, negRaw uint8, ratioRaw uint8) bool {
		pos := int(posRaw%20) + 1
		neg := int(negRaw % 200)
		ratio := float64(ratioRaw%10) + 0.5
		var samples []features.Sample
		for i := 0; i < pos; i++ {
			samples = append(samples, sample(i, 1, features.LabelPositive, 1))
		}
		for i := 0; i < neg; i++ {
			samples = append(samples, sample(1000+i, 1, features.LabelNegative, 0))
		}
		out := Downsample(FromSamples(samples), ratio, xrand.New(seed))
		negKept := out.Len() - out.Positives()
		maxNeg := int(math.Round(float64(pos) * ratio))
		return out.Positives() == pos && negKept <= maxNeg+1 && negKept <= neg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFocusPositives(t *testing.T) {
	var samples []features.Sample
	near := sample(1, 1, features.LabelPositive, 1)
	near.UEDelta = 2 * trace.Day
	far := sample(2, 1, features.LabelPositive, 1)
	far.UEDelta = 25 * trace.Day
	neg := sample(3, 1, features.LabelNegative, 0)
	neg.UEDelta = -1
	samples = append(samples, near, far, neg)
	d := FromSamples(samples)
	out := FocusPositives(d, 10*trace.Day)
	if out.Len() != 2 {
		t.Fatalf("kept %d samples, want 2 (near positive + negative)", out.Len())
	}
	if out.Positives() != 1 {
		t.Errorf("positives %d, want 1", out.Positives())
	}
	// Negatives always survive.
	foundNeg := false
	for i, y := range out.Y {
		if y == 0 && out.DIMMs[i].Server == 3 {
			foundNeg = true
		}
	}
	if !foundNeg {
		t.Error("negative sample dropped by FocusPositives")
	}
}
