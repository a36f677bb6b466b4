package gbdt

import (
	"strings"
	"testing"

	"memfp/internal/xrand"
)

func synth(n int, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{a, b, rng.NormFloat64(), rng.NormFloat64()}
		if a+0.5*b*b > 1 {
			y[i] = 1
		}
	}
	return X, y
}

func accuracy(m *Model, X [][]float64, y []int) float64 {
	correct := 0
	for i := range X {
		pred := 0
		if m.PredictProba(X[i]) > 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

func TestGBDTLearns(t *testing.T) {
	X, y := synth(4000, 1)
	Xte, yte := synth(1500, 2)
	m, err := Fit(X, y, nil, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, Xte, yte); acc < 0.92 {
		t.Errorf("test accuracy %.3f, want ≥0.92", acc)
	}
}

func TestGBDTEarlyStopping(t *testing.T) {
	X, y := synth(2000, 3)
	Xval, yval := synth(500, 4)
	p := DefaultParams()
	p.Rounds = 400
	p.EarlyStop = 10
	m, err := Fit(X, y, Xval, yval, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds >= 400 {
		t.Errorf("early stopping never triggered (%d rounds)", m.Rounds)
	}
	if m.Rounds < 5 {
		t.Errorf("stopped suspiciously early (%d rounds)", m.Rounds)
	}
}

func TestGBDTDeterministic(t *testing.T) {
	X, y := synth(800, 5)
	p := DefaultParams()
	p.Rounds = 30
	a, err := Fit(X, y, nil, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(X, y, nil, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.PredictProba(X[i]) != b.PredictProba(X[i]) {
			t.Fatal("same seed produced different boosters")
		}
	}
}

func TestGBDTProbaRange(t *testing.T) {
	X, y := synth(500, 6)
	m, err := Fit(X, y, nil, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		p := m.PredictProba(x)
		if p <= 0 || p >= 1 {
			t.Fatalf("probability %v outside (0,1)", p)
		}
	}
}

func TestGBDTLeafwiseRespectsMaxLeaves(t *testing.T) {
	X, y := synth(3000, 7)
	p := DefaultParams()
	p.MaxLeaves = 8
	p.Rounds = 10
	m, err := Fit(X, y, nil, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range m.Trees {
		if l := tr.Leaves(); l > 8 {
			t.Fatalf("tree has %d leaves, budget 8", l)
		}
	}
}

// TestGBDTRejectsMismatchedValidation: a validation set with fewer labels
// than rows used to panic in the early-stopping walk; Fit must refuse it
// up front and name both lengths.
func TestGBDTRejectsMismatchedValidation(t *testing.T) {
	X, y := synth(200, 5)
	Xval, yval := synth(11, 6)
	p := DefaultParams()
	p.EarlyStop = 5
	_, err := Fit(X, y, Xval, yval[:10], p)
	if err == nil || !strings.Contains(err.Error(), "11 rows, 10 labels") {
		t.Fatalf("Fit with 11 validation rows and 10 labels: err %v", err)
	}
}

func TestGBDTRejectsDegenerate(t *testing.T) {
	if _, err := Fit(nil, nil, nil, nil, DefaultParams()); err == nil {
		t.Error("empty training set should error")
	}
	X := [][]float64{{1}, {2}}
	if _, err := Fit(X, []int{0, 0}, nil, nil, DefaultParams()); err == nil {
		t.Error("single-class labels should error")
	}
	p := DefaultParams()
	p.Rounds = 0
	if _, err := Fit(X, []int{0, 1}, nil, nil, p); err == nil {
		t.Error("zero rounds should error")
	}
}

func TestGBDTImbalancedStillRanks(t *testing.T) {
	// 5% positives: probabilities must still rank positives above
	// negatives on average (AUC-like check).
	rng := xrand.New(8)
	n := 4000
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a := rng.NormFloat64()
		X[i] = []float64{a, rng.NormFloat64()}
		if a > 1.65 { // ~5%
			y[i] = 1
		}
	}
	m, err := Fit(X, y, nil, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var posMean, negMean float64
	var pos, neg int
	for i := range X {
		p := m.PredictProba(X[i])
		if y[i] == 1 {
			posMean += p
			pos++
		} else {
			negMean += p
			neg++
		}
	}
	posMean /= float64(pos)
	negMean /= float64(neg)
	if posMean < negMean+0.2 {
		t.Errorf("imbalanced ranking weak: pos mean %.3f vs neg mean %.3f", posMean, negMean)
	}
}

func TestGBDTFeatureImportance(t *testing.T) {
	X, y := synth(2000, 9)
	m, err := Fit(X, y, nil, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	if imp[0]+imp[1] < imp[2]+imp[3] {
		t.Errorf("informative features under-weighted: %v", imp)
	}
}
