package forest

import (
	"testing"

	"memfp/internal/xrand"
)

// synth builds a nonlinear binary problem with informative features 0-1
// and noise features 2-4.
func synth(n int, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{a, b, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if a*a+b*b > 2 { // ring decision boundary
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

func TestForestLearnsNonlinear(t *testing.T) {
	X, y := synth(4000, 1)
	Xte, yte := synth(1000, 2)
	p := DefaultParams()
	p.Trees = 80
	m, err := Fit(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, Xte, yte); acc < 0.9 {
		t.Errorf("test accuracy %.3f, want ≥0.9", acc)
	}
}

func TestForestDeterministic(t *testing.T) {
	X, y := synth(500, 3)
	p := DefaultParams()
	p.Trees = 20
	a, err := Fit(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.PredictProba(X[i]) != b.PredictProba(X[i]) {
			t.Fatal("same seed produced different forests (parallel training nondeterminism)")
		}
	}
}

func TestForestSeedsDiffer(t *testing.T) {
	X, y := synth(500, 4)
	p := DefaultParams()
	p.Trees = 10
	p.Seed = 1
	a, _ := Fit(X, y, p)
	p.Seed = 2
	b, _ := Fit(X, y, p)
	same := true
	for i := 0; i < 20; i++ {
		if a.PredictProba(X[i]) != b.PredictProba(X[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical forests")
	}
}

func TestForestProbaRange(t *testing.T) {
	X, y := synth(500, 5)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		p := m.PredictProba(x)
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestForestRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultParams()); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := Fit([][]float64{{1}}, []int{0, 1}, DefaultParams()); err == nil {
		t.Error("mismatched lengths should error")
	}
	p := DefaultParams()
	p.Trees = 0
	if _, err := Fit([][]float64{{1}}, []int{0}, p); err == nil {
		t.Error("zero trees should error")
	}
}

func TestForestPredictBatch(t *testing.T) {
	X, y := synth(300, 7)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(X[:10])
	for i := 0; i < 10; i++ {
		if batch[i] != m.PredictProba(X[i]) {
			t.Fatal("batch and single predictions differ")
		}
	}
}
