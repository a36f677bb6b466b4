package ftt

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
		X[i] = []float64{a, b, rng.NormFloat64()}
		if a-b > 0.3 {
			y[i] = 1
		}
	}
	return X, y
}

func smallParams() Params {
	p := DefaultParams()
	p.Dim = 8
	p.Epochs = 10
	p.Batch = 64
	p.Patience = 0
	return p
}

func TestFTTLearnsLinearBoundary(t *testing.T) {
	X, y := synth(1500, 1)
	Xte, yte := synth(500, 2)
	m := New(3, smallParams())
	if err := m.Fit(X, y, nil, nil); err != nil {
		t.Fatal(err)
	}
	probs := m.PredictProba(Xte)
	correct := 0
	for i := range probs {
		pred := 0
		if probs[i] > 0.5 {
			pred = 1
		}
		if pred == yte[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(yte)); acc < 0.85 {
		t.Errorf("accuracy %.3f, want ≥0.85", acc)
	}
}

func TestFTTDeterministic(t *testing.T) {
	X, y := synth(300, 3)
	a := New(3, smallParams())
	if err := a.Fit(X, y, nil, nil); err != nil {
		t.Fatal(err)
	}
	b := New(3, smallParams())
	if err := b.Fit(X, y, nil, nil); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.PredictProba(X[:20]), b.PredictProba(X[:20])
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestFTTEarlyStoppingKeepsBest(t *testing.T) {
	X, y := synth(800, 4)
	Xval, yval := synth(300, 5)
	p := smallParams()
	p.Epochs = 30
	p.Patience = 3
	m := New(3, p)
	if err := m.Fit(X, y, Xval, yval); err != nil {
		t.Fatal(err)
	}
	// Sanity: the restored model still predicts sensibly.
	probs := m.PredictProba(Xval)
	correct := 0
	for i := range probs {
		pred := 0
		if probs[i] > 0.5 {
			pred = 1
		}
		if pred == yval[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(yval)); acc < 0.8 {
		t.Errorf("val accuracy after early stop %.3f", acc)
	}
}

func TestFTTRejectsDegenerate(t *testing.T) {
	m := New(2, smallParams())
	if err := m.Fit(nil, nil, nil, nil); err == nil {
		t.Error("empty training set should error")
	}
	if err := m.Fit([][]float64{{1, 2}}, []int{0}, nil, nil); err == nil {
		t.Error("single-class labels should error")
	}
}

// TestFTTRejectsMismatchedValidation: a validation set with fewer labels
// than rows used to panic in the validation logloss; Fit must refuse it
// up front and name both lengths.
func TestFTTRejectsMismatchedValidation(t *testing.T) {
	X, y := synth(200, 7)
	Xval, yval := synth(11, 8)
	p := smallParams()
	p.Epochs = 1
	p.Patience = 2
	err := New(3, p).Fit(X, y, Xval, yval[:10])
	if err == nil || !strings.Contains(err.Error(), "11 rows, 10 labels") {
		t.Fatalf("Fit with 11 validation rows and 10 labels: err %v", err)
	}
}

func TestFTTProbaRange(t *testing.T) {
	X, y := synth(300, 6)
	m := New(3, smallParams())
	if err := m.Fit(X, y, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.PredictProba(X) {
		if p <= 0 || p >= 1 {
			t.Fatalf("probability %v outside (0,1)", p)
		}
	}
}

func TestFTTNumParams(t *testing.T) {
	m := New(10, smallParams())
	n := 0
	for _, p := range m.params {
		n += len(p.Data)
	}
	if n < 1000 {
		t.Errorf("suspiciously few parameters: %d", n)
	}
}

func TestFTTPanicsOnBadHeads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dim not divisible by Heads should panic")
		}
	}()
	p := smallParams()
	p.Dim = 9
	p.Heads = 2
	New(3, p)
}

// TestParamCountMatchesNew: the count Decode checks a payload against
// before allocating is the number of values New allocates.
func TestParamCountMatchesNew(t *testing.T) {
	for _, c := range []struct{ nf, dim, heads, layers, ffn int }{
		{1, 1, 1, 0, 1}, {3, 8, 2, 1, 2}, {7, 16, 4, 3, 4},
	} {
		p := DefaultParams()
		p.Dim, p.Heads, p.Layers, p.FFNMult = c.dim, c.heads, c.layers, c.ffn
		m := New(c.nf, p)
		n := 0
		for _, w := range m.params {
			n += len(w.Data)
		}
		if got := paramCount(c.nf, p); got != float64(n) {
			t.Errorf("%+v: paramCount %g, New allocates %d", c, got, n)
		}
	}
}
