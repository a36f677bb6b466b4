package linear

import (
	"bytes"
	"testing"

	"memfp/internal/xrand"
)

func synth(n, dim int, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.Float64()*6 - 3
		}
		X[i] = x
		if 2*x[0]-x[1]+0.5*(rng.Float64()-0.5) > 0 {
			y[i] = 1
		}
	}
	return X, y
}

func TestFitSeparatesLinearProblem(t *testing.T) {
	X, y := synth(1500, 4, 9)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := synth(500, 4, 10)
	correct := 0
	for i, x := range Xt {
		pred := 0
		if sigmoid(m.score(x)) >= 0.5 {
			pred = 1
		}
		if pred == yt[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(yt)); acc < 0.9 {
		t.Fatalf("accuracy %.3f on a linearly separable problem", acc)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultParams()); err == nil {
		t.Error("empty set should error")
	}
	X, y := synth(50, 3, 1)
	for i := range y {
		y[i] = 0
	}
	if _, err := Fit(X, y, DefaultParams()); err == nil {
		t.Error("degenerate labels should error")
	}
	if _, err := Fit(X, y, Params{Epochs: 0, LR: 0.1}); err == nil {
		t.Error("zero epochs should error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	X, y := synth(400, 5, 3)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := synth(100, 5, 4)
	a, b := m.PredictBatch(probe), re.PredictBatch(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("score %d diverged after round-trip: %.17g vs %.17g", i, a[i], b[i])
		}
	}
	if _, err := Decode(bytes.NewBufferString(`{"format":"other"}`)); err == nil {
		t.Error("foreign format should error")
	}
	if _, err := Decode(bytes.NewBufferString(`garbage`)); err == nil {
		t.Error("corrupt bytes should error")
	}
}

func TestFitDeterministic(t *testing.T) {
	X, y := synth(300, 4, 7)
	a, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatalf("weight %d differs across identical fits", j)
		}
	}
	if a.B != b.B {
		t.Fatal("bias differs across identical fits")
	}
}
