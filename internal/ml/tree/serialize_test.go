package tree

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"memfp/internal/xrand"
)

func TestTreeRoundTrip(t *testing.T) {
	rng := xrand.New(31)
	n := 800
	X := make([][]float64, n)
	y := make([]float64, n)
	idx := make([]int, n)
	for i := range X {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{a, b}
		if a+b > 0 {
			y[i] = 1
		}
		idx[i] = i
	}
	m := FitBins(X, 255)
	root := BuildShared(m.BinColumns(X), y, nil, idx, m, defaultParams(), nil)

	var buf bytes.Buffer
	if err := root.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.Leaves() != root.Leaves() || back.Depth() != root.Depth() {
		t.Fatalf("structure changed: leaves %d→%d depth %d→%d",
			root.Leaves(), back.Leaves(), root.Depth(), back.Depth())
	}
	for i := 0; i < 200; i++ {
		if back.Predict(X[i]) != root.Predict(X[i]) {
			t.Fatalf("prediction %d changed after round trip", i)
		}
	}
}

func TestTreeDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("nope"), 2); err == nil {
		t.Error("garbage should fail")
	}
	// Internal node missing children.
	if _, err := Decode(strings.NewReader(`{"f":0,"t":1}`), 2); err == nil {
		t.Error("internal node without children should fail")
	}
	// A split on a feature the rows do not have.
	for _, f := range []int{-1, 2} {
		src := fmt.Sprintf(`{"f":%d,"t":1,"l":{"leaf":true},"r":{"leaf":true}}`, f)
		if _, err := Decode(strings.NewReader(src), 2); err == nil {
			t.Errorf("split on feature %d of 2 should fail", f)
		}
	}
}
