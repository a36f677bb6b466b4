package tree

import (
	"math"
	"testing"
	"testing/quick"

	"memfp/internal/xrand"
)

// defaultParams is the classification setting the tests grow trees under.
func defaultParams() Params {
	return Params{MaxDepth: 14, MinLeaf: 5, FeatureFrac: 1.0, MinGain: 1e-7}
}

func TestFitBinsDistinctValues(t *testing.T) {
	X := [][]float64{{1}, {2}, {2}, {3}}
	m := FitBins(X, 255)
	if m.Bins(0) != 3 {
		t.Fatalf("bins = %d, want 3", m.Bins(0))
	}
	// Values map to increasing bins.
	if !(m.Bin(0, 1) < m.Bin(0, 2) && m.Bin(0, 2) < m.Bin(0, 3)) {
		t.Error("bin order violated")
	}
	// Out-of-range values clamp to edge bins.
	if m.Bin(0, -100) != 0 {
		t.Error("low values should land in bin 0")
	}
	if int(m.Bin(0, 100)) != m.Bins(0)-1 {
		t.Error("high values should land in last bin")
	}
}

func TestFitBinsQuantiles(t *testing.T) {
	rng := xrand.New(1)
	X := make([][]float64, 10000)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
	}
	m := FitBins(X, 64)
	if m.Bins(0) > 64 || m.Bins(0) < 32 {
		t.Errorf("bins = %d, want ≈64", m.Bins(0))
	}
	// Monotonic edges.
	edges := m.Edges[0]
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatal("edges not strictly increasing")
		}
	}
}

// Property: binning is monotone — a ≤ b implies Bin(a) ≤ Bin(b).
func TestBinMonotoneQuick(t *testing.T) {
	rng := xrand.New(2)
	X := make([][]float64, 500)
	for i := range X {
		X[i] = []float64{rng.NormFloat64() * 10}
	}
	m := FitBins(X, 32)
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 100), math.Mod(b, 100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return m.Bin(0, a) <= m.Bin(0, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCARTSeparatesXORFree(t *testing.T) {
	// Axis-aligned separable problem: y = 1 iff x0 > 0.
	rng := xrand.New(3)
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	idx := make([]int, n)
	for i := range X {
		x0 := rng.NormFloat64()
		X[i] = []float64{x0, rng.NormFloat64()}
		if x0 > 0 {
			y[i] = 1
		}
		idx[i] = i
	}
	m := FitBins(X, 255)
	root := BuildShared(m.BinColumns(X), y, nil, idx, m, defaultParams(), nil)
	correct := 0
	for i := range X {
		pred := 0.0
		if root.Predict(X[i]) > 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.97 {
		t.Errorf("separable accuracy %.3f, want ≥0.97", acc)
	}
}

func TestCARTLearnsInteraction(t *testing.T) {
	// XOR-ish interaction requires depth ≥ 2.
	rng := xrand.New(4)
	n := 4000
	X := make([][]float64, n)
	y := make([]float64, n)
	idx := make([]int, n)
	for i := range X {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{a, b}
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
		idx[i] = i
	}
	m := FitBins(X, 255)
	root := BuildShared(m.BinColumns(X), y, nil, idx, m, defaultParams(), nil)
	correct := 0
	for i := range X {
		pred := 0.0
		if root.Predict(X[i]) > 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.93 {
		t.Errorf("XOR accuracy %.3f, want ≥0.93", acc)
	}
}

func TestCARTRespectsMaxDepth(t *testing.T) {
	rng := xrand.New(5)
	n := 1000
	X := make([][]float64, n)
	y := make([]float64, n)
	idx := make([]int, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = float64(rng.Intn(2))
		idx[i] = i
	}
	m := FitBins(X, 255)
	p := defaultParams()
	p.MaxDepth = 3
	root := BuildShared(m.BinColumns(X), y, nil, idx, m, p, nil)
	if d := root.Depth(); d > 3 {
		t.Errorf("depth %d exceeds limit 3", d)
	}
}

func TestCARTMinLeaf(t *testing.T) {
	rng := xrand.New(6)
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	idx := make([]int, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
		y[i] = float64(rng.Intn(2))
		idx[i] = i
	}
	m := FitBins(X, 255)
	p := defaultParams()
	p.MinLeaf = 50
	root := BuildShared(m.BinColumns(X), y, nil, idx, m, p, nil)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf {
			if n.N < 50 {
				t.Errorf("leaf with %d samples under MinLeaf 50", n.N)
			}
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
}

func TestCARTPureLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 1, 1, 1}
	m := FitBins(X, 255)
	root := BuildShared(m.BinColumns(X), y, nil, []int{0, 1, 2, 3}, m, defaultParams(), nil)
	if !root.Leaf || root.Value != 1 {
		t.Errorf("pure targets should yield a single leaf with value 1, got %+v", root)
	}
}

func TestCARTEmptyIndex(t *testing.T) {
	X := [][]float64{{1}}
	m := FitBins(X, 255)
	root := BuildShared(m.BinColumns(X), []float64{0}, nil, nil, m, defaultParams(), nil)
	if !root.Leaf {
		t.Error("empty index should produce a leaf")
	}
}

func TestLeavesAndWalkFeatures(t *testing.T) {
	rng := xrand.New(7)
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	idx := make([]int, n)
	for i := range X {
		x0 := rng.NormFloat64()
		X[i] = []float64{x0, 0}
		if x0 > 0.5 {
			y[i] = 1
		}
		idx[i] = i
	}
	m := FitBins(X, 255)
	root := BuildShared(m.BinColumns(X), y, nil, idx, m, defaultParams(), nil)
	counts := make([]int, 2)
	root.WalkFeatures(counts)
	if counts[0] == 0 {
		t.Error("informative feature never used")
	}
	if counts[1] != 0 {
		t.Error("constant feature used for splits")
	}
	if root.Leaves() < 2 {
		t.Error("tree did not split")
	}
}
