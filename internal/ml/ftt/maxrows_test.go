package ftt

import (
	"math"
	"testing"

	"memfp/internal/xrand"
)

func synthDim(n, dim int, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		x := make([]float64, dim)
		for j := range x {
			x[j] = float64(rng.Float64())*2 - 1
		}
		X[i] = x
		if x[0]-x[1] > 0 {
			y[i] = 1
		}
	}
	return X, y
}

func tinyParams(seed uint64) Params {
	p := DefaultParams()
	p.Dim, p.Heads, p.Layers, p.FFNMult = 8, 2, 1, 2
	p.Epochs, p.Batch = 3, 32
	p.Patience = 0
	p.Seed = seed
	return p
}

// TestMaxRowsIsPrefixTruncation pins the cap's semantics: fitting N>cap
// rows under MaxRows=cap is exactly fitting the first cap rows with the
// cap disabled — the cap is a prefix subsample, not a resample (and on a
// pre-shuffled set a prefix is unbiased).
func TestMaxRowsIsPrefixTruncation(t *testing.T) {
	X, y := synthDim(120, 5, 17)
	probe, _ := synthDim(40, 5, 18)

	capP := tinyParams(3)
	capP.MaxRows = 48
	capped := New(5, capP)
	if err := capped.Fit(X, y, nil, nil); err != nil {
		t.Fatal(err)
	}

	manualP := tinyParams(3)
	manualP.MaxRows = 0
	manual := New(5, manualP)
	if err := manual.Fit(X[:48], y[:48], nil, nil); err != nil {
		t.Fatal(err)
	}

	a, b := capped.PredictProba(probe), manual.PredictProba(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("capped fit diverged from manual prefix at %d: %.17g vs %.17g", i, a[i], b[i])
		}
	}
}

// TestMaxRowsZeroDisablesCap: MaxRows=0 trains on everything.
func TestMaxRowsZeroDisablesCap(t *testing.T) {
	X, y := synthDim(60, 4, 23)
	probe, _ := synthDim(20, 4, 24)
	p0 := tinyParams(5)
	p0.MaxRows = 0
	m0 := New(4, p0)
	if err := m0.Fit(X, y, nil, nil); err != nil {
		t.Fatal(err)
	}
	pBig := tinyParams(5)
	pBig.MaxRows = len(X) // cap at exactly n: no truncation
	mBig := New(4, pBig)
	if err := mBig.Fit(X, y, nil, nil); err != nil {
		t.Fatal(err)
	}
	a, b := m0.PredictProba(probe), mBig.PredictProba(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cap==n diverged from no-cap at %d", i)
		}
	}
}

// TestMaxRowsPrefixUnbiasedOnShuffledSet: after a uniform shuffle the
// capped prefix's positive rate matches the full set's (the statistical
// claim behind capping a pre-shuffled training set).
func TestMaxRowsPrefixUnbiasedOnShuffledSet(t *testing.T) {
	const n, k = 20000, 6000
	y := make([]int, n)
	for i := 0; i < n/5; i++ { // 20% positives, initially sorted
		y[i] = 1
	}
	rng := xrand.New(31)
	rng.Shuffle(n, func(i, j int) { y[i], y[j] = y[j], y[i] })
	pos := 0
	for _, v := range y[:k] {
		pos += v
	}
	got := float64(pos) / k
	// Binomial std at p=0.2, n=6000 is ~0.005; 4σ tolerance.
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("prefix positive rate %.4f far from 0.2 — shuffle+prefix not unbiased", got)
	}
}
