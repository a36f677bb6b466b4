// Package forest implements a Random Forest binary classifier (§VI): an
// ensemble of bootstrap-sampled, feature-subsampled CART trees whose
// class-1 probabilities are averaged. Training is parallel across trees
// and fully deterministic for a given seed: each tree's RNG stream is
// index-derived via xrand.Derive(seed, t), so the model is byte-identical
// at every worker count.
package forest

import (
	"fmt"
	"sort"

	"memfp/internal/ml/tree"
	"memfp/internal/par"
	"memfp/internal/xrand"
)

// Params configures training.
type Params struct {
	Trees       int
	MaxDepth    int
	MinLeaf     int
	FeatureFrac float64 // per-split feature fraction (√d/d is the classic default)
	SampleFrac  float64 // bootstrap size relative to the training set
	Seed        uint64
}

// DefaultParams mirrors common production settings.
func DefaultParams() Params {
	return Params{Trees: 150, MaxDepth: 12, MinLeaf: 5, FeatureFrac: 0.35, SampleFrac: 1.0, Seed: 1}
}

// Model is a trained forest.
type Model struct {
	TreesList []*tree.Node
	Dim       int
}

// Fit trains a forest on raw features X and 0/1 labels y.
func Fit(X [][]float64, y []int, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("forest: bad training set: %d rows, %d labels", len(X), len(y))
	}
	if p.Trees <= 0 {
		return nil, fmt.Errorf("forest: Trees must be positive, got %d", p.Trees)
	}
	mapper := tree.FitBins(X, tree.MaxBins)
	cols := mapper.BinColumns(X)
	yf := make([]float64, len(y))
	for i, v := range y {
		yf[i] = float64(v)
	}
	yq := tree.QuantizeSlice(nil, yf) // shared by every tree's histogram builder
	n := len(X)
	bootN := int(float64(n) * p.SampleFrac)
	if bootN < 1 {
		bootN = n
	}

	m := &Model{TreesList: make([]*tree.Node, p.Trees), Dim: len(X[0])}
	tp := tree.Params{MaxDepth: p.MaxDepth, MinLeaf: p.MinLeaf, FeatureFrac: p.FeatureFrac,
		MinGain: 1e-7}

	// Trees run on internal/par's pool, one worker per CPU, and each
	// tree's large nodes fan their histogram features out on the same
	// pool (BuildShared); the pool's size bounds the nesting.
	par.ForEachN(p.Trees, func(t int) {
		// Per-tree RNG keyed by (seed, tree index): determinism does not
		// depend on goroutine scheduling or worker count.
		rng := xrand.Derive(p.Seed, uint64(t))
		idx := make([]int, bootN)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		// Sorting the bootstrap makes the histogram scans walk each
		// column in order; the draw order itself carries no meaning.
		sort.Ints(idx)
		m.TreesList[t] = tree.BuildShared(cols, yf, yq, idx, mapper, tp, rng)
	})
	return m, nil
}

// PredictProba returns the averaged class-1 probability for one sample.
func (m *Model) PredictProba(x []float64) float64 {
	if len(m.TreesList) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range m.TreesList {
		s += t.Predict(x)
	}
	return s / float64(len(m.TreesList))
}

// PredictBatch scores many samples.
func (m *Model) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.PredictProba(x)
	}
	return out
}
