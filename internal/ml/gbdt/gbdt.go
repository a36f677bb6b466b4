// Package gbdt implements a LightGBM-style gradient-boosted decision tree
// binary classifier (§VI's best performer): logistic loss, second-order
// (Newton) leaf values, histogram split finding, and leaf-wise tree growth
// bounded by a maximum leaf count — the combination that distinguishes
// LightGBM from classic depth-wise GBMs.
package gbdt

import (
	"fmt"
	"math"
	"sort"

	"memfp/internal/ml/tree"
	"memfp/internal/xrand"
)

// Params configures boosting.
type Params struct {
	Rounds       int     // maximum boosting rounds
	LearningRate float64 // shrinkage
	MaxLeaves    int     // leaf-wise growth budget per tree
	MaxDepth     int     // safety depth bound
	MinLeaf      int     // minimum samples per leaf
	MinChildHess float64 // minimum hessian mass per leaf
	Lambda       float64 // L2 regularization on leaf values
	FeatureFrac  float64 // per-tree feature subsample
	SampleFrac   float64 // per-tree row subsample
	EarlyStop    int     // stop after this many rounds without val improvement (0 = off)
	Seed         uint64
}

// DefaultParams mirrors LightGBM's common defaults scaled to our datasets.
func DefaultParams() Params {
	return Params{
		Rounds:       300,
		LearningRate: 0.07,
		MaxLeaves:    31,
		MaxDepth:     12,
		MinLeaf:      10,
		MinChildHess: 1e-3,
		Lambda:       1.0,
		FeatureFrac:  0.9,
		SampleFrac:   0.9,
		EarlyStop:    30,
		Seed:         1,
	}
}

// Model is a trained booster.
type Model struct {
	Trees    []*tree.Node
	Shrink   float64
	BasePred float64 // initial log-odds
	Rounds   int     // rounds actually kept (after early stopping)
	Dim      int
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Fit trains the booster. When Xval/yval are non-empty and EarlyStop > 0,
// training stops once validation logloss fails to improve.
func Fit(X [][]float64, y []int, Xval [][]float64, yval []int, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("gbdt: bad training set: %d rows, %d labels", len(X), len(y))
	}
	if len(Xval) != len(yval) {
		return nil, fmt.Errorf("gbdt: bad validation set: %d rows, %d labels", len(Xval), len(yval))
	}
	if p.Rounds <= 0 {
		return nil, fmt.Errorf("gbdt: Rounds must be positive")
	}
	n := len(X)
	mapper := tree.FitBins(X, tree.MaxBins)
	cols := mapper.BinColumns(X)

	pos := 0
	for _, v := range y {
		pos += v
	}
	if pos == 0 || pos == n {
		return nil, fmt.Errorf("gbdt: degenerate training labels (positives=%d of %d)", pos, n)
	}
	base := math.Log(float64(pos) / float64(n-pos))

	rng := xrand.New(p.Seed)
	score := make([]float64, n)
	for i := range score {
		score[i] = base
	}
	valScore := make([]float64, len(Xval))
	for i := range valScore {
		valScore[i] = base
	}
	// Bin the validation set once under the training mapper: the per-round
	// early-stopping walk then compares uint8 bin indices instead of raw
	// floats, landing in exactly the same leaves (bin ≡ threshold compare).
	var valCols *tree.ColMatrix
	if len(Xval) > 0 && p.EarlyStop > 0 {
		valCols = mapper.BinColumns(Xval)
	}

	m := &Model{Shrink: p.LearningRate, BasePred: base, Dim: len(X[0])}
	gq := make([]int64, n)
	hq := make([]int64, n)
	hb := tree.NewHistBuilder(cols, mapper, gq, hq)
	// seen[i] == round marks rows covered by this round's leaf spans, so
	// only out-of-sample rows pay a tree walk.
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	bestVal := math.Inf(1)
	sinceBest := 0
	bestRounds := 0

	for round := 0; round < p.Rounds; round++ {
		for i := 0; i < n; i++ {
			pr := sigmoid(score[i])
			gq[i] = tree.Quantize(pr - float64(y[i]))
			hq[i] = tree.Quantize(pr * (1 - pr))
			// Floor at one fixed-point unit: a saturated row's hessian
			// must not quantize to zero, or a leaf of such rows would
			// divide by zero when Lambda is 0.
			if hq[i] == 0 {
				hq[i] = 1
			}
		}
		idx := sampleRows(n, p.SampleFrac, rng)
		feats := sampleFeatures(len(X[0]), p.FeatureFrac, rng)
		root, leaves := growTree(hb, idx, feats, mapper, p)
		m.Trees = append(m.Trees, root)
		// Sampled rows land in exactly one leaf each; scatter its value
		// directly instead of re-walking the tree per row.
		for _, lf := range leaves {
			for _, i := range lf.idx {
				score[i] += p.LearningRate * lf.val
				seen[i] = round
			}
		}
		for i := 0; i < n; i++ {
			if seen[i] != round {
				score[i] += p.LearningRate * root.PredictBinned(cols, i)
			}
		}
		if len(Xval) > 0 && p.EarlyStop > 0 {
			ll := 0.0
			for i := range Xval {
				valScore[i] += p.LearningRate * root.PredictBinned(valCols, i)
				pr := sigmoid(valScore[i])
				if yval[i] == 1 {
					ll -= math.Log(math.Max(pr, 1e-12))
				} else {
					ll -= math.Log(math.Max(1-pr, 1e-12))
				}
			}
			ll /= float64(len(Xval))
			if ll < bestVal-1e-6 {
				bestVal = ll
				bestRounds = round + 1
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= p.EarlyStop {
					m.Trees = m.Trees[:bestRounds]
					break
				}
			}
		}
	}
	m.Rounds = len(m.Trees)
	return m, nil
}

// sampleRows and sampleFeatures return sorted subsets: row order makes the
// histogram scans walk each column sequentially, and feature order gives
// ties a fixed "lowest feature index wins" semantics.
//
// Rows are drawn by selection sampling (Knuth's Algorithm S), which emits
// a uniformly-random k-subset already in ascending order — no O(k log k)
// sort per boosting round.
func sampleRows(n int, frac float64, rng *xrand.RNG) []int {
	if frac >= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	k := int(math.Max(1, math.Round(frac*float64(n))))
	idx := make([]int, 0, k)
	remaining := k
	for i := 0; i < n && remaining > 0; i++ {
		if rng.Float64()*float64(n-i) < float64(remaining) {
			idx = append(idx, i)
			remaining--
		}
	}
	return idx
}

func sampleFeatures(dim int, frac float64, rng *xrand.RNG) []int {
	if frac >= 1 {
		out := make([]int, dim)
		for i := range out {
			out[i] = i
		}
		return out
	}
	k := int(math.Max(1, math.Round(frac*float64(dim))))
	feats := rng.SampleWithoutReplacement(dim, k)
	sort.Ints(feats)
	return feats
}

// PredictScore returns the raw log-odds for one sample.
func (m *Model) PredictScore(x []float64) float64 {
	s := m.BasePred
	for _, t := range m.Trees {
		s += m.Shrink * t.Predict(x)
	}
	return s
}

// PredictProba returns the class-1 probability for one sample.
func (m *Model) PredictProba(x []float64) float64 { return sigmoid(m.PredictScore(x)) }

// PredictBatch scores many samples.
func (m *Model) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.PredictProba(x)
	}
	return out
}

// FeatureImportance returns normalized split-count importance.
func (m *Model) FeatureImportance() []float64 {
	counts := make([]int, m.Dim)
	for _, t := range m.Trees {
		t.WalkFeatures(counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	imp := make([]float64, m.Dim)
	if total == 0 {
		return imp
	}
	for i, c := range counts {
		imp[i] = float64(c) / float64(total)
	}
	return imp
}
