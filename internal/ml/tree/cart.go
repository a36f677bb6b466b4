package tree

import (
	"math"

	"memfp/internal/xrand"
)

// Node is one CART node. Leaves carry the mean target of their samples —
// for 0/1 targets this is the class-1 probability (variance splitting on
// binary targets selects the same splits as Gini impurity).
//
// Bin is the split's bin cut under the training BinMapper: "bin ≤ Bin"
// and "value ≤ Threshold" select the same side for every value (the bin
// search is the threshold comparison in index space). It exists so
// training loops can walk pre-binned matrices (PredictBinned); it is not
// serialized, so decoded models must use Predict.
type Node struct {
	Feature   int
	Threshold float64
	Bin       uint8
	Left      *Node
	Right     *Node
	Leaf      bool
	Value     float64
	N         int
}

// Params controls CART growth.
type Params struct {
	MaxDepth    int     // maximum depth (root = 0)
	MinLeaf     int     // minimum samples per leaf
	FeatureFrac float64 // fraction of features considered per split (1 = all)
	MinGain     float64 // minimum variance reduction to accept a split
}

// BuildShared grows a variance-reduction CART on column-major binned
// features. idx selects the training rows (callers pass bootstrap samples;
// duplicate indices count once per occurrence); rng drives feature
// subsampling and may be nil when FeatureFrac >= 1. yq is a caller-provided
// quantization of y (nil to quantize internally): an ensemble fitting many
// trees over the same targets quantizes once instead of once per tree.
//
// Split finding is histogram-based with node-level subtraction: the
// parent's per-feature histograms are built once, and each larger child's
// histograms are derived by subtracting the smaller sibling's from the
// parent's instead of re-scanning rows. Large nodes fan their features
// out on internal/par's pool like any HistBuilder; the forest, the only
// caller, runs whole trees on that pool too. Fixed-point accumulation (see
// hist.go) keeps the output independent of the histogram fan-out and
// bit-identical to a row-scanning grower that shares none of the
// subtraction or feature-parallel machinery; the tests keep that grower
// (rowscan_test.go) and hold this one to it.
func BuildShared(m *ColMatrix, y []float64, yq []int64, idx []int, bm *BinMapper, p Params, rng *xrand.RNG) *Node {
	if len(idx) == 0 || len(m.Cols) == 0 {
		return &Node{Leaf: true, Value: 0}
	}
	if yq == nil {
		yq = QuantizeSlice(nil, y)
	}
	b := &builder{m: m, y: y, mapper: bm, p: p, rng: rng, hb: NewHistBuilder(m, bm, yq, nil)}
	return b.grow(idx, 0, nil)
}

type builder struct {
	m      *ColMatrix
	y      []float64
	mapper *BinMapper
	p      Params
	rng    *xrand.RNG
	hb     *HistBuilder
}

// grow builds the subtree over idx. h is the node's histogram when the
// parent already derived it (ownership transfers; nil means build on
// demand).
func (b *builder) grow(idx []int, depth int, h *Hist) *Node {
	sum, sq := 0.0, 0.0
	for _, i := range idx {
		v := b.y[i]
		sum += v
		sq += v * v
	}
	n := float64(len(idx))
	mean := sum / n
	node := &Node{Leaf: true, Value: mean, N: len(idx)}
	if depth >= b.p.MaxDepth || len(idx) < 2*b.p.MinLeaf {
		b.release(h)
		return node
	}
	variance := sq/n - mean*mean
	if variance <= 1e-12 {
		b.release(h)
		return node
	}

	feats := b.featureSubset(len(b.m.Cols))
	if h == nil {
		h = b.hb.Build(idx)
	}
	feat, bin, gain := b.bestSplitHist(h, feats)
	if feat < 0 || gain < b.p.MinGain {
		b.release(h)
		return node
	}

	left := make([]int, 0, len(idx)/2)
	right := make([]int, 0, len(idx)/2)
	col := b.m.Cols[feat]
	for _, i := range idx {
		if col[i] <= uint8(bin) {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.p.MinLeaf || len(right) < b.p.MinLeaf {
		b.release(h)
		return node
	}
	node.Leaf = false
	node.Feature = feat
	node.Threshold = b.mapper.Threshold(feat, bin)
	node.Bin = uint8(bin)

	// Children that cannot split again (depth or MinLeaf gated) skip
	// histogram work entirely; the parent slab is consumed either by
	// subtraction or by release.
	need := func(rows []int) bool {
		return depth+1 < b.p.MaxDepth && len(rows) >= 2*b.p.MinLeaf
	}
	hl, hr := b.hb.Children(h, left, right, need(left), need(right))
	node.Left = b.grow(left, depth+1, hl)
	node.Right = b.grow(right, depth+1, hr)
	return node
}

func (b *builder) release(h *Hist) {
	if h != nil {
		b.hb.Release(h)
	}
}

// bestSplitHist scans the node histogram for the split maximizing variance
// reduction, equivalently maximizing sumL²/nL + sumR²/nR. It mirrors the
// test-side row-scan split finder's iteration order and comparisons
// exactly so that ties break identically.
func (b *builder) bestSplitHist(h *Hist, feats []int) (feat, bin int, gain float64) {
	n := float64(h.Tot.N)
	totalSum := Dequantize(h.Tot.G)
	base := totalSum * totalSum / n
	nIdx := int(h.Tot.N)

	bestFeat, bestBin, bestScore := -1, -1, base
	for _, f := range feats {
		nb := b.mapper.Bins(f)
		if nb < 2 {
			continue
		}
		lo, _ := b.hb.FeatureRange(f)
		cl := 0
		var slq int64
		for cut := 0; cut < nb-1; cut++ {
			cl += int(h.Bins[lo+cut].N)
			slq += h.Bins[lo+cut].G
			cr := nIdx - cl
			if cr < b.p.MinLeaf {
				break // cr only shrinks: no later cut can qualify
			}
			if cl < b.p.MinLeaf {
				continue
			}
			sl := Dequantize(slq)
			sr := totalSum - sl
			score := sl*sl/float64(cl) + sr*sr/float64(cr)
			if score > bestScore {
				bestScore, bestFeat, bestBin = score, f, cut
			}
		}
	}
	if bestFeat < 0 {
		return -1, -1, 0
	}
	return bestFeat, bestBin, (bestScore - base) / n
}

func (b *builder) featureSubset(dim int) []int {
	if b.p.FeatureFrac >= 1 || b.rng == nil {
		out := make([]int, dim)
		for i := range out {
			out[i] = i
		}
		return out
	}
	k := int(math.Max(1, math.Round(b.p.FeatureFrac*float64(dim))))
	return b.rng.SampleWithoutReplacement(dim, k)
}

// Predict walks the tree on a raw (unbinned) feature vector.
func (n *Node) Predict(x []float64) float64 {
	for !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// PredictBinned walks the tree on row `row` of a matrix binned with the
// training BinMapper. It returns exactly Predict's value for the raw row
// (bin-index comparison ≡ threshold comparison) without the per-node
// float compare and row-slice chase; valid only for trees grown in this
// process (Bin is not serialized).
func (n *Node) PredictBinned(m *ColMatrix, row int) float64 {
	for !n.Leaf {
		if m.Cols[n.Feature][row] <= n.Bin {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// Depth returns the maximum depth of the tree.
func (n *Node) Depth() int {
	if n == nil || n.Leaf {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves counts leaf nodes.
func (n *Node) Leaves() int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return n.Left.Leaves() + n.Right.Leaves()
}

// WalkFeatures accumulates per-feature split counts into counts (used for
// feature importance).
func (n *Node) WalkFeatures(counts []int) {
	if n == nil || n.Leaf {
		return
	}
	counts[n.Feature]++
	n.Left.WalkFeatures(counts)
	n.Right.WalkFeatures(counts)
}
