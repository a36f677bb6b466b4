package gbdt

import (
	"container/heap"

	"memfp/internal/ml/tree"
)

// Leaf-wise tree growth: repeatedly split the leaf with the largest gain
// until MaxLeaves is reached — LightGBM's growth strategy, in contrast to
// level-wise GBMs. Split gain and leaf values use the standard
// second-order formulation:
//
//	gain  = G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)
//	value = −G/(H+λ)
//
// Each leaf owns its per-feature histogram (built by the shared
// tree.HistBuilder over fixed-point gradient/hessian sums). When a leaf
// splits, the smaller child's histogram is built by scanning its rows and
// the larger child's is derived by subtraction — never re-scanning the
// larger side. Exact int64 accumulation makes that bit-identical to
// rebuilding both children from their rows, which the tree package's
// TestSubtractionMatchesRebuild asserts of tree.HistBuilder.Children.

// candidate is a leaf eligible for splitting.
type candidate struct {
	node       *tree.Node
	idx        []int
	hist       *tree.Hist
	depth      int
	gain       float64
	feat, bin  int
	lN         int   // left-side row count of the chosen split
	sumG, sumH int64 // quantized totals over idx
}

// candHeap is a max-heap over split gain.
type candHeap []*candidate

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(*candidate)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// leafSpan records one final leaf's training rows and value so Fit can
// scatter predictions directly instead of re-walking the tree per row.
type leafSpan struct {
	idx []int
	val float64
}

func leafValue(sumG, sumH int64, lambda float64) float64 {
	return -tree.Dequantize(sumG) / (tree.Dequantize(sumH) + lambda)
}

// growTree builds one leaf-wise tree over the sampled rows and features.
// hb carries the binned matrix and the current round's quantized
// gradients/hessians. The returned spans cover every sampled row exactly
// once.
func growTree(hb *tree.HistBuilder, idx, feats []int, mapper *tree.BinMapper, p Params) (*tree.Node, []leafSpan) {
	var sumG, sumH int64
	for _, i := range idx {
		sumG += hb.Gq[i]
		sumH += hb.Hq[i]
	}
	root := &tree.Node{Leaf: true, Value: leafValue(sumG, sumH, p.Lambda), N: len(idx)}

	leaves := make([]leafSpan, 0, p.MaxLeaves)
	h := &candHeap{}
	if c := evalLeaf(hb, idx, feats, mapper, p, root, 0, sumG, sumH); c != nil {
		heap.Push(h, c)
	} else {
		leaves = append(leaves, leafSpan{idx: idx, val: root.Value})
	}
	nLeaves := 1
	for nLeaves < p.MaxLeaves && h.Len() > 0 {
		c := heap.Pop(h).(*candidate)
		left, right := partition(hb.M.Cols[c.feat], c.idx, c.bin, c.lN)
		if len(left) < p.MinLeaf || len(right) < p.MinLeaf {
			hb.Release(c.hist)
			leaves = append(leaves, leafSpan{idx: c.idx, val: c.node.Value})
			continue
		}

		// Child totals via the smaller side; the larger side's totals are
		// the exact fixed-point complement.
		var lG, lH, rG, rH int64
		if len(left) <= len(right) {
			for _, i := range left {
				lG += hb.Gq[i]
				lH += hb.Hq[i]
			}
			rG, rH = c.sumG-lG, c.sumH-lH
		} else {
			for _, i := range right {
				rG += hb.Gq[i]
				rH += hb.Hq[i]
			}
			lG, lH = c.sumG-rG, c.sumH-rH
		}

		// Histogram only children that could split further: scan the
		// smaller child, derive the larger by subtraction from the parent.
		needL := c.depth+1 < p.MaxDepth && len(left) >= 2*p.MinLeaf
		needR := c.depth+1 < p.MaxDepth && len(right) >= 2*p.MinLeaf
		hl, hr := hb.Children(c.hist, left, right, needL, needR)

		c.node.Leaf = false
		c.node.Feature = c.feat
		c.node.Threshold = mapper.Threshold(c.feat, c.bin)
		c.node.Bin = uint8(c.bin)
		c.node.Left = &tree.Node{Leaf: true, Value: leafValue(lG, lH, p.Lambda), N: len(left)}
		c.node.Right = &tree.Node{Leaf: true, Value: leafValue(rG, rH, p.Lambda), N: len(right)}
		nLeaves++

		settle := func(node *tree.Node, childIdx []int, childHist *tree.Hist, g, hh int64) {
			if childHist != nil {
				if cc := evalLeafHist(hb, childIdx, childHist, feats, mapper, p, node, c.depth+1, g, hh); cc != nil {
					heap.Push(h, cc)
					return
				}
				hb.Release(childHist)
			}
			leaves = append(leaves, leafSpan{idx: childIdx, val: node.Value})
		}
		settle(c.node.Left, left, hl, lG, lH)
		settle(c.node.Right, right, hr, rG, rH)
	}
	// Whatever is still queued when the leaf budget runs out stays a leaf.
	for _, c := range *h {
		hb.Release(c.hist)
		leaves = append(leaves, leafSpan{idx: c.idx, val: c.node.Value})
	}
	return root, leaves
}

// partition splits idx by the chosen bin cut. lN is the split's known
// left-side count (from the histogram), sizing both halves exactly.
func partition(col []uint8, idx []int, bin, lN int) (left, right []int) {
	left = make([]int, 0, lN)
	right = make([]int, 0, len(idx)-lN)
	for _, i := range idx {
		if col[i] <= uint8(bin) {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

// evalLeaf builds the leaf's histogram and finds its best split,
// returning nil (and releasing the histogram) when no split clears the
// constraints.
func evalLeaf(hb *tree.HistBuilder, idx, feats []int, mapper *tree.BinMapper,
	p Params, node *tree.Node, depth int, sumG, sumH int64) *candidate {
	if len(idx) < 2*p.MinLeaf {
		return nil
	}
	hist := hb.Build(idx)
	c := evalLeafHist(hb, idx, hist, feats, mapper, p, node, depth, sumG, sumH)
	if c == nil {
		hb.Release(hist)
	}
	return c
}

// evalLeafHist scores the best split over an already-built histogram. On
// success the returned candidate owns hist; on failure the caller still
// owns it. The prefix scan mirrors the legacy row-scanning evaluator's
// iteration order and comparisons exactly, so ties break identically.
func evalLeafHist(hb *tree.HistBuilder, idx []int, hist *tree.Hist, feats []int,
	mapper *tree.BinMapper, p Params, node *tree.Node, depth int, sumG, sumH int64) *candidate {

	if len(idx) < 2*p.MinLeaf {
		return nil
	}
	sumGf, sumHf := tree.Dequantize(sumG), tree.Dequantize(sumH)
	parentScore := sumGf * sumGf / (sumHf + p.Lambda)

	best := &candidate{node: node, idx: idx, hist: hist, depth: depth, feat: -1, sumG: sumG, sumH: sumH}
	for _, f := range feats {
		nb := mapper.Bins(f)
		if nb < 2 {
			continue
		}
		lo, _ := hb.FeatureRange(f)
		var lGq, lHq int64
		lN := 0
		for cut := 0; cut < nb-1; cut++ {
			cell := &hist.Bins[lo+cut]
			lGq += cell.G
			lHq += cell.H
			lN += int(cell.N)
			rN := len(idx) - lN
			if rN < p.MinLeaf {
				break // rN only shrinks: no later cut can qualify
			}
			if lN < p.MinLeaf {
				continue
			}
			lG, lH := tree.Dequantize(lGq), tree.Dequantize(lHq)
			rG, rH := sumGf-lG, sumHf-lH
			if lH < p.MinChildHess || rH < p.MinChildHess {
				continue
			}
			gain := lG*lG/(lH+p.Lambda) + rG*rG/(rH+p.Lambda) - parentScore
			if gain > best.gain {
				best.gain = gain
				best.feat = f
				best.bin = cut
				best.lN = lN
			}
		}
	}
	if best.feat < 0 || best.gain <= 1e-9 {
		return nil
	}
	return best
}
