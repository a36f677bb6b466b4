package tree

// The row-scanning reference the histogram-subtraction builder is held
// to (oracle_test.go): a split finder and a grower that rebuild every
// statistic from the node's rows and never touch a HistBuilder.

// growRowScan grows the subtree over idx by builder.grow's node rules,
// with every split found by bestSplitRowScan: no histograms, no
// subtraction, no feature-parallel fan-out. It draws feature subsets from
// b.rng in grow's node order, so both growers see the same stream.
func (b *builder) growRowScan(idx []int, depth int) *Node {
	sum, sq := 0.0, 0.0
	for _, i := range idx {
		v := b.y[i]
		sum += v
		sq += v * v
	}
	n := float64(len(idx))
	mean := sum / n
	node := &Node{Leaf: true, Value: mean, N: len(idx)}
	if depth >= b.p.MaxDepth || len(idx) < 2*b.p.MinLeaf || sq/n-mean*mean <= 1e-12 {
		return node
	}
	feat, bin, gain := b.bestSplitRowScan(idx, sum, b.featureSubset(len(b.m.Cols)))
	if feat < 0 || gain < b.p.MinGain {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if b.m.Cols[feat][i] <= uint8(bin) {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.p.MinLeaf || len(right) < b.p.MinLeaf {
		return node
	}
	node.Leaf = false
	node.Feature = feat
	node.Threshold = b.mapper.Threshold(feat, bin)
	node.Bin = uint8(bin)
	node.Left = b.growRowScan(left, depth+1)
	node.Right = b.growRowScan(right, depth+1)
	return node
}

// bestSplitRowScan is the pre-subtraction split finder, kept verbatim
// (modulo column-major access) as the independent oracle the histogram
// path is verified against: it rebuilds every feature histogram from the
// node's rows with plain float64 accumulation and shares no state with
// HistBuilder.
func (b *builder) bestSplitRowScan(idx []int, totalSum float64, feats []int) (feat, bin int, gain float64) {
	n := float64(len(idx))
	base := totalSum * totalSum / n

	bestFeat, bestBin, bestScore := -1, -1, base
	var cnt [MaxBins + 1]int
	var sum [MaxBins + 1]float64
	for _, f := range feats {
		nb := b.mapper.Bins(f)
		if nb < 2 {
			continue
		}
		for i := 0; i < nb; i++ {
			cnt[i] = 0
			sum[i] = 0
		}
		col := b.m.Cols[f]
		for _, i := range idx {
			bi := col[i]
			cnt[bi]++
			sum[bi] += b.y[i]
		}
		cl, sl := 0, 0.0
		for cut := 0; cut < nb-1; cut++ {
			cl += cnt[cut]
			sl += sum[cut]
			cr := len(idx) - cl
			if cr < b.p.MinLeaf {
				break // cr only shrinks: no later cut can qualify
			}
			if cl < b.p.MinLeaf {
				continue
			}
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
