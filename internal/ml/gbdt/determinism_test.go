package gbdt

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"memfp/internal/ml/tree"
	"memfp/internal/xrand"
)

// withProcs runs fn with GOMAXPROCS pinned to n — the histogram fan-out
// Fit uses — and restores the previous value on return.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func encode(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGBDTWorkerCountInvariant trains at worker counts (GOMAXPROCS)
// {1, 2, 8} and requires byte-identical serialized models:
// feature-parallel histogram construction accumulates exact integers into
// disjoint slab regions, so worker count cannot leak into the output.
func TestGBDTWorkerCountInvariant(t *testing.T) {
	// Big enough that nodes cross the feature-parallel threshold.
	X, y := synth(6000, 33)
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		p := DefaultParams()
		p.Rounds = 25
		p.Seed = 4
		var m *Model
		var err error
		withProcs(workers, func() { m, err = Fit(X, y, nil, nil, p) })
		if err != nil {
			t.Fatal(err)
		}
		got := encode(t, m)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d produced a different model", workers)
		}
	}
}

// TestGBDTSplitMatchesBruteForce pins evalLeafHist's prefix-scan gain
// scorer to an independent reference: a brute-force evaluator written
// here that scans the leaf's rows directly for every (feature, cut) —
// sharing no code with the histogram path. (The tree package's
// TestSubtractionMatchesRebuild verifies the subtraction machinery,
// tree.HistBuilder.Children; this one verifies the scorer.)
func TestGBDTSplitMatchesBruteForce(t *testing.T) {
	for trial := uint64(0); trial < 150; trial++ {
		rng := xrand.Derive(0x5eaf, trial)
		n := 25 + rng.Intn(250)
		dim := 1 + rng.Intn(5)
		X := make([][]float64, n)
		for i := range X {
			row := make([]float64, dim)
			for f := range row {
				row[f] = float64(rng.Intn(1 + f*3)) // few distinct values ⇒ ties
			}
			X[i] = row
		}
		mapper := tree.FitBins(X, tree.MaxBins)
		cols := mapper.BinColumns(X)
		gq := make([]int64, n)
		hq := make([]int64, n)
		for i := range gq {
			gq[i] = tree.Quantize(rng.Float64() - 0.5)
			hq[i] = tree.Quantize(rng.Float64() * 0.25)
			if hq[i] == 0 {
				hq[i] = 1
			}
		}
		p := DefaultParams()
		p.MinLeaf = 1 + rng.Intn(6)
		idx := rng.Perm(n)[:n/2+rng.Intn(n/2)]
		feats := rng.SampleWithoutReplacement(dim, 1+rng.Intn(dim))
		sort.Ints(feats)
		var sumG, sumH int64
		for _, i := range idx {
			sumG += gq[i]
			sumH += hq[i]
		}

		hb := tree.NewHistBuilder(cols, mapper, gq, hq)
		node := &tree.Node{Leaf: true}
		c := evalLeaf(hb, idx, feats, mapper, p, node, 0, sumG, sumH)

		// Independent reference: direct row scans, same gating semantics.
		bestFeat, bestBin, bestGain := -1, -1, 0.0
		if len(idx) >= 2*p.MinLeaf {
			sGf, sHf := tree.Dequantize(sumG), tree.Dequantize(sumH)
			parent := sGf * sGf / (sHf + p.Lambda)
			for _, f := range feats {
				for cut := 0; cut < mapper.Bins(f)-1; cut++ {
					var lG, lH int64
					lN := 0
					for _, i := range idx {
						if cols.Cols[f][i] <= uint8(cut) {
							lG += gq[i]
							lH += hq[i]
							lN++
						}
					}
					if lN < p.MinLeaf || len(idx)-lN < p.MinLeaf {
						continue
					}
					lGf, lHf := tree.Dequantize(lG), tree.Dequantize(lH)
					rGf, rHf := sGf-lGf, sHf-lHf
					if lHf < p.MinChildHess || rHf < p.MinChildHess {
						continue
					}
					gain := lGf*lGf/(lHf+p.Lambda) + rGf*rGf/(rHf+p.Lambda) - parent
					if gain > bestGain {
						bestGain, bestFeat, bestBin = gain, f, cut
					}
				}
			}
		}
		wantNil := bestFeat < 0 || bestGain <= 1e-9
		if wantNil != (c == nil) {
			t.Fatalf("trial %d: candidate nil-ness mismatch (brute force best %d,%d gain %v)",
				trial, bestFeat, bestBin, bestGain)
		}
		if c != nil && (c.feat != bestFeat || c.bin != bestBin || c.gain != bestGain) {
			t.Fatalf("trial %d: evalLeaf picked (%d,%d,%v), brute force (%d,%d,%v)",
				trial, c.feat, c.bin, c.gain, bestFeat, bestBin, bestGain)
		}
	}
}

// TestGBDTLeafSpansMatchPredict checks the training-path shortcut: the
// leaf spans growTree reports must cover every sampled row exactly once,
// with exactly the value a raw Predict walk returns for that row — the
// bin/threshold boundary equivalence the direct score update relies on.
func TestGBDTLeafSpansMatchPredict(t *testing.T) {
	X, y := synth(1500, 34)
	mapper := tree.FitBins(X, tree.MaxBins)
	cols := mapper.BinColumns(X)
	n := len(X)
	gq := make([]int64, n)
	hq := make([]int64, n)
	for i := range gq {
		// Round-0 logistic gradients at score 0.
		gq[i] = tree.Quantize(0.5 - float64(y[i]))
		hq[i] = tree.Quantize(0.25)
	}
	hb := tree.NewHistBuilder(cols, mapper, gq, hq)
	p := DefaultParams()
	idx := make([]int, n)
	feats := make([]int, len(X[0]))
	for i := range idx {
		idx[i] = i
	}
	for f := range feats {
		feats[f] = f
	}
	root, leaves := growTree(hb, idx, feats, mapper, p)
	if root.Leaves() < 2 {
		t.Fatal("tree did not split; test is vacuous")
	}
	covered := make([]int, n)
	for _, lf := range leaves {
		for _, i := range lf.idx {
			covered[i]++
			if got := root.Predict(X[i]); got != lf.val {
				t.Fatalf("row %d: span value %v != Predict %v", i, lf.val, got)
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("row %d covered %d times, want exactly once", i, c)
		}
	}
}
