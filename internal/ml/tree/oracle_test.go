package tree

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"memfp/internal/xrand"
)

// Oracle equivalence: the histogram-subtraction split finder must make
// exactly the decisions of the row-scanning reference (rowscan_test.go). The generators
// below deliberately produce few distinct feature values (bin ties and
// constant features), duplicate rows (bootstrap samples), tiny MinLeaf
// margins, and dyadic targets — multiples of 1/16, which both float64
// accumulation and 2^26 fixed-point represent exactly, so "identical"
// means bit-identical, not approximately equal.

type trialCase struct {
	X    [][]float64
	y    []float64
	idx  []int
	p    Params
	seed uint64
}

func randomTrial(trial uint64) trialCase {
	rng := xrand.Derive(0xbeef, trial)
	n := 20 + rng.Intn(300)
	dim := 1 + rng.Intn(6)
	distinct := make([]int, dim)
	for f := range distinct {
		distinct[f] = 1 + rng.Intn(8) // 1 ⇒ constant feature
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for f := range row {
			row[f] = float64(rng.Intn(distinct[f]))
		}
		X[i] = row
		y[i] = float64(rng.Intn(33)-16) / 16
	}
	var idx []int
	if rng.Bool(0.5) {
		// Bootstrap-style: duplicates allowed.
		idx = make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
	} else {
		idx = rng.Perm(n)
	}
	p := Params{
		MaxDepth:    1 + rng.Intn(6),
		MinLeaf:     1 + rng.Intn(8),
		FeatureFrac: 1,
		MinGain:     1e-7,
	}
	if rng.Bool(0.4) && dim > 1 {
		p.FeatureFrac = 0.5
	}
	return trialCase{X: X, y: y, idx: idx, p: p, seed: rng.Uint64()}
}

func nodesEqual(a, b *Node) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("nil mismatch")
	}
	if a == nil {
		return nil
	}
	if a.Leaf != b.Leaf || a.Feature != b.Feature || a.Threshold != b.Threshold ||
		a.Value != b.Value || a.N != b.N {
		return fmt.Errorf("node mismatch: %+v vs %+v", a, b)
	}
	if a.Leaf {
		return nil
	}
	if err := nodesEqual(a.Left, b.Left); err != nil {
		return err
	}
	return nodesEqual(a.Right, b.Right)
}

// TestBestSplitMatchesOracle compares the two split finders call-by-call:
// identical (feature, bin, gain) on randomized binned matrices.
func TestBestSplitMatchesOracle(t *testing.T) {
	for trial := uint64(0); trial < 300; trial++ {
		tc := randomTrial(trial)
		m := FitBins(tc.X, MaxBins)
		cm := m.BinColumns(tc.X)

		b := &builder{m: cm, y: tc.y, mapper: m, p: tc.p}
		b.hb = NewHistBuilder(cm, m, QuantizeSlice(nil, tc.y), nil)

		feats := make([]int, len(cm.Cols))
		for i := range feats {
			feats[i] = i
		}
		sum := 0.0
		for _, i := range tc.idx {
			sum += tc.y[i]
		}
		h := b.hb.Build(tc.idx)
		f1, b1, g1 := b.bestSplitHist(h, feats)
		f2, b2, g2 := b.bestSplitRowScan(tc.idx, sum, feats)
		if f1 != f2 || b1 != b2 || g1 != g2 {
			t.Fatalf("trial %d: hist split (%d,%d,%v) != oracle split (%d,%d,%v)",
				trial, f1, b1, g1, f2, b2, g2)
		}
		b.hb.Release(h)
	}
}

// histEqual fails the test unless got and want agree cell for cell.
func histEqual(t *testing.T, label string, got, want *Hist) {
	t.Helper()
	if got.Tot != want.Tot {
		t.Fatalf("%s: totals diverge: %+v vs %+v", label, got.Tot, want.Tot)
	}
	for i := range got.Bins {
		if got.Bins[i] != want.Bins[i] {
			t.Fatalf("%s: bin %d diverges: %+v vs %+v", label, i, got.Bins[i], want.Bins[i])
		}
	}
}

// TestSubtractionMatchesRebuild verifies the core identity: for any
// partition of a node's rows, parent − small is cell-for-cell identical
// to histogramming the large child from its rows. It also holds
// Children — the call both the CART and the leaf-wise GBDT grower make —
// to rebuilding each child from its rows.
func TestSubtractionMatchesRebuild(t *testing.T) {
	for trial := uint64(0); trial < 200; trial++ {
		tc := randomTrial(trial + 1000)
		m := FitBins(tc.X, MaxBins)
		cm := m.BinColumns(tc.X)
		gq := QuantizeSlice(nil, tc.y)
		// Exercise both the count-hessian and gradient/hessian shapes.
		var hq []int64
		if trial%2 == 1 {
			hq = make([]int64, len(tc.y))
			rng := xrand.Derive(0xfeed, trial)
			for i := range hq {
				hq[i] = Quantize(rng.Float64())
			}
		}
		hb := NewHistBuilder(cm, m, gq, hq)

		// Partition on an arbitrary feature/bin cut.
		rng := xrand.Derive(0xabad, trial)
		f := rng.Intn(len(cm.Cols))
		cut := uint8(rng.Intn(m.Bins(f)))
		var left, right []int
		for _, i := range tc.idx {
			if cm.Cols[f][i] <= cut {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		small, large := left, right
		if len(small) > len(large) {
			small, large = large, small
		}
		parent := hb.Build(tc.idx)
		hs := hb.Build(small)
		derived := hb.SubtractInto(parent, hs)
		histEqual(t, fmt.Sprintf("trial %d subtraction", trial), derived, hb.Build(large))

		hl, hr := hb.Children(hb.Build(tc.idx), left, right, true, true)
		histEqual(t, fmt.Sprintf("trial %d left child", trial), hl, hb.Build(left))
		histEqual(t, fmt.Sprintf("trial %d right child", trial), hr, hb.Build(right))
	}
}

// TestBuildMatchesOracle grows whole trees both ways — BuildShared and
// the row-scan grower, same feature subsampling stream, same params —
// and requires identical structure, thresholds, values, and serialized
// bytes. Odd trials hand BuildShared a caller-quantized yq, the form
// forest.Fit shares across its trees.
func TestBuildMatchesOracle(t *testing.T) {
	for trial := uint64(0); trial < 150; trial++ {
		tc := randomTrial(trial + 5000)
		m := FitBins(tc.X, MaxBins)
		cm := m.BinColumns(tc.X)

		var yq []int64
		if trial%2 == 1 {
			yq = QuantizeSlice(nil, tc.y)
		}
		prod := BuildShared(cm, tc.y, yq, tc.idx, m, tc.p, xrand.New(tc.seed))
		rs := &builder{m: cm, y: tc.y, mapper: m, p: tc.p, rng: xrand.New(tc.seed)}
		oracle := rs.growRowScan(tc.idx, 0)

		if err := nodesEqual(prod, oracle); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var bp, bo bytes.Buffer
		if err := prod.Encode(&bp); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Encode(&bo); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bp.Bytes(), bo.Bytes()) {
			t.Fatalf("trial %d: serialized trees differ", trial)
		}
	}
}

// withProcs runs fn with GOMAXPROCS pinned to n — the histogram feature
// fan-out — and restores the previous value on return.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestBuildWorkerIndependence pins the determinism contract: the
// feature-parallel histogram path returns byte-identical trees at every
// worker count (GOMAXPROCS).
func TestBuildWorkerIndependence(t *testing.T) {
	rng := xrand.New(11)
	n := 6000 // above parallelRows so the fan-out actually engages
	X := make([][]float64, n)
	y := make([]float64, n)
	idx := make([]int, n)
	for i := range X {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{a, b, rng.NormFloat64(), rng.NormFloat64()}
		if a*b > 0 {
			y[i] = 1
		}
		idx[i] = i
	}
	m := FitBins(X, MaxBins)
	cm := m.BinColumns(X)
	var ref []byte
	p := defaultParams()
	p.FeatureFrac = 0.75
	for _, workers := range []int{1, 2, 8} {
		b := &builder{m: cm, y: y, mapper: m, p: p, rng: xrand.New(7),
			hb: NewHistBuilder(cm, m, QuantizeSlice(nil, y), nil)}
		var root *Node
		withProcs(workers, func() { root = b.grow(idx, 0, nil) })
		var buf bytes.Buffer
		if err := root.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("workers=%d produced a different tree", workers)
		}
	}
}
