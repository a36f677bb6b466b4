package tree

import (
	"math"
	"testing"
)

// FuzzBinMapper drives FitBins/Bin/Threshold/BinColumns with arbitrary
// byte-derived matrices: constant (empty-edge) features, NaN-free
// monotonicity of Bin, the Threshold clamp path on out-of-range bin
// indices, and agreement of the column-major layout with pointwise Bin.
func FuzzBinMapper(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(4), uint8(3))
	f.Add([]byte{255, 255, 255, 255}, uint8(1), uint8(255))
	f.Add([]byte{}, uint8(2), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 1, 200, 1, 200, 3}, uint8(2), uint8(2))

	f.Fuzz(func(t *testing.T, raw []byte, dimB uint8, maxBinsB uint8) {
		dim := int(dimB%8) + 1
		maxBins := int(maxBinsB)
		n := len(raw) / dim
		if n == 0 {
			return
		}
		X := make([][]float64, n)
		for i := range X {
			row := make([]float64, dim)
			for fi := 0; fi < dim; fi++ {
				b := raw[i*dim+fi]
				// A tiny value alphabet forces duplicate values, constant
				// features, and fewer distinct values than bins.
				row[fi] = float64(b%16) / 4
			}
			X[i] = row
		}
		m := FitBins(X, maxBins)
		if len(m.Edges) != dim {
			t.Fatalf("edges for %d features, want %d", len(m.Edges), dim)
		}

		for fi := 0; fi < dim; fi++ {
			nb := m.Bins(fi)
			if nb < 1 {
				t.Fatalf("feature %d: %d bins, want >= 1", fi, nb)
			}
			// Edges strictly increasing and finite.
			edges := m.Edges[fi]
			for i, e := range edges {
				if math.IsNaN(e) || math.IsInf(e, 0) {
					t.Fatalf("feature %d: non-finite edge %v", fi, e)
				}
				if i > 0 && e <= edges[i-1] {
					t.Fatalf("feature %d: edges not strictly increasing", fi)
				}
			}
			// Bin is monotone and in range over a value sweep that
			// brackets the training range.
			prev := uint8(0)
			for step := 0; step <= 64; step++ {
				v := -1 + float64(step)*(16.0+2)/64
				b := m.Bin(fi, v)
				if int(b) >= nb {
					t.Fatalf("feature %d: Bin(%v) = %d out of %d bins", fi, v, b, nb)
				}
				if step > 0 && b < prev {
					t.Fatalf("feature %d: Bin not monotone at %v", fi, v)
				}
				prev = b
			}
			// Threshold clamps any bin index — including the constant
			// feature's empty edge list — without panicking, and in-range
			// thresholds are consistent with Bin.
			for _, b := range []int{-2, -1, 0, nb - 2, nb - 1, nb, nb + 7} {
				th := m.Threshold(fi, b)
				if math.IsNaN(th) || math.IsInf(th, 0) {
					t.Fatalf("feature %d: Threshold(%d) = %v", fi, b, th)
				}
			}
			for b := 0; b < nb-1; b++ {
				th := m.Threshold(fi, b)
				if got := m.Bin(fi, th); int(got) > b {
					t.Fatalf("feature %d: Bin(Threshold(%d)) = %d, want <= %d", fi, b, got, b)
				}
			}
			if len(edges) == 0 {
				// Constant feature: everything lands in the single bin.
				for _, x := range X {
					if m.Bin(fi, x[fi]) != 0 {
						t.Fatalf("feature %d: constant feature binned nonzero", fi)
					}
				}
			}
		}

		// Column-major binning agrees with pointwise Bin.
		cols := m.BinColumns(X)
		if cols.NRows != n {
			t.Fatalf("BinColumns rows = %d, want %d", cols.NRows, n)
		}
		for i, x := range X {
			for fi, v := range x {
				if cols.Cols[fi][i] != m.Bin(fi, v) {
					t.Fatalf("column binning disagrees with Bin at (%d,%d)", i, fi)
				}
			}
		}
	})
}
