// Package tree implements histogram-binned CART decision trees: the shared
// substrate under the Random Forest and the LightGBM-style GBDT. Features
// are quantile-binned once (as LightGBM does) so split finding scans at
// most maxBins buckets per feature instead of sorting samples.
package tree

import (
	"sort"
)

// MaxBins is the number of histogram bins per feature (LightGBM's default
// granularity fits in a uint8).
const MaxBins = 255

// BinMapper maps raw feature values to bin indices and back.
type BinMapper struct {
	// Edges[f] holds ascending split candidates for feature f: value v
	// falls in bin i where i is the count of edges ≤ v. len(Edges[f])+1
	// bins exist; a split "bin ≤ i" corresponds to threshold Edges[f][i].
	Edges [][]float64
}

// FitBins computes quantile-based bin edges from a training matrix.
func FitBins(X [][]float64, maxBins int) *BinMapper {
	if maxBins <= 1 || maxBins > MaxBins {
		maxBins = MaxBins
	}
	if len(X) == 0 {
		return &BinMapper{}
	}
	dim := len(X[0])
	m := &BinMapper{Edges: make([][]float64, dim)}
	vals := make([]float64, len(X))
	for f := 0; f < dim; f++ {
		for i, x := range X {
			vals[i] = x[f]
		}
		sort.Float64s(vals)
		// Distinct values.
		uniq := vals[:0:0]
		for i, v := range vals {
			if i == 0 || v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		var edges []float64
		if len(uniq) <= maxBins {
			// One bin per distinct value; edge = midpoint.
			for i := 0; i+1 < len(uniq); i++ {
				edges = append(edges, (uniq[i]+uniq[i+1])/2)
			}
		} else {
			// Quantile edges over the raw distribution.
			for b := 1; b < maxBins; b++ {
				q := vals[len(vals)*b/maxBins]
				if len(edges) == 0 || q > edges[len(edges)-1] {
					edges = append(edges, q)
				}
			}
		}
		m.Edges[f] = edges
	}
	return m
}

// Bin returns the bin index of value v for feature f.
func (m *BinMapper) Bin(f int, v float64) uint8 {
	edges := m.Edges[f]
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}

// Bins returns the number of bins for feature f.
func (m *BinMapper) Bins(f int) int { return len(m.Edges[f]) + 1 }

// Threshold returns the raw-value threshold for a split at "bin ≤ b",
// clamping b into the valid edge range. A feature with no edges (a
// constant feature) has no meaningful threshold and yields 0; split
// finding never proposes such a feature because it has a single bin.
func (m *BinMapper) Threshold(f int, b int) float64 {
	edges := m.Edges[f]
	if len(edges) == 0 {
		return 0
	}
	if b >= len(edges) {
		b = len(edges) - 1
	}
	if b < 0 {
		b = 0
	}
	return edges[b]
}

// ColMatrix is the column-major binned training matrix: Cols[f][i] is the
// bin of row i's feature f. Split finding scans one feature across many
// rows, so the column layout turns the hot loop into a sequential walk
// over a contiguous []uint8 instead of a strided pointer chase through
// per-row slices.
type ColMatrix struct {
	NRows int
	Cols  [][]uint8
}

// BinColumns converts a raw matrix to column-major binned form. The
// columns are backed by one contiguous allocation.
func (m *BinMapper) BinColumns(X [][]float64) *ColMatrix {
	if len(X) == 0 {
		return &ColMatrix{}
	}
	dim := len(X[0])
	backing := make([]uint8, dim*len(X))
	cols := make([][]uint8, dim)
	for f := 0; f < dim; f++ {
		col := backing[f*len(X) : (f+1)*len(X) : (f+1)*len(X)]
		for i, x := range X {
			col[i] = m.Bin(f, x[f])
		}
		cols[f] = col
	}
	return &ColMatrix{NRows: len(X), Cols: cols}
}
