package tree

import (
	"math"

	"memfp/internal/par"
)

// Fixed-point histogram accumulation.
//
// Split finding sums per-row gradient/hessian statistics into per-bin
// buckets. With float64 buckets the histogram-subtraction trick (child =
// parent − sibling) is only *approximately* equal to rebuilding the child
// from its rows, because float addition is not associative — and the tiny
// drift can flip near-tied split decisions, breaking the determinism
// contract the experiment pipeline is built on. Accumulating in int64
// fixed-point instead makes every histogram sum exact, so subtraction,
// per-feature parallel construction and the row-scanning oracle all
// produce bit-identical statistics in any order (the same reason
// distributed LightGBM aggregates quantized gradients). HistScale leaves
// room for ~2^27 rows before a sum can lose integer exactness in a
// float64 conversion.
const HistScale = 1 << 26

// Quantize maps a float statistic onto the fixed-point grid. Values that
// are integer multiples of 1/HistScale (in particular 0/1 class labels)
// are represented exactly.
func Quantize(v float64) int64 { return int64(math.Round(v * HistScale)) }

// Dequantize converts a fixed-point sum back to float64.
func Dequantize(q int64) float64 { return float64(q) / HistScale }

// QuantizeSlice quantizes src into dst (allocating when dst is short).
func QuantizeSlice(dst []int64, src []float64) []int64 {
	if cap(dst) < len(src) {
		dst = make([]int64, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = Quantize(v)
	}
	return dst
}

// HistBin is one bucket: quantized gradient and hessian sums plus the row
// count. The three counters live side by side so the accumulation loop
// touches one cache line per row instead of three parallel arrays.
type HistBin struct {
	G int64
	H int64
	N int64
}

// Hist holds one node's per-(feature, bin) statistics in one flat slab
// addressed by the owning HistBuilder's per-feature offsets: feature f's
// bins occupy [off[f], off[f+1]).
type Hist struct {
	Bins []HistBin
	Tot  HistBin
}

// parallelRows is the node size from which histogram construction fans
// out across features ("large nodes"); below it the handoff to a pool
// worker costs more than the scan.
const parallelRows = 4096

// HistBuilder builds node histograms over a fixed binned matrix. Gq/Hq
// are per-row quantized gradient/hessian targets indexed by row id; Hq
// may be nil for count-hessian (variance) training. Released histograms
// are pooled and reused, so a builder allocates O(tree depth) slabs over
// a whole training run. A builder is not safe for concurrent use by
// multiple goroutines, but Build itself fans a large node's features out
// on internal/par's pool.
type HistBuilder struct {
	M      *ColMatrix
	Mapper *BinMapper
	Gq     []int64
	Hq     []int64

	off  []int // per-feature slab offsets, len dim+1
	free []*Hist
}

// NewHistBuilder prepares a builder for the given matrix and targets.
func NewHistBuilder(m *ColMatrix, mapper *BinMapper, gq, hq []int64) *HistBuilder {
	dim := len(m.Cols)
	off := make([]int, dim+1)
	for f := 0; f < dim; f++ {
		off[f+1] = off[f] + mapper.Bins(f)
	}
	return &HistBuilder{M: m, Mapper: mapper, Gq: gq, Hq: hq, off: off}
}

func (b *HistBuilder) alloc() *Hist {
	if n := len(b.free); n > 0 {
		h := b.free[n-1]
		b.free = b.free[:n-1]
		return h
	}
	return &Hist{Bins: make([]HistBin, b.off[len(b.off)-1])}
}

// Release returns a histogram to the pool. h must not be used afterwards.
func (b *HistBuilder) Release(h *Hist) {
	if h != nil {
		b.free = append(b.free, h)
	}
}

// Build accumulates the histogram for the rows in idx (duplicates allowed
// — bootstrap samples count a row once per occurrence). Large nodes (at
// least parallelRows rows, more than one feature) fan the per-feature
// scans out on internal/par's pool; because each feature owns a disjoint
// slab region and int64 accumulation is exact, the result is
// bit-identical at every GOMAXPROCS.
func (b *HistBuilder) Build(idx []int) *Hist {
	h := b.alloc()
	dim := len(b.M.Cols)
	scan := func(f int) {
		bins := h.Bins[b.off[f]:b.off[f+1]]
		clear(bins)
		col := b.M.Cols[f]
		if b.Hq == nil {
			for _, r := range idx {
				c := &bins[col[r]]
				c.G += b.Gq[r]
				c.N++
			}
			return
		}
		for _, r := range idx {
			c := &bins[col[r]]
			c.G += b.Gq[r]
			c.H += b.Hq[r]
			c.N++
		}
	}
	if len(idx) >= parallelRows && dim > 1 {
		par.ForEachN(dim, scan)
	} else {
		for f := 0; f < dim; f++ {
			scan(f)
		}
	}
	// Node totals from feature 0's bins (every row lands in exactly one
	// bin of every feature, so any feature's bins sum to the node total).
	h.Tot = HistBin{}
	if len(b.off) >= 2 {
		for _, c := range h.Bins[b.off[0]:b.off[1]] {
			h.Tot.G += c.G
			h.Tot.H += c.H
			h.Tot.N += c.N
		}
	}
	return h
}

// SubtractInto computes the larger child's histogram as parent − small
// in place, consuming parent and returning it. Because the slabs hold
// exact integers this is bit-identical to rebuilding the child from its
// rows — the equivalence the oracle tests pin down.
func (b *HistBuilder) SubtractInto(parent, small *Hist) *Hist {
	for i := range parent.Bins {
		p := &parent.Bins[i]
		s := &small.Bins[i]
		p.G -= s.G
		p.H -= s.H
		p.N -= s.N
	}
	parent.Tot.G -= small.Tot.G
	parent.Tot.H -= small.Tot.H
	parent.Tot.N -= small.Tot.N
	return parent
}

// Children derives both children's histograms from the parent's,
// consuming parent exactly once: the smaller child is scanned, the larger
// is parent − smaller, and a child whose need flag is false gets nil (its
// histogram is released, or never built). This is the single owner of the
// scan-smaller/subtract-larger protocol shared by the CART and leaf-wise
// growers.
func (b *HistBuilder) Children(parent *Hist, left, right []int, needL, needR bool) (hl, hr *Hist) {
	small := left
	needSmall, needLarge := needL, needR
	if len(right) < len(left) {
		small = right
		needSmall, needLarge = needR, needL
	}
	var hSmall, hLarge *Hist
	switch {
	case needLarge:
		hSmall = b.Build(small)
		hLarge = b.SubtractInto(parent, hSmall)
		if !needSmall {
			b.Release(hSmall)
			hSmall = nil
		}
	case needSmall:
		hSmall = b.Build(small)
		b.Release(parent)
	default:
		b.Release(parent)
	}
	if len(right) < len(left) {
		return hLarge, hSmall
	}
	return hSmall, hLarge
}

// FeatureRange returns the slab bounds [lo, hi) of feature f's bins.
func (b *HistBuilder) FeatureRange(f int) (lo, hi int) { return b.off[f], b.off[f+1] }
