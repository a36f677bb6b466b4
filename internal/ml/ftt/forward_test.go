package ftt

import (
	"fmt"
	"math"
	"testing"

	"memfp/internal/features"
	"memfp/internal/ml/tensor"
	"memfp/internal/xrand"
)

// fullForward is the all-rows training graph: every block, the last one
// included, runs attention, the residual, LN2 and the FFN for all T
// tokens of every sequence, and the head gathers the CLS rows at the
// end. It is the independent graph forward's CLS-only last layer and
// inferLogits are held to; no production path builds it.
func (m *Model) fullForward(X [][]float64) *tensor.Tensor {
	batch := len(X)
	T := m.nf + 1
	h := m.tokenize(X)
	for _, b := range m.blocks {
		// Pre-norm attention with residual.
		n1 := tensor.LayerNorm(h, b.ln1g, b.ln1b, 1e-5)
		q := tensor.MatMulBias(n1, b.wq, b.bq)
		k := tensor.MatMulBias(n1, b.wk, b.bk)
		v := tensor.MatMulBias(n1, b.wv, b.bv)
		att := tensor.Attention(q, k, v, batch, T, T, m.p.Heads)
		att = tensor.MatMulBias(att, b.wo, b.bo)
		h = tensor.Add(h, att)
		// Pre-norm FFN with residual.
		n2 := tensor.LayerNorm(h, b.ln2g, b.ln2b, 1e-5)
		ff := tensor.MatMulBias(n2, b.w1, b.b1)
		ff = tensor.GELU(ff)
		ff = tensor.MatMulBias(ff, b.w2, b.b2)
		h = tensor.Add(h, ff)
	}
	clsRows := make([]int, batch)
	for i := range clsRows {
		clsRows[i] = i * T
	}
	cls := tensor.Rows(h, clsRows)
	cls = tensor.LayerNorm(cls, m.lngF, m.lnbF, 1e-5)
	return tensor.MatMulBias(cls, m.wHead, m.bHead)
}

// perturbedModel builds a model whose every parameter is moved off its
// initial value (unit gammas, zero biases), so no gradient is compared
// at a special point. Equal seeds give equal models.
func perturbedModel(nf int, p Params, seed uint64) *Model {
	m := New(nf, p)
	rng := xrand.New(seed)
	for _, w := range m.params {
		for i := range w.Data {
			w.Data[i] += float32(0.1 * rng.NormFloat64())
		}
	}
	return m
}

// stepLogitsAndGrads runs one forward (through fwd), BCE and Backward
// from zeroed gradients, and returns the bits of the logits followed by
// every parameter's gradient.
func stepLogitsAndGrads(m *Model, fwd func([][]float64) *tensor.Tensor, X [][]float64, y []float64) []uint32 {
	for _, w := range m.params {
		w.ZeroGrad()
	}
	logits := fwd(X)
	loss := tensor.BCEWithLogits(logits, y, 3)
	loss.Backward()
	var out []uint32
	for _, v := range logits.Data {
		out = append(out, math.Float32bits(v))
	}
	for _, w := range m.params {
		for _, g := range w.Grad {
			out = append(out, math.Float32bits(g))
		}
	}
	tensor.Release(loss)
	return out
}

// TestForwardMatchesFullGraph pins the training graph's CLS-only last
// layer to the all-rows graph: after one Backward the logits and every
// parameter's gradient must be the same bits. Dropping the non-CLS query
// rows removes only ±0 gradient terms from +0-seeded accumulators, and
// n1 must still collect its gradient from V, then K, then Q; a change to
// either the graph order or an accumulator's seed shows up here. The
// table crosses no, one and two blocks with a small feature count and
// the served one (49 features), at one row, an odd batch and the
// training batch.
func TestForwardMatchesFullGraph(t *testing.T) {
	for _, layers := range []int{0, 1, 2} {
		for _, nf := range []int{12, len(features.Names())} {
			for _, batch := range []int{1, 7, 256} {
				t.Run(fmt.Sprintf("layers%d/nf%d/batch%d", layers, nf, batch), func(t *testing.T) {
					p := DefaultParams()
					p.Layers = layers
					cut := perturbedModel(nf, p, 5)
					full := perturbedModel(nf, p, 5)
					rng := xrand.New(6)
					X := make([][]float64, batch)
					y := make([]float64, batch)
					for i := range X {
						X[i] = make([]float64, nf)
						for j := range X[i] {
							X[i][j] = rng.NormFloat64()
						}
						if rng.Bool(0.3) {
							y[i] = 1
						}
					}
					got := stepLogitsAndGrads(cut, cut.forward, X, y)
					want := stepLogitsAndGrads(full, full.fullForward, X, y)
					if len(got) != len(want) {
						t.Fatalf("%d values vs %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("value %d (logits first, then gradients in parameter order): %g vs full graph %g",
								i, math.Float32frombits(got[i]), math.Float32frombits(want[i]))
						}
					}
				})
			}
		}
	}
}

// BenchmarkFitStep times one optimizer step as Fit runs it — forward,
// BCE, backward, Adam and Release — at the trained shape: every
// extracted feature, default hyperparameters and the training batch.
// The tensor kernels fan out at GOMAXPROCS, so run it with -cpu 1,2.
func BenchmarkFitStep(b *testing.B) {
	p := DefaultParams()
	m, X := randModel(len(features.Names()), p.Batch)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = float64(i % 2)
	}
	opt := tensor.NewAdam(m.params, p.LR)
	opt.WeightDecay = p.WeightDecay
	m.step(opt, X, y, 1) // fill the pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(opt, X, y, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/step")
}
