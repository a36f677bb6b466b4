// Package ftt implements the FT-Transformer of Gorishniy et al. (NeurIPS
// 2021), the deep tabular baseline the paper evaluates in §VI: every
// feature is tokenized into a d-dimensional embedding (value-scaled weight
// plus bias), a learned [CLS] token is prepended, the token sequence runs
// through pre-norm transformer blocks, and a binary head reads the [CLS]
// representation.
//
// Training runs through the tensor package's autodiff graph; scoring
// (PredictProba and the validation logloss inside Fit) runs through the
// grad-free inference path in infer.go, which reuses the same kernels and
// produces bit-identical logits without building a graph. Both paths
// evaluate the last transformer block for the CLS query only — the head
// reads nothing else — and both are exact: the logits, and in training
// every gradient, carry the same bits as the all-rows graph the tests
// keep (fullForward).
package ftt

import (
	"fmt"
	"math"

	"memfp/internal/ml/tensor"
	"memfp/internal/xrand"
)

// Params configures the model and training loop.
type Params struct {
	Dim         int // token embedding width
	Heads       int
	Layers      int
	FFNMult     int // FFN hidden width = FFNMult × Dim
	Epochs      int
	Batch       int
	LR          float64
	PosWeight   float64 // positive-class weight in the loss (0 = auto)
	Patience    int     // early-stop patience on validation loss (0 = off)
	Seed        uint64
	WeightDecay float64
	// MaxRows caps the training set Fit consumes (0 = no cap): attention
	// is the pipeline's cost center and the learning curve flattens well
	// before the default cap. Fit keeps the row *prefix*, so on a
	// pre-shuffled set the cap is an unbiased subsample.
	MaxRows int
}

// DefaultParams returns the compact configuration used in the experiments
// (the paper's tabular datasets are small; so are ours).
func DefaultParams() Params {
	return Params{
		Dim: 16, Heads: 2, Layers: 2, FFNMult: 2,
		Epochs: 15, Batch: 256, LR: 2e-3,
		Patience: 4, Seed: 1, WeightDecay: 1e-5,
		MaxRows: 30000,
	}
}

// block holds one transformer layer's parameters.
type block struct {
	ln1g, ln1b *tensor.Tensor
	wq, wk, wv *tensor.Tensor
	bq, bk, bv *tensor.Tensor
	wo, bo     *tensor.Tensor
	ln2g, ln2b *tensor.Tensor
	w1, b1     *tensor.Tensor
	w2, b2     *tensor.Tensor
}

// Model is a trained FT-Transformer.
type Model struct {
	p            Params
	nf           int            // feature count
	wNum         *tensor.Tensor // [nf, dim] per-feature value weights
	bNum         *tensor.Tensor // [nf, dim] per-feature biases
	cls          *tensor.Tensor // [1, dim] learned CLS token
	blocks       []*block
	lngF, lnbF   *tensor.Tensor // final layernorm
	wHead, bHead *tensor.Tensor
	params       []*tensor.Tensor

	// scratch is the inference arena pool (infer.go): scoring reuses
	// these buffers across calls and across concurrent ScoreBatch
	// goroutines.
	scratch inferPool

	// epochEnd, when set (tests only), observes each epoch's validation
	// loss as early stopping sees it.
	epochEnd func(epoch int, valLoss float64)
}

// New initializes an untrained model for nf features.
func New(nf int, p Params) *Model {
	if p.Dim%p.Heads != 0 {
		panic(fmt.Sprintf("ftt: Dim %d not divisible by Heads %d", p.Dim, p.Heads))
	}
	rng := xrand.New(p.Seed)
	m := &Model{p: p, nf: nf}
	add := func(t *tensor.Tensor) *tensor.Tensor {
		t.Param()
		m.params = append(m.params, t)
		return t
	}
	ones := func(cols int) *tensor.Tensor {
		t := tensor.New(1, cols)
		for i := range t.Data {
			t.Data[i] = 1
		}
		return t
	}
	d := p.Dim
	m.wNum = add(tensor.NormalInit(tensor.New(nf, d), 0.1, rng))
	m.bNum = add(tensor.NormalInit(tensor.New(nf, d), 0.02, rng))
	m.cls = add(tensor.NormalInit(tensor.New(1, d), 0.1, rng))
	for l := 0; l < p.Layers; l++ {
		b := &block{
			ln1g: add(ones(d)), ln1b: add(tensor.New(1, d)),
			wq: add(tensor.XavierInit(tensor.New(d, d), rng)), bq: add(tensor.New(1, d)),
			wk: add(tensor.XavierInit(tensor.New(d, d), rng)), bk: add(tensor.New(1, d)),
			wv: add(tensor.XavierInit(tensor.New(d, d), rng)), bv: add(tensor.New(1, d)),
			wo: add(tensor.XavierInit(tensor.New(d, d), rng)), bo: add(tensor.New(1, d)),
			ln2g: add(ones(d)), ln2b: add(tensor.New(1, d)),
			w1: add(tensor.XavierInit(tensor.New(d, d*p.FFNMult), rng)), b1: add(tensor.New(1, d*p.FFNMult)),
			w2: add(tensor.XavierInit(tensor.New(d*p.FFNMult, d), rng)), b2: add(tensor.New(1, d)),
		}
		m.blocks = append(m.blocks, b)
	}
	m.lngF = add(ones(d))
	m.lnbF = add(tensor.New(1, d))
	m.wHead = add(tensor.XavierInit(tensor.New(d, 1), rng))
	m.bHead = add(tensor.New(1, 1))
	return m
}

// tokenize builds the [batch*(nf+1), dim] token matrix: CLS followed by
// per-feature tokens x_f·W_f + B_f, as a fused op with custom backward.
// The float32 expression (value rounded once, then one mul and one add)
// is shared verbatim with tokenizeInto on the inference path.
func (m *Model) tokenize(X [][]float64) *tensor.Tensor {
	batch := len(X)
	T := m.nf + 1
	d := m.p.Dim
	out := tensor.NewOp(batch*T, d, m.wNum, m.bNum, m.cls)
	m.tokenizeInto(out.Data, X)
	out.SetBack(func() {
		for b := 0; b < batch; b++ {
			for j := 0; j < d; j++ {
				m.cls.Grad[j] += out.Grad[(b*T)*d+j]
			}
			for f := 0; f < m.nf; f++ {
				v := float32(X[b][f])
				base := (b*T + 1 + f) * d
				for j := 0; j < d; j++ {
					g := out.Grad[base+j]
					m.wNum.Grad[f*d+j] += v * g
					m.bNum.Grad[f*d+j] += g
				}
			}
		}
	})
	return out
}

// forward computes logits (batch×1) for a raw feature batch through the
// autodiff graph (training path). Bias adds are fused into the matmuls —
// numerically identical to separate Add nodes, one graph node cheaper.
//
// The last block is built for CLS queries only, as inferLogits evaluates
// it: the head reads nothing but each sequence's CLS row, so Q, the
// attention output, the residual, LN2, the FFN and the final layernorm
// run on batch rows while K and V still span all T tokens. This is exact,
// not an approximation: in the all-rows graph (fullForward in the tests)
// the dropped rows receive gradient exactly ±0, every accumulator they
// would touch is +0-seeded and so never −0, and adding ±0 to such a value
// leaves its bits unchanged. The graph order keeps n1's gradient
// accumulating from V, then K, then Q, as in the all-rows graph, so the
// logits and every parameter gradient are bit-identical to it
// (TestForwardMatchesFullGraph).
func (m *Model) forward(X [][]float64) *tensor.Tensor {
	batch := len(X)
	T := m.nf + 1
	clsRows := make([]int, batch)
	for i := range clsRows {
		clsRows[i] = i * T
	}
	h := m.tokenize(X)
	last := len(m.blocks) - 1
	for l, b := range m.blocks {
		// Pre-norm attention with residual.
		n1 := tensor.LayerNorm(h, b.ln1g, b.ln1b, 1e-5)
		qIn, Tq := n1, T
		if l == last { // CLS queries only; K and V span all T rows
			qIn, Tq = tensor.Rows(n1, clsRows), 1
		}
		q := tensor.MatMulBias(qIn, b.wq, b.bq)
		k := tensor.MatMulBias(n1, b.wk, b.bk)
		v := tensor.MatMulBias(n1, b.wv, b.bv)
		att := tensor.Attention(q, k, v, batch, Tq, T, m.p.Heads)
		att = tensor.MatMulBias(att, b.wo, b.bo)
		if l == last {
			h = tensor.Rows(h, clsRows)
		}
		h = tensor.Add(h, att)
		// Pre-norm FFN with residual.
		n2 := tensor.LayerNorm(h, b.ln2g, b.ln2b, 1e-5)
		ff := tensor.MatMulBias(n2, b.w1, b.b1)
		ff = tensor.GELU(ff)
		ff = tensor.MatMulBias(ff, b.w2, b.b2)
		h = tensor.Add(h, ff)
	}
	if last < 0 {
		// No transformer blocks: the head reads the raw CLS token rows.
		h = tensor.Rows(h, clsRows)
	}
	cls := tensor.LayerNorm(h, m.lngF, m.lnbF, 1e-5)
	return tensor.MatMulBias(cls, m.wHead, m.bHead)
}

// Fit trains with Adam and mini-batches; when validation data is provided
// and Patience > 0, the best-validation parameters are kept.
func (m *Model) Fit(X [][]float64, y []int, Xval [][]float64, yval []int) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("ftt: bad training set: %d rows, %d labels", len(X), len(y))
	}
	if len(Xval) != len(yval) {
		return fmt.Errorf("ftt: bad validation set: %d rows, %d labels", len(Xval), len(yval))
	}
	if m.p.MaxRows > 0 && len(X) > m.p.MaxRows {
		// Prefix truncation: callers hand Fit a pre-shuffled set, so the
		// prefix is an unbiased subsample of it.
		X, y = X[:m.p.MaxRows], y[:m.p.MaxRows]
	}
	pos := 0
	for _, v := range y {
		pos += v
	}
	if pos == 0 || pos == len(y) {
		return fmt.Errorf("ftt: degenerate training labels (positives=%d of %d)", pos, len(y))
	}
	posW := m.p.PosWeight
	if posW <= 0 {
		posW = math.Min(10, float64(len(y)-pos)/float64(pos))
	}
	opt := tensor.NewAdam(m.params, m.p.LR)
	opt.WeightDecay = m.p.WeightDecay
	rng := xrand.New(m.p.Seed ^ 0xabcdef)

	bestVal := math.Inf(1)
	sinceBest := 0
	var best [][]float32

	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < m.p.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for s := 0; s < len(order); s += m.p.Batch {
			e := s + m.p.Batch
			if e > len(order) {
				e = len(order)
			}
			xb := make([][]float64, 0, e-s)
			yb := make([]float64, 0, e-s)
			for _, i := range order[s:e] {
				xb = append(xb, X[i])
				yb = append(yb, float64(y[i]))
			}
			m.step(opt, xb, yb, posW)
		}
		if len(Xval) > 0 && m.p.Patience > 0 {
			vl := m.logloss(Xval, yval, posW)
			if m.epochEnd != nil {
				m.epochEnd(epoch, vl)
			}
			if vl < bestVal-1e-5 {
				bestVal = vl
				sinceBest = 0
				best = snapshot(m.params)
			} else {
				sinceBest++
				if sinceBest >= m.p.Patience {
					break
				}
			}
		}
	}
	if best != nil {
		restore(m.params, best)
	}
	return nil
}

// step runs one optimizer step on a mini-batch: forward, weighted BCE,
// backward, Adam, then the step's whole graph (activations, gradients,
// retained attention/layernorm scratch) goes back to the buffer pools.
func (m *Model) step(opt *tensor.Adam, xb [][]float64, yb []float64, posW float64) {
	opt.ZeroGrad()
	loss := tensor.BCEWithLogits(m.forward(xb), yb, posW)
	loss.Backward()
	opt.Step()
	tensor.Release(loss)
}

func snapshot(params []*tensor.Tensor) [][]float32 {
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = append([]float32(nil), p.Data...)
	}
	return out
}

func restore(params []*tensor.Tensor, snap [][]float32) {
	for i, p := range params {
		copy(p.Data, snap[i])
	}
}

// logloss computes the weighted validation loss through the grad-free
// inference path (the logits are bit-identical to the training forward).
func (m *Model) logloss(X [][]float64, y []int, posW float64) float64 {
	total := 0.0
	logits := make([]float64, 0, inferChunk)
	for s := 0; s < len(X); s += inferChunk {
		e := s + inferChunk
		if e > len(X) {
			e = len(X)
		}
		logits = m.inferLogits(X[s:e], logits[:0])
		for i, z := range logits {
			p := 1 / (1 + math.Exp(-z))
			if y[s+i] == 1 {
				total += -posW * math.Log(math.Max(p, 1e-12))
			} else {
				total += -math.Log(math.Max(1-p, 1e-12))
			}
		}
	}
	return total / float64(len(X))
}

// PredictProba returns class-1 probabilities for a batch. Safe for
// concurrent use: each call borrows its own inference arena.
func (m *Model) PredictProba(X [][]float64) []float64 {
	out := make([]float64, len(X))
	logits := make([]float64, 0, inferChunk)
	for s := 0; s < len(X); s += inferChunk {
		e := s + inferChunk
		if e > len(X) {
			e = len(X)
		}
		logits = m.inferLogits(X[s:e], logits[:0])
		for i, z := range logits {
			out[s+i] = 1 / (1 + math.Exp(-z))
		}
	}
	return out
}
