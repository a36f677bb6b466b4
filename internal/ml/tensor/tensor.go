// Package tensor is a small reverse-mode automatic-differentiation engine
// over dense row-major float32 matrices — just enough to train the
// FT-Transformer of §VI from scratch with stdlib only. All tensors are 2-D
// ([rows × cols]); batched attention is provided as a fused operator so
// the graph never needs higher-rank shapes.
//
// # Kernels and the determinism recipe
//
// The hot operators (matmul, attention, layernorm) run through tiled
// float32 kernels (kernels.go, with an SSE2 micro-kernel on amd64; the
// purego build tag selects the portable kernels there too) built on one
// floating-point specification: every output element is produced
// by a single float32 accumulation chain — seeded with the bias term
// when the op has one — over its reduction index in ascending order,
// followed by at most one rounding step per post-op (softmax scale,
// gradient accumulate). Parallelism only ever splits work ACROSS output
// elements — chunk boundaries depend on the problem shape alone
// (parallel.go) — and tiling/register-blocking/SIMD lanes only reorder
// independent elements, never an element's own chain. There is one
// matmul: the linear layers, their gradients and the attention forward's
// two contractions (scores and value reduction, over per-head panels)
// all call it, so attention rides the micro-kernel wherever the linear
// layers do. Nonlinearities go through the frozen fexp32 / ftanh32
// helpers (fexp.go) rather than libm. Every product that feeds an add is
// written with an explicit conversion, float32(a*b) (float64 inside
// fexp.go and Adam), which the Go spec makes a fusion barrier: arm64 may
// otherwise contract x*y + z into one FMA instruction with a single
// rounding, which amd64 at GOAMD64=v1 never does, and the two
// architectures would round differently. The conversions are no-ops on
// amd64; `make cross-check` disassembles the arm64 test binaries and fails
// on any fused multiply-add. Consequently kernel output is
// bit-identical for every worker count and bit-identical between the
// fast kernels and the naive reference implementations kept beside the
// tests (reference_test.go); the oracle property tests enforce both,
// pinning worker counts through runtime.GOMAXPROCS, which the kernel
// fan-out reads.
//
// # Training vs inference
//
// The graph ops below are the training path: they record parents and
// backward closures, and retain whatever the backward needs (attention
// probabilities, layernorm statistics). Intermediate buffers come from
// the size-classed pools in scratch.go; Release returns a step's whole
// graph to the pools. The grad-free inference path (infer.go) exposes the
// same kernels as plain slice-in/slice-out calls — no graph, no retained
// state — which is what ftt.Model's ScoreBatch fast path drives; because
// both paths share one kernel per op, their outputs match bitwise.
package tensor

import (
	"fmt"
	"math"

	"memfp/internal/xrand"
)

// Tensor is a matrix node in the autodiff graph.
type Tensor struct {
	Rows, Cols int
	Data       []float32
	Grad       []float32
	requires   bool
	back       func()
	prev       []*Tensor
	pooled     bool   // Data/Grad came from the buffer pools (Release reclaims)
	scratch    func() // returns op-retained scratch to the pools
}

// New allocates a zero matrix (caller-owned, never pooled).
func New(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Param marks the tensor as trainable (gradients accumulate).
func (t *Tensor) Param() *Tensor {
	t.requires = true
	t.Grad = make([]float32, len(t.Data))
	return t
}

// ensureGrad lazily allocates the gradient buffer (zeroed — pooled
// buffers come back dirty).
func (t *Tensor) ensureGrad() {
	if t.Grad != nil {
		return
	}
	if t.pooled {
		t.Grad = getF32zero(len(t.Data))
	} else {
		t.Grad = make([]float32, len(t.Data))
	}
}

// child builds a result tensor wired into the graph. Its Data comes from
// the buffer pools with UNDEFINED contents: every operator must fully
// overwrite it.
func child(rows, cols int, parents ...*Tensor) *Tensor {
	out := &Tensor{Rows: rows, Cols: cols, Data: getF32(rows * cols), pooled: true}
	for _, p := range parents {
		if p.requires {
			out.requires = true
			break
		}
	}
	out.prev = parents
	return out
}

// NewOp creates a graph node with the given parents, for fused custom
// operators defined outside this package (e.g. a feature tokenizer).
// The caller must fully overwrite Data (it is pooled and arrives dirty)
// and installs the backward with SetBack.
func NewOp(rows, cols int, parents ...*Tensor) *Tensor {
	return child(rows, cols, parents...)
}

// SetBack installs the backward closure of a custom op. The closure must
// accumulate into the parents' Grad buffers (parents created with Param
// already have them allocated).
func (t *Tensor) SetBack(f func()) { t.back = f }

// Backward runs reverse-mode differentiation from t (typically a 1×1
// loss), seeding d(t)/d(t) = 1.
func (t *Tensor) Backward() {
	order := []*Tensor{}
	seen := map[*Tensor]bool{}
	var topo func(*Tensor)
	topo = func(n *Tensor) {
		if seen[n] || !n.requires {
			return
		}
		seen[n] = true
		for _, p := range n.prev {
			topo(p)
		}
		order = append(order, n)
	}
	topo(t)
	t.ensureGrad()
	for i := range t.Grad {
		t.Grad[i] = 1
	}
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].back != nil {
			order[i].back()
		}
	}
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// MatMulBias returns a·b + bias (bias is 1×cols, broadcast over rows),
// fused so the graph skips a full-size Add node. Per the kernel spec the
// bias seeds each element's accumulation chain (the micro-kernel
// preloads it into the accumulator register), so the result differs from
// adding the bias to a finished a·b only in rounding order — and matches the
// reference kernel bitwise.
func MatMulBias(a, b, bias *Tensor) *Tensor {
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul bias %dx%d for %d columns", bias.Rows, bias.Cols, b.Cols))
	}
	return matmulNode(a, b, bias)
}

func matmulNode(a, b, bias *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	parents := []*Tensor{a, b}
	if bias != nil {
		parents = append(parents, bias)
	}
	out := child(a.Rows, b.Cols, parents...)
	var biasData []float32
	if bias != nil {
		biasData = bias.Data
	}
	fastMatmul(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols, false, false, biasData, false)
	out.back = func() {
		if a.requires {
			a.ensureGrad()
			// dA += dOut · Bᵀ (b stored k×n is already the packed panel
			// layout for the transposed operand).
			fastMatmul(a.Grad, out.Grad, b.Data, a.Rows, b.Cols, a.Cols, false, true, nil, true)
		}
		if b.requires {
			b.ensureGrad()
			// dB += Aᵀ · dOut
			fastMatmul(b.Grad, a.Data, out.Grad, a.Cols, a.Rows, b.Cols, true, false, nil, true)
		}
		if bias != nil && bias.requires {
			bias.ensureGrad()
			// dBias += column sums of dOut, rows in ascending order.
			n := out.Cols
			for i := 0; i < out.Rows; i++ {
				g := out.Grad[i*n : (i+1)*n]
				for j, gv := range g {
					bias.Grad[j] += gv
				}
			}
		}
	}
	return out
}

// Add returns a+b. b may be 1×cols (row broadcast).
func Add(a, b *Tensor) *Tensor {
	broadcast := b.Rows == 1 && a.Rows != 1
	if !broadcast && (a.Rows != b.Rows || a.Cols != b.Cols) {
		panic(fmt.Sprintf("tensor: add %dx%d + %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if broadcast && a.Cols != b.Cols {
		panic("tensor: broadcast add column mismatch")
	}
	out := child(a.Rows, a.Cols, a, b)
	if broadcast {
		for i := 0; i < a.Rows; i++ {
			row := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*a.Cols : (i+1)*a.Cols]
			for j, v := range row {
				orow[j] = v + b.Data[j]
			}
		}
	} else {
		for i, v := range a.Data {
			out.Data[i] = v + b.Data[i]
		}
	}
	out.back = func() {
		if a.requires {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g
			}
		}
		if b.requires {
			b.ensureGrad()
			if broadcast {
				for i := 0; i < a.Rows; i++ {
					g := out.Grad[i*a.Cols : (i+1)*a.Cols]
					for j, gv := range g {
						b.Grad[j] += gv
					}
				}
			} else {
				for i, g := range out.Grad {
					b.Grad[i] += g
				}
			}
		}
	}
	return out
}

// geluFwd is the scalar GELU (tanh approximation) shared by the training
// op and the grad-free inference path.
func geluFwd(x float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	u := c * (x + float32(0.044715*x*x*x))
	return 0.5 * x * (1 + ftanh32(u))
}

// geluBwd is d(gelu)/dx at x.
func geluBwd(x float32) float32 {
	const c = 0.7978845608028654
	u := c * (x + float32(0.044715*x*x*x))
	th := ftanh32(u)
	du := c * (1 + float32(3*0.044715*x*x))
	return float32(0.5*(1+th)) + float32(0.5*x*(1-float32(th*th))*du)
}

// GELU applies the Gaussian error linear unit elementwise (tanh
// approximation, as used by transformer implementations).
func GELU(a *Tensor) *Tensor {
	out := child(a.Rows, a.Cols, a)
	parallelRows(len(a.Data), 16, func(lo, hi int) {
		geluFwdSlice(out.Data[lo:hi], a.Data[lo:hi])
	})
	out.back = func() {
		if !a.requires {
			return
		}
		a.ensureGrad()
		parallelRows(len(a.Data), 16, func(lo, hi int) {
			geluBwdSlice(a.Grad[lo:hi], a.Data[lo:hi], out.Grad[lo:hi])
		})
	}
	return out
}

// LayerNorm normalizes each row to zero mean / unit variance then applies
// a learned elementwise affine (gamma, beta are 1×cols).
func LayerNorm(a, gamma, beta *Tensor, eps float64) *Tensor {
	if gamma.Cols != a.Cols || beta.Cols != a.Cols {
		panic("tensor: layernorm parameter shape mismatch")
	}
	out := child(a.Rows, a.Cols, a, gamma, beta)
	// xhat and the per-row inverse stddev are retained for backward and
	// reclaimed by Release.
	xhat := getF32(len(a.Data))
	invstd := getF32(a.Rows)
	out.scratch = func() { putF32(xhat); putF32(invstd) }
	parallelRows(a.Rows, a.Cols*8, func(lo, hi int) {
		lnForwardRange(out.Data, a.Data, gamma.Data, beta.Data, xhat, invstd, a.Cols, eps, lo, hi)
	})
	out.back = func() {
		// gamma/beta gradients accumulate across rows, so backward runs
		// serially (rows ascending) to keep one deterministic order.
		if gamma.requires {
			gamma.ensureGrad()
		}
		if beta.requires {
			beta.ensureGrad()
		}
		if a.requires {
			a.ensureGrad()
		}
		lnBackward(a.Grad, gamma.Grad, beta.Grad, out.Grad, gamma.Data, xhat, invstd, a.Rows, a.Cols,
			gamma.requires, beta.requires, a.requires)
	}
	return out
}

// Rows selects a subset of rows (gather). Used to pull CLS tokens out of
// the flattened token matrix.
func Rows(a *Tensor, idx []int) *Tensor {
	out := child(len(idx), a.Cols, a)
	for i, r := range idx {
		copy(out.Data[i*a.Cols:(i+1)*a.Cols], a.Data[r*a.Cols:(r+1)*a.Cols])
	}
	out.back = func() {
		if !a.requires {
			return
		}
		a.ensureGrad()
		for i, r := range idx {
			for j := 0; j < a.Cols; j++ {
				a.Grad[r*a.Cols+j] += out.Grad[i*a.Cols+j]
			}
		}
	}
	return out
}

// BCEWithLogits computes mean binary cross-entropy between logits (n×1)
// and labels, optionally weighting positives by posWeight. Returns a 1×1
// loss tensor. Loss internals are float64 (the loss is a scalar summary,
// not a kernel), rounded to float32 only at the output.
func BCEWithLogits(logits *Tensor, y []float64, posWeight float64) *Tensor {
	if logits.Cols != 1 || logits.Rows != len(y) {
		panic("tensor: BCE shape mismatch")
	}
	out := child(1, 1, logits)
	n := float64(len(y))
	total := 0.0
	probs := make([]float64, len(y))
	weights := make([]float64, len(y))
	for i, z := range logits.Data {
		p := 1 / (1 + math.Exp(-float64(z)))
		probs[i] = p
		w := 1.0
		if y[i] == 1 {
			w = posWeight
		}
		weights[i] = w
		// Numerically stable logloss.
		if y[i] == 1 {
			total += float64(-w * math.Log(math.Max(p, 1e-12)))
		} else {
			total += float64(-w * math.Log(math.Max(1-p, 1e-12)))
		}
	}
	out.Data[0] = float32(total / n)
	out.back = func() {
		if !logits.requires {
			return
		}
		logits.ensureGrad()
		for i := range y {
			logits.Grad[i] += float32(float64(out.Grad[0]) * weights[i] * (probs[i] - y[i]) / n)
		}
	}
	return out
}

// XavierInit fills the tensor with Xavier/Glorot uniform values.
func XavierInit(t *Tensor, rng *xrand.RNG) *Tensor {
	limit := math.Sqrt(6.0 / float64(t.Rows+t.Cols))
	for i := range t.Data {
		t.Data[i] = float32((float64(rng.Float64())*2 - 1) * limit)
	}
	return t
}

// NormalInit fills the tensor with N(0, std²) values.
func NormalInit(t *Tensor, std float64, rng *xrand.RNG) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}
