package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"memfp/internal/xrand"
)

// The oracle property tests pin the package's determinism contract: the
// fast kernels (tiled, register-blocked, SIMD on amd64, parallel) must
// produce the SAME BITS as the naive reference kernels in
// reference_test.go, for forward values and for gradients, at every
// worker count. Shapes are randomized and include odd tile remainders,
// T=1 and heads=1. The references are called directly on each op's
// inputs; no production code path can reach them.

func randFill(t *Tensor, rng *xrand.RNG) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func bitsOf(x []float32) []uint32 {
	out := make([]uint32, len(x))
	for i, v := range x {
		out[i] = math.Float32bits(v)
	}
	return out
}

func bitsEqual(t *testing.T, label string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs: %08x vs %08x (%g vs %g)",
				label, i, got[i], want[i],
				math.Float32frombits(got[i]), math.Float32frombits(want[i]))
		}
	}
}

// TestMatmulOracleBitwise drives the tiled matmul kernel over
// randomized shapes — including every ta/tb/bias/accum combination and
// dimensions that leave 16-, 4- and 1-wide tile remainders — and
// requires the fast kernel's output to match the reference bit for bit.
func TestMatmulOracleBitwise(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 17, 31, 32, 33, 48}
	rng := xrand.New(11)
	for trial := 0; trial < 300; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		ta := rng.Bool(0.5)
		tb := rng.Bool(0.5)
		accum := rng.Bool(0.5)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		cInit := make([]float32, m*n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		for i := range cInit {
			cInit[i] = float32(rng.NormFloat64())
		}
		var bias []float32
		if rng.Bool(0.5) {
			bias = make([]float32, n)
			for i := range bias {
				bias[i] = float32(rng.NormFloat64())
			}
		}
		cFast := append([]float32(nil), cInit...)
		cRef := append([]float32(nil), cInit...)
		fastMatmul(cFast, a, b, m, k, n, ta, tb, bias, accum)
		refMatmul(cRef, a, b, m, k, n, ta, tb, bias, accum)
		if got, want := bitsOf(cFast), bitsOf(cRef); true {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d (m=%d k=%d n=%d ta=%v tb=%v bias=%v accum=%v): element %d: %g vs %g",
						trial, m, k, n, ta, tb, bias != nil, accum, i,
						cFast[i], cRef[i])
				}
			}
		}
	}
}

// attnShape is one attention/layernorm graph configuration: batch·Tq
// query rows against batch·T key/value rows (Tq = T is self-attention).
type attnShape struct {
	batch, Tq, T, heads, dh int
}

// withProcs runs fn with GOMAXPROCS pinned to n — the worker count
// every kernel fan-out reads — and restores the previous setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// attnGraph is one forward+backward run of attention → layernorm →
// matmul(+bias) → GELU over fixed pseudo-random inputs.
type attnGraph struct {
	q, k, v, gamma, beta, w, bias *Tensor
	att, ln, out                  *Tensor
}

func runAttnGraph(s attnShape) *attnGraph {
	C := s.heads * s.dh
	rng := xrand.New(99)
	g := &attnGraph{}
	g.q = randFill(New(s.batch*s.Tq, C), rng).Param()
	g.k = randFill(New(s.batch*s.T, C), rng).Param()
	g.v = randFill(New(s.batch*s.T, C), rng).Param()
	g.gamma = randFill(New(1, C), rng).Param()
	g.beta = randFill(New(1, C), rng).Param()
	g.w = randFill(New(C, 5), rng).Param() // n=5 leaves a 1-wide tile tail
	g.bias = randFill(New(1, 5), rng).Param()

	g.att = Attention(g.q, g.k, g.v, s.batch, s.Tq, s.T, s.heads)
	g.ln = LayerNorm(g.att, g.gamma, g.beta, 1e-5)
	g.out = GELU(MatMulBias(g.ln, g.w, g.bias))
	sumAll(g.out).Backward()
	return g
}

// bits returns the bits of the output and of every parameter gradient.
func (g *attnGraph) bits() []uint32 {
	all := bitsOf(g.out.Data)
	for _, p := range []*Tensor{g.q, g.k, g.v, g.gamma, g.beta, g.w, g.bias} {
		all = append(all, bitsOf(p.Grad)...)
	}
	return all
}

// TestAttentionLayerNormOracleBitwise checks fast-vs-reference bitwise
// equality of the attention forward and backward and the layernorm
// forward over shapes that include T=1, heads=1, odd head dims and the
// CLS-only Tq = 1 form the FT-Transformer's last layer trains (at the
// served T = 50, the 12-feature T = 13, and the degenerate T = 1). Each
// reference runs on the op's real inputs from the fast graph, and the
// attention backward on the upstream gradient the fast graph delivered
// to it (layernorm, matmul and GELU backward sit between it and the
// loss). q, k and v feed only the attention, so their gradients are its
// backward's output alone.
func TestAttentionLayerNormOracleBitwise(t *testing.T) {
	shapes := []attnShape{
		{batch: 1, Tq: 1, T: 1, heads: 1, dh: 1},
		{batch: 2, Tq: 1, T: 1, heads: 2, dh: 3},
		{batch: 3, Tq: 5, T: 5, heads: 1, dh: 4},
		{batch: 2, Tq: 13, T: 13, heads: 2, dh: 8},
		{batch: 1, Tq: 7, T: 7, heads: 3, dh: 5},
		{batch: 4, Tq: 3, T: 3, heads: 4, dh: 2},
		{batch: 3, Tq: 1, T: 50, heads: 2, dh: 8},
		{batch: 2, Tq: 1, T: 13, heads: 2, dh: 8},
		{batch: 2, Tq: 1, T: 1, heads: 1, dh: 1},
	}
	for _, s := range shapes {
		g := runAttnGraph(s)
		rows, kvRows, C := s.batch*s.Tq, s.batch*s.T, s.heads*s.dh
		scale := float32(1 / math.Sqrt(float64(s.dh)))

		att := make([]float32, rows*C)
		probs := make([]float32, s.batch*s.heads*s.Tq*s.T)
		refAttnForward(att, g.q.Data, g.k.Data, g.v.Data, s.batch, s.Tq, s.T, s.heads, s.dh, C, scale, probs)
		bitsEqual(t, fmt.Sprintf("%+v attention forward", s), bitsOf(g.att.Data), bitsOf(att))

		qG, kG, vG := make([]float32, rows*C), make([]float32, kvRows*C), make([]float32, kvRows*C)
		refAttnBackward(qG, kG, vG, g.att.Grad, g.q.Data, g.k.Data, g.v.Data, probs, s.batch, s.Tq, s.T, s.heads, s.dh, C, scale)
		bitsEqual(t, fmt.Sprintf("%+v attention dq", s), bitsOf(g.q.Grad), bitsOf(qG))
		bitsEqual(t, fmt.Sprintf("%+v attention dk", s), bitsOf(g.k.Grad), bitsOf(kG))
		bitsEqual(t, fmt.Sprintf("%+v attention dv", s), bitsOf(g.v.Grad), bitsOf(vG))

		ln := make([]float32, rows*C)
		refLayerNormForward(ln, g.att.Data, g.gamma.Data, g.beta.Data, make([]float32, rows*C), make([]float32, rows), rows, C, 1e-5)
		bitsEqual(t, fmt.Sprintf("%+v layernorm forward", s), bitsOf(g.ln.Data), bitsOf(ln))
	}
}

// TestAttentionIntoOracleBitwise pins the grad-free attention entry
// point to the reference called directly, at the shapes that are served:
// T = 50 (49 features + CLS, whose two-column n%4 tail the score matmul
// finishes in scalar code), its CLS-only Tq = 1 last layer, the 12-feature
// test shape in both forms, and head dims below the SIMD width — at
// every pinned worker count.
func TestAttentionIntoOracleBitwise(t *testing.T) {
	shapes := []struct{ batch, Tq, T, heads, dh int }{
		{3, 50, 50, 2, 8},
		{3, 1, 50, 2, 8},
		{2, 13, 13, 2, 8},
		{2, 1, 13, 2, 8},
		{2, 3, 3, 4, 2},
		{2, 7, 7, 3, 5},
		{1, 1, 1, 1, 1},
	}
	for _, s := range shapes {
		C := s.heads * s.dh
		rng := xrand.New(41)
		q := randFill(New(s.batch*s.Tq, C), rng).Data
		k := randFill(New(s.batch*s.T, C), rng).Data
		v := randFill(New(s.batch*s.T, C), rng).Data
		want := make([]float32, s.batch*s.Tq*C)
		scale := float32(1 / math.Sqrt(float64(s.dh)))
		refAttnForward(want, q, k, v, s.batch, s.Tq, s.T, s.heads, s.dh, C, scale, nil)
		for _, w := range []int{1, 2, 8} {
			got := make([]float32, len(want))
			withProcs(w, func() { AttentionInto(got, q, k, v, s.batch, s.Tq, s.T, s.heads, s.dh) })
			bitsEqual(t, fmt.Sprintf("%+v workers %d", s, w), bitsOf(got), bitsOf(want))
		}
	}
}

// TestWorkerCountBitwise runs the same graphs — full self-attention at
// the served first layer's shape and the CLS-only Tq = 1 form at the
// training shape — at worker counts 1, 2 and 8 and requires identical
// bits everywhere: parallel chunking must never change an output
// element's accumulation chain. Each shape must cut its sequences into at
// least two attention chunks forward and backward, or the comparison
// would hold trivially. The par pool keeps at least 8 resident workers,
// so a count of 8 fans out even on a smaller box.
func TestWorkerCountBitwise(t *testing.T) {
	for _, s := range []attnShape{
		{batch: 8, Tq: 50, T: 50, heads: 2, dh: 8},
		{batch: 256, Tq: 1, T: 50, heads: 2, dh: 8},
	} {
		chunks := func(work int) int { c := chunkRows(work); return (s.batch + c - 1) / c }
		fwd, bwd := chunks(attnFwdWork(s.Tq, s.T, s.heads, s.dh)), chunks(attnBwdWork(s.Tq, s.T, s.heads, s.dh))
		if fwd < 2 || bwd < 2 {
			t.Fatalf("%+v: attention runs in %d chunks forward and %d backward; the shape must span at least two each way", s, fwd, bwd)
		}
		var base []uint32
		withProcs(1, func() { base = runAttnGraph(s).bits() })
		for _, w := range []int{2, 8} {
			var got []uint32
			withProcs(w, func() { got = runAttnGraph(s).bits() })
			bitsEqual(t, fmt.Sprintf("%+v workers %d", s, w), got, base)
		}
	}
}

// TestFexp4MatchesScalar pins the 4-lane transcendental helpers to the
// scalar spec functions, lane by lane and bit for bit, across normal,
// clamped, tiny and boundary inputs.
func TestFexp4MatchesScalar(t *testing.T) {
	inputs := []float32{
		0, 1, -1, 0.5, -0.5, 88, -103, 200, -200, 9, -9, 9.0001, -9.0001,
		1e-8, -1e-8, 3.14159, -2.71828, 42.5, -88.7, 13,
	}
	rng := xrand.New(5)
	for i := 0; i < 256; i++ {
		inputs = append(inputs, float32((float64(rng.Float64())-0.5)*260))
	}
	for i := 0; i+4 <= len(inputs); i += 4 {
		x0, x1, x2, x3 := inputs[i], inputs[i+1], inputs[i+2], inputs[i+3]
		e0, e1, e2, e3 := fexp4(x0, x1, x2, x3)
		for j, pair := range [][2]float32{{x0, e0}, {x1, e1}, {x2, e2}, {x3, e3}} {
			if want := fexp32(pair[0]); math.Float32bits(pair[1]) != math.Float32bits(want) {
				t.Errorf("fexp4 lane %d at %g: %g vs scalar %g", j, pair[0], pair[1], want)
			}
		}
		t0, t1, t2, t3 := ftanh4(x0, x1, x2, x3)
		for j, pair := range [][2]float32{{x0, t0}, {x1, t1}, {x2, t2}, {x3, t3}} {
			if want := ftanh32(pair[0]); math.Float32bits(pair[1]) != math.Float32bits(want) {
				t.Errorf("ftanh4 lane %d at %g: %g vs scalar %g", j, pair[0], pair[1], want)
			}
		}
	}
}

// TestFexpAccuracy bounds the frozen approximations against libm: the
// spec trades a few float32 ulps for determinism, not real accuracy.
func TestFexpAccuracy(t *testing.T) {
	rng := xrand.New(17)
	for i := 0; i < 4096; i++ {
		x := (float64(rng.Float64()) - 0.5) * 170
		got := float64(fexp32(float32(x)))
		want := math.Exp(float64(float32(x)))
		if want == 0 || math.IsInf(want, 0) {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 1e-5 {
			t.Fatalf("fexp32(%g): rel err %g", x, rel)
		}
	}
	for i := 0; i < 4096; i++ {
		x := (float64(rng.Float64()) - 0.5) * 24
		got := float64(ftanh32(float32(x)))
		want := math.Tanh(float64(float32(x)))
		if diff := math.Abs(got - want); diff > 1e-5 {
			t.Fatalf("ftanh32(%g): abs err %g", x, diff)
		}
	}
}

// TestGELUSliceMatchesScalar pins the 4-lane GELU slice helpers to the
// scalar geluFwd/geluBwd, including odd-length tails.
func TestGELUSliceMatchesScalar(t *testing.T) {
	rng := xrand.New(23)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 64, 65} {
		src := make([]float32, n)
		g := make([]float32, n)
		acc := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * 3)
			g[i] = float32(rng.NormFloat64())
			acc[i] = float32(rng.NormFloat64())
		}
		dst := make([]float32, n)
		geluFwdSlice(dst, src)
		for i := range src {
			if want := geluFwd(src[i]); math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("geluFwdSlice n=%d elem %d: %g vs %g", n, i, dst[i], want)
			}
		}
		accFast := append([]float32(nil), acc...)
		geluBwdSlice(accFast, src, g)
		for i := range src {
			want := acc[i] + float32(geluBwd(src[i])*g[i])
			if math.Float32bits(accFast[i]) != math.Float32bits(want) {
				t.Fatalf("geluBwdSlice n=%d elem %d: %g vs %g", n, i, accFast[i], want)
			}
		}
	}
}
