package tensor

import (
	"fmt"
	"math"
)

// Grad-free inference entry points. These are the same kernels the graph
// ops run — same floating-point specification, bit-identical outputs —
// exposed as plain slice-in/slice-out calls with no graph nodes, no
// backward closures and no retained state, for callers (the ftt serving
// fast path) that drive an arena of reused scratch buffers. They fan out
// at GOMAXPROCS like the graph ops: a call whose row count spans more
// than one parallelRows chunk borrows idle workers from internal/par's
// resident pool, from every shard goroutine at once; a call that fits
// one chunk (a live tick's handful of rows) runs inline.

// LinearInto writes dst = x·w (+ bias), where x is m×k, w is k×n and
// bias (optional) is length n. dst must have m*n capacity ahead of len
// semantics: exactly m*n elements are written.
func LinearInto(dst, x, w, bias []float32, m, k, n int) {
	if len(dst) < m*n || len(x) < m*k || len(w) < k*n {
		panic(fmt.Sprintf("tensor: LinearInto shape mismatch m=%d k=%d n=%d", m, k, n))
	}
	fastMatmul(dst, x, w, m, k, n, false, false, bias, false)
}

// LayerNormInto writes dst = layernorm(x)·gamma + beta over rows×cols.
// The normalization statistics are never stored.
func LayerNormInto(dst, x, gamma, beta []float32, rows, cols int, eps float64) {
	parallelRows(rows, cols*8, func(lo, hi int) {
		lnForwardRange(dst, x, gamma, beta, nil, nil, cols, eps, lo, hi)
	})
}

// GELUInPlace applies the scalar GELU used by the training op to every
// element of x.
func GELUInPlace(x []float32) {
	parallelRows(len(x), 16, func(lo, hi int) {
		geluFwdSlice(x[lo:hi], x[lo:hi])
	})
}

// AddInto writes dst[i] = a[i] + b[i] elementwise.
func AddInto(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// AttentionInto computes multi-head attention with q holding batch*Tq
// query rows against k, v holding batch*T key/value rows (all [·, H*dh]
// row-major with C = heads*dh columns). Tq < T is the truncated-query
// form Attention also takes: the FT-Transformer's last layer scores only
// each sequence's CLS query, which is exact for the CLS output rows
// because attention is independent per query row. out receives batch*Tq
// rows. Scores and the value reduction
// are two matmuls per (sequence, head) over gathered head panels — the
// same kernel LinearInto runs — with the row softmax streamed between
// them over a pooled Tq×T block; probabilities are not retained.
func AttentionInto(out, q, k, v []float32, batch, Tq, T, heads, dh int) {
	C := heads * dh
	if len(out) < batch*Tq*C || len(q) < batch*Tq*C || len(k) < batch*T*C || len(v) < batch*T*C {
		panic(fmt.Sprintf("tensor: AttentionInto shape mismatch batch=%d Tq=%d T=%d C=%d", batch, Tq, T, C))
	}
	scale := float32(1 / math.Sqrt(float64(dh)))
	parallelRows(batch, attnFwdWork(Tq, T, heads, dh), func(bLo, bHi int) {
		attnForwardRange(out, q, k, v, bLo, bHi, Tq, T, heads, dh, C, scale, nil)
	})
}
