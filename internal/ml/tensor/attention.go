package tensor

import (
	"fmt"
	"math"
)

// Attention is fused batched multi-head scaled-dot-product attention.
//
// Input q, k, v are flattened token matrices of shape [batch*T, H*dh]
// (heads concatenated along columns). For every batch element b and head
// h, it computes softmax(Q_bh·K_bhᵀ/√dh)·V_bh and writes the heads back
// side by side, returning [batch*T, H*dh]. Fusing the whole block keeps
// the autodiff engine strictly 2-D.
//
// The forward runs both contractions — Q·Kᵀ and probs·V — through the
// package's matmul kernel over per-head panels, with the row softmax
// streamed between them (attnForwardRange; AttentionInto shares it). The
// post-softmax probabilities are retained in one pooled buffer only when
// a parent requires gradients; the grad-free case reuses one pooled T×T
// block per worker instead (the serving path goes further and skips the
// graph entirely — see infer.go). The backward keeps its own
// memory-seeded chains and does not use the matmul kernel.
func Attention(q, k, v *Tensor, batch, T, heads int) *Tensor {
	if q.Rows != batch*T || k.Rows != batch*T || v.Rows != batch*T {
		panic(fmt.Sprintf("tensor: attention rows %d/%d/%d want %d", q.Rows, k.Rows, v.Rows, batch*T))
	}
	if q.Cols != k.Cols || q.Cols != v.Cols || q.Cols%heads != 0 {
		panic("tensor: attention column mismatch")
	}
	dh := q.Cols / heads
	C := q.Cols
	scale := float32(1 / math.Sqrt(float64(dh)))
	out := child(batch*T, C, q, k, v)

	var probs []float32
	if out.requires {
		probs = getF32(batch * heads * T * T)
		out.scratch = func() { putF32(probs) }
	}
	parallelRows(batch, heads*T*(T+2*dh), func(bLo, bHi int) {
		attnForwardRange(out.Data, q.Data, k.Data, v.Data, bLo, bHi, T, T, heads, dh, C, scale, probs)
	})

	out.back = func() {
		var qG, kG, vG []float32
		if q.requires {
			q.ensureGrad()
			qG = q.Grad
		}
		if k.requires {
			k.ensureGrad()
			kG = k.Grad
		}
		if v.requires {
			v.ensureGrad()
			vG = v.Grad
		}
		// Each batch element touches only its own gradient rows, so
		// batch-parallel backward is race-free and deterministic.
		parallelRows(batch, heads*T*(3*T+4*dh), func(bLo, bHi int) {
			attnBackwardRange(qG, kG, vG, out.Grad, q.Data, k.Data, v.Data, probs, bLo, bHi, T, heads, dh, C, scale)
		})
	}
	return out
}
