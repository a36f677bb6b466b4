package tensor

import (
	"fmt"
	"math"
)

// Attention is fused batched multi-head scaled-dot-product attention.
//
// Queries q are a flattened token matrix of shape [batch*Tq, H*dh] and
// keys/values k, v of shape [batch*T, H*dh] (heads concatenated along
// columns). For every batch element b and head h, it computes
// softmax(Q_bh·K_bhᵀ/√dh)·V_bh and writes the heads back side by side,
// returning [batch*Tq, H*dh]. Tq = T is ordinary self-attention; Tq < T
// attends a truncated query set against all T keys and values — the
// FT-Transformer's last layer passes only the CLS query (Tq = 1), which
// is exact for the CLS output because attention is independent per query
// row. Fusing the whole block keeps the autodiff engine strictly 2-D.
//
// The forward runs both contractions — Q·Kᵀ and probs·V — through the
// package's matmul kernel over per-head panels, with the row softmax
// streamed between them (attnForwardRange; AttentionInto shares it). The
// post-softmax probabilities ([Tq, T] per sequence and head) are retained
// in one pooled buffer only when a parent requires gradients; the
// grad-free case reuses one pooled Tq×T block per worker instead (the
// serving path goes further and skips the graph entirely — see
// infer.go). The backward keeps its own memory-seeded chains and does not
// use the matmul kernel.
func Attention(q, k, v *Tensor, batch, Tq, T, heads int) *Tensor {
	if q.Rows != batch*Tq || k.Rows != batch*T || v.Rows != batch*T || Tq < 1 || Tq > T {
		panic(fmt.Sprintf("tensor: attention rows %d/%d/%d for batch %d, Tq %d, T %d", q.Rows, k.Rows, v.Rows, batch, Tq, T))
	}
	if q.Cols != k.Cols || q.Cols != v.Cols || q.Cols%heads != 0 {
		panic("tensor: attention column mismatch")
	}
	dh := q.Cols / heads
	C := q.Cols
	scale := float32(1 / math.Sqrt(float64(dh)))
	out := child(batch*Tq, C, q, k, v)

	var probs []float32
	if out.requires {
		probs = getF32(batch * heads * Tq * T)
		out.scratch = func() { putF32(probs) }
	}
	parallelRows(batch, heads*Tq*(T+2*dh), func(bLo, bHi int) {
		attnForwardRange(out.Data, q.Data, k.Data, v.Data, bLo, bHi, Tq, T, heads, dh, C, scale, probs)
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
		parallelRows(batch, heads*Tq*(3*T+4*dh), func(bLo, bHi int) {
			attnBackwardRange(qG, kG, vG, out.Grad, q.Data, k.Data, v.Data, probs, bLo, bHi, Tq, T, heads, dh, C, scale)
		})
	}
	return out
}
