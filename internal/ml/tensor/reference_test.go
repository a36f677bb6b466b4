package tensor

import "math"

// The naive reference kernels the oracle property tests hold the fast
// path to. They implement the exact same floating-point specification —
// one ascending float32 accumulation chain per output element, shared
// fexp32/ftanh32 nonlinearities — with none of the packing, register
// blocking or parallel scheduling, so fast and reference outputs must
// match bitwise. They live with the tests: no production call reaches
// them.

// refMatmul is the reference c (+)= op(a)·op(b) (+ bias): per-element
// strided gather, no packing, serial. Per the spec, bias seeds each
// element's chain (the fast kernels preload it into the accumulator).
func refMatmul(c, a, b []float32, m, k, n int, ta, tb bool, bias []float32, accum bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			if bias != nil {
				s = bias[j]
			}
			for p := 0; p < k; p++ {
				var av, bv float32
				if ta {
					av = a[p*m+i]
				} else {
					av = a[i*k+p]
				}
				if tb {
					bv = b[j*k+p]
				} else {
					bv = b[p*n+j]
				}
				s += float32(av * bv)
			}
			if accum {
				c[i*n+j] += s
			} else {
				c[i*n+j] = s
			}
		}
	}
}

// refAttnForward is the reference attention forward: per-element idx()
// addressing, serial over the whole batch, retaining probs when non-nil.
func refAttnForward(out, q, k, v []float32, batch, Tq, T, heads, dh, C int, scale float32, probs []float32) {
	var scratch []float32
	if probs == nil {
		scratch = make([]float32, T)
	}
	qidx := func(b, t, h, d int) int { return (b*Tq+t)*C + h*dh + d }
	kidx := func(b, t, h, d int) int { return (b*T+t)*C + h*dh + d }
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			for i := 0; i < Tq; i++ {
				a := scratch
				if probs != nil {
					a = probs[((b*heads+h)*Tq+i)*T : ((b*heads+h)*Tq+i+1)*T]
				}
				for j := 0; j < T; j++ {
					var s float32
					for d := 0; d < dh; d++ {
						s += float32(q[qidx(b, i, h, d)] * k[kidx(b, j, h, d)])
					}
					a[j] = s * scale
				}
				maxv := a[0]
				for j := 1; j < T; j++ {
					if a[j] > maxv {
						maxv = a[j]
					}
				}
				var sum float32
				for j := 0; j < T; j++ {
					e := fexp32(a[j] - maxv)
					a[j] = e
					sum += e
				}
				inv := 1 / sum
				for j := 0; j < T; j++ {
					a[j] *= inv
				}
				for d := 0; d < dh; d++ {
					var o float32
					for j := 0; j < T; j++ {
						o += float32(a[j] * v[kidx(b, j, h, d)])
					}
					out[qidx(b, i, h, d)] = o
				}
			}
		}
	}
}

// refAttnBackward is the reference attention backward: same pass order
// and per-element reduction order as attnBackwardRange, naive indexing,
// serial over the whole batch. Query-side rows (q, qG, outG) are batch×Tq,
// key/value rows batch×T, and probs is [Tq, T] per (b, h), as
// refAttnForward retains it.
func refAttnBackward(qG, kG, vG, outG, q, k, v, probs []float32, batch, Tq, T, heads, dh, C int, scale float32) {
	qidx := func(b, t, h, d int) int { return (b*Tq+t)*C + h*dh + d }
	kidx := func(b, t, h, d int) int { return (b*T+t)*C + h*dh + d }
	dS := make([]float32, Tq*T)
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			a := probs[(b*heads+h)*Tq*T : (b*heads+h+1)*Tq*T]
			for i := 0; i < Tq; i++ {
				for j := 0; j < T; j++ {
					var s float32
					for d := 0; d < dh; d++ {
						s += float32(outG[qidx(b, i, h, d)] * v[kidx(b, j, h, d)])
					}
					dS[i*T+j] = s
				}
			}
			if vG != nil {
				for i := 0; i < Tq; i++ {
					for j := 0; j < T; j++ {
						av := a[i*T+j]
						for d := 0; d < dh; d++ {
							vG[kidx(b, j, h, d)] += float32(av * outG[qidx(b, i, h, d)])
						}
					}
				}
			}
			for i := 0; i < Tq; i++ {
				var dot float32
				for j := 0; j < T; j++ {
					dot += float32(dS[i*T+j] * a[i*T+j])
				}
				for j := 0; j < T; j++ {
					dS[i*T+j] = a[i*T+j] * (dS[i*T+j] - dot) * scale
				}
			}
			for i := 0; i < Tq; i++ {
				if qG != nil {
					for j := 0; j < T; j++ {
						ds := dS[i*T+j]
						for d := 0; d < dh; d++ {
							qG[qidx(b, i, h, d)] += float32(ds * k[kidx(b, j, h, d)])
						}
					}
				}
				if kG != nil {
					for j := 0; j < T; j++ {
						ds := dS[i*T+j]
						for d := 0; d < dh; d++ {
							kG[kidx(b, j, h, d)] += float32(ds * q[qidx(b, i, h, d)])
						}
					}
				}
			}
		}
	}
}

// refLayerNormForward is the reference layernorm forward: identical
// per-row arithmetic to lnForwardRange, serial.
func refLayerNormForward(out, x, gamma, beta, xhat, invstd []float32, rows, cols int, eps float64) {
	nf := float32(cols)
	for i := 0; i < rows; i++ {
		var sum float32
		for j := 0; j < cols; j++ {
			sum += x[i*cols+j]
		}
		mu := sum / nf
		var va float32
		for j := 0; j < cols; j++ {
			d := x[i*cols+j] - mu
			va += float32(d * d)
		}
		va /= nf
		is := float32(1 / math.Sqrt(float64(va)+eps))
		invstd[i] = is
		for j := 0; j < cols; j++ {
			xh := (x[i*cols+j] - mu) * is
			xhat[i*cols+j] = xh
			out[i*cols+j] = float32(xh*gamma[j]) + beta[j]
		}
	}
}
