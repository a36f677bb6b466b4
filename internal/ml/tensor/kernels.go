package tensor

import "math"

// Tiled float32 kernels. Every kernel obeys the package's floating-point
// specification (see the package comment): one ascending-order float32
// accumulation chain per output element, parallelism and register
// blocking only across elements. The 4-way unrolled bodies below never
// reassociate a chain — they interleave the SAME sequential adds of four
// independent chains (or four sequential adds to one memory-accumulated
// element, in the scatter loops) so the chains hide each other's
// latency. reference_test.go holds the naive mirrors the oracle tests
// compare against.

// packTranspose writes dst = srcᵀ where src is srcRows×srcCols row-major
// (so dst is srcCols×srcRows). A pure copy — no floating-point ops — so
// it cannot affect numerics.
func packTranspose(dst, src []float32, srcRows, srcCols int) {
	parallelRows(srcRows, srcCols, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := src[r*srcCols : (r+1)*srcCols]
			for c, v := range row {
				dst[c*srcRows+r] = v
			}
		}
	})
}

// fastMatmul computes c (+)= op(a)·op(b) (+ bias) for the linear layers,
// their gradients and the attention forward's two contractions. On amd64
// it routes through the SSE2 broadcast micro-kernel (mm_amd64.s);
// elsewhere — and for shapes the kernel doesn't cover — it uses the
// packed-panel Go kernel. Both produce the same bits: one ascending-p
// float32 chain per output element. op(a) is m×k and op(b) is k×n; when
// ta, a is stored k×m; when tb, b is stored n×k.
func fastMatmul(c, a, b []float32, m, k, n int, ta, tb bool, bias []float32, accum bool) {
	if asmMM && m > 0 && k > 0 && n >= 4 {
		fastMatmulBcast(c, a, b, m, k, n, ta, tb, bias, accum)
		return
	}
	aR := a
	if ta {
		// a stored k×m; pack to m×k.
		aR = getF32(m * k)
		packTranspose(aR, a, k, m)
		defer putF32(aR)
	}
	bT := b
	if !tb {
		// b stored k×n; pack to n×k so the p-loop is contiguous.
		bT = getF32(n * k)
		packTranspose(bT, b, k, n)
		defer putF32(bT)
	}
	parallelRows(m, k*n, func(lo, hi int) {
		mmBlocked(c, aR, bT, k, n, bias, accum, lo, hi)
	})
}

// fastMatmulBcast feeds the broadcast micro-kernel: op(a) packed to
// m×k row-major, op(b) to k×n row-major (the kernel broadcasts a[p] and
// streams b's rows), so the forward Linear layout needs no packing at
// all. Bias seeding and gradient accumulation happen inside the kernel,
// with the spec's rounding order.
func fastMatmulBcast(c, a, b []float32, m, k, n int, ta, tb bool, bias []float32, accum bool) {
	aR := a
	if ta {
		// a stored k×m; pack to m×k.
		aR = getF32(m * k)
		packTranspose(aR, a, k, m)
		defer putF32(aR)
	}
	bN := b
	if tb {
		// b stored n×k; pack to k×n.
		bN = getF32(k * n)
		packTranspose(bN, b, n, k)
		defer putF32(bN)
	}
	n4 := n &^ 3
	acc := 0
	if accum {
		acc = 1
	}
	parallelRows(m, k*n, func(lo, hi int) {
		mmRowsBcast(c[lo*n:hi*n], aR[lo*k:hi*k], bN, bias, k, n, hi-lo, acc)
		if n4 < n {
			// Scalar chains for the column tail the kernel skipped.
			for i := lo; i < hi; i++ {
				ai := aR[i*k : (i+1)*k]
				for j := n4; j < n; j++ {
					var s float32
					if bias != nil {
						s = bias[j]
					}
					for p, av := range ai {
						s += av * bN[p*n+j]
					}
					if accum {
						c[i*n+j] += s
					} else {
						c[i*n+j] = s
					}
				}
			}
		}
	})
}

// mmBlocked runs the register-blocked kernel over output rows [lo, hi):
// a 4×4 micro-tile of four row chains, each consuming panel entries in
// ascending p order.
func mmBlocked(c, aR, bT []float32, k, n int, bias []float32, accum bool, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := aR[(i+0)*k : (i+1)*k]
		a1 := aR[(i+1)*k : (i+2)*k]
		a2 := aR[(i+2)*k : (i+3)*k]
		a3 := aR[(i+3)*k : (i+4)*k]
		c0 := c[(i+0)*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		c2 := c[(i+2)*n : (i+3)*n]
		c3 := c[(i+3)*n : (i+4)*n]
		for j := 0; j < n; j++ {
			bj := bT[j*k : (j+1)*k]
			var s0, s1, s2, s3 float32
			if bias != nil {
				bb := bias[j]
				s0, s1, s2, s3 = bb, bb, bb, bb
			}
			p := 0
			for ; p+4 <= k; p += 4 {
				b0, b1, b2, b3 := bj[p], bj[p+1], bj[p+2], bj[p+3]
				s0 += float32(a0[p] * b0)
				s1 += float32(a1[p] * b0)
				s2 += float32(a2[p] * b0)
				s3 += float32(a3[p] * b0)
				s0 += float32(a0[p+1] * b1)
				s1 += float32(a1[p+1] * b1)
				s2 += float32(a2[p+1] * b1)
				s3 += float32(a3[p+1] * b1)
				s0 += float32(a0[p+2] * b2)
				s1 += float32(a1[p+2] * b2)
				s2 += float32(a2[p+2] * b2)
				s3 += float32(a3[p+2] * b2)
				s0 += float32(a0[p+3] * b3)
				s1 += float32(a1[p+3] * b3)
				s2 += float32(a2[p+3] * b3)
				s3 += float32(a3[p+3] * b3)
			}
			for ; p < k; p++ {
				bv := bj[p]
				s0 += float32(a0[p] * bv)
				s1 += float32(a1[p] * bv)
				s2 += float32(a2[p] * bv)
				s3 += float32(a3[p] * bv)
			}
			if accum {
				c0[j] += s0
				c1[j] += s1
				c2[j] += s2
				c3[j] += s3
			} else {
				c0[j] = s0
				c1[j] = s1
				c2[j] = s2
				c3[j] = s3
			}
		}
	}
	for ; i < hi; i++ {
		ai := aR[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := bT[j*k : (j+1)*k]
			var s float32
			if bias != nil {
				s = bias[j]
			}
			for p, bv := range bj {
				s += float32(ai[p] * bv)
			}
			if accum {
				ci[j] += s
			} else {
				ci[j] = s
			}
		}
	}
}

// dot4 advances four independent dot-product chains (one row against
// four others) over the full head dimension, each chain in ascending d
// order. With dot1/axpy4/axpy1 it serves attnBackwardRange only: the
// attention forward's contractions are matmuls.
func dot4(qi, k0, k1, k2, k3 []float32) (s0, s1, s2, s3 float32) {
	d := 0
	for ; d+4 <= len(qi); d += 4 {
		q0, q1, q2, q3 := qi[d], qi[d+1], qi[d+2], qi[d+3]
		s0 += float32(q0 * k0[d])
		s1 += float32(q0 * k1[d])
		s2 += float32(q0 * k2[d])
		s3 += float32(q0 * k3[d])
		s0 += float32(q1 * k0[d+1])
		s1 += float32(q1 * k1[d+1])
		s2 += float32(q1 * k2[d+1])
		s3 += float32(q1 * k3[d+1])
		s0 += float32(q2 * k0[d+2])
		s1 += float32(q2 * k1[d+2])
		s2 += float32(q2 * k2[d+2])
		s3 += float32(q2 * k3[d+2])
		s0 += float32(q3 * k0[d+3])
		s1 += float32(q3 * k1[d+3])
		s2 += float32(q3 * k2[d+3])
		s3 += float32(q3 * k3[d+3])
	}
	for ; d < len(qi); d++ {
		qd := qi[d]
		s0 += float32(qd * k0[d])
		s1 += float32(qd * k1[d])
		s2 += float32(qd * k2[d])
		s3 += float32(qd * k3[d])
	}
	return
}

// dot1 is a single dot-product chain in ascending d order.
func dot1(qi, kj []float32) float32 {
	var s float32
	for d, qd := range qi {
		s += float32(qd * kj[d])
	}
	return s
}

// axpy4 accumulates four weighted rows into dst: for each element d,
// dst[d] += w0·r0[d], then w1·r1[d], then w2·r2[d], then w3·r3[d] — the
// same per-element add order as four sequential axpy1 calls.
func axpy4(dst []float32, w0, w1, w2, w3 float32, r0, r1, r2, r3 []float32) {
	for d := range dst {
		s := dst[d]
		s += float32(w0 * r0[d])
		s += float32(w1 * r1[d])
		s += float32(w2 * r2[d])
		s += float32(w3 * r3[d])
		dst[d] = s
	}
}

// axpy1 accumulates one weighted row: dst[d] += w·r[d].
func axpy1(dst []float32, w float32, r []float32) {
	for d, rv := range r {
		dst[d] += float32(w * rv)
	}
}

// attnForwardRange computes attention outputs for batch elements
// [bLo, bHi). Both contractions are the package's one matmul: per
// (sequence, head) the head's strided q/k/v columns are gathered into
// contiguous pooled panels, S = Qh·Khᵀ and Oh = softmax(S·scale)·Vh run
// through fastMatmul with a nil bias — the same +0-seeded ascending
// chain per element the reference spells out — and Oh is scattered back
// into out's head columns. Only the row softmax between them is streamed
// here. Queries may be a truncated sequence (Tq < T — the FT-Transformer's
// last layer, trained and served, scores only the CLS query); keys/values
// always span T tokens. When
// probs is non-nil S is that (b, h) pair's Tq×T block of it, so the
// post-softmax rows are retained for backward; otherwise S is pooled
// scratch and nothing survives the call.
func attnForwardRange(out, q, k, v []float32, bLo, bHi, Tq, T, heads, dh, C int, scale float32, probs []float32) {
	nq, nk := Tq*dh, T*dh
	panels := getF32(2*nq + 2*nk)
	defer putF32(panels)
	qh, oh := panels[:nq], panels[nq:2*nq]
	kh, vh := panels[2*nq:2*nq+nk], panels[2*nq+nk:]
	var scratch []float32
	if probs == nil {
		scratch = getF32(Tq * T)
		defer putF32(scratch)
	}
	for b := bLo; b < bHi; b++ {
		for h := 0; h < heads; h++ {
			qbase := b*Tq*C + h*dh
			kbase := b*T*C + h*dh
			for i := 0; i < Tq; i++ {
				copy(qh[i*dh:(i+1)*dh], q[qbase+i*C:qbase+i*C+dh])
			}
			for j := 0; j < T; j++ {
				copy(kh[j*dh:(j+1)*dh], k[kbase+j*C:kbase+j*C+dh])
				copy(vh[j*dh:(j+1)*dh], v[kbase+j*C:kbase+j*C+dh])
			}
			s := scratch
			if probs != nil {
				s = probs[(b*heads+h)*Tq*T : (b*heads+h+1)*Tq*T]
			}
			// Scores: one chain per (i, j) element, d ascending.
			fastMatmul(s, qh, kh, Tq, dh, T, false, true, nil, false)
			for i := 0; i < Tq; i++ {
				softmaxRow(s[i*T:(i+1)*T], scale)
			}
			// Value reduction: out[i,d] accumulates j ascending.
			fastMatmul(oh, s, vh, Tq, T, dh, false, false, nil, false)
			for i := 0; i < Tq; i++ {
				copy(out[qbase+i*C:qbase+i*C+dh], oh[i*dh:(i+1)*dh])
			}
		}
	}
}

// softmaxRow turns one row of raw scores into probabilities in place:
// scale, subtract the row max, exponentiate through the frozen
// fexp32/fexp4, normalize by one reciprocal. The sum chain stays j
// ascending.
func softmaxRow(a []float32, scale float32) {
	for j := range a {
		a[j] *= scale
	}
	maxv := a[0]
	for _, s := range a[1:] {
		if s > maxv {
			maxv = s
		}
	}
	var sum float32
	j := 0
	for ; j+4 <= len(a); j += 4 {
		e0, e1, e2, e3 := fexp4(a[j]-maxv, a[j+1]-maxv, a[j+2]-maxv, a[j+3]-maxv)
		a[j], a[j+1], a[j+2], a[j+3] = e0, e1, e2, e3
		sum += e0
		sum += e1
		sum += e2
		sum += e3
	}
	for ; j < len(a); j++ {
		e := fexp32(a[j] - maxv)
		a[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range a {
		a[j] *= inv
	}
}

// attnBackwardRange accumulates attention gradients for batch elements
// [bLo, bHi), reading the retained post-softmax probs ([Tq, T] per
// sequence and head). Query-side rows (q, qG, outG) are indexed by b·Tq,
// key/value rows (k, kG, v, vG) by b·T. Gradient rows belong to this
// chunk's batch elements only, so chunk-parallel calls are race-free;
// within a (b, h) pair the pass order (dA, dV, softmax backward, dQ, dK)
// and each element's ascending reduction order are fixed.
func attnBackwardRange(qG, kG, vG, outG, q, k, v, probs []float32, bLo, bHi, Tq, T, heads, dh, C int, scale float32) {
	dS := getF32(Tq * T)
	defer putF32(dS)
	for b := bLo; b < bHi; b++ {
		for h := 0; h < heads; h++ {
			qbase := b*Tq*C + h*dh
			kbase := b*T*C + h*dh
			a := probs[(b*heads+h)*Tq*T : (b*heads+h+1)*Tq*T]
			// dA[i,j] = Σ_d g[i,d]·v[j,d], four value rows at a time.
			for i := 0; i < Tq; i++ {
				gi := outG[qbase+i*C : qbase+i*C+dh]
				dAi := dS[i*T : (i+1)*T]
				j := 0
				for ; j+4 <= T; j += 4 {
					s0, s1, s2, s3 := dot4(gi,
						v[kbase+(j+0)*C:kbase+(j+0)*C+dh],
						v[kbase+(j+1)*C:kbase+(j+1)*C+dh],
						v[kbase+(j+2)*C:kbase+(j+2)*C+dh],
						v[kbase+(j+3)*C:kbase+(j+3)*C+dh])
					dAi[j+0] = s0
					dAi[j+1] = s1
					dAi[j+2] = s2
					dAi[j+3] = s3
				}
				for ; j < T; j++ {
					dAi[j] = dot1(gi, v[kbase+j*C:kbase+j*C+dh])
				}
			}
			// dV[j,d] += Σ_i a[i,j]·g[i,d], i ascending (four query rows
			// per pass: axpy4's add order keeps i0<i1<i2<i3 per element).
			if vG != nil {
				i := 0
				for ; i+4 <= Tq; i += 4 {
					g0 := outG[qbase+(i+0)*C : qbase+(i+0)*C+dh]
					g1 := outG[qbase+(i+1)*C : qbase+(i+1)*C+dh]
					g2 := outG[qbase+(i+2)*C : qbase+(i+2)*C+dh]
					g3 := outG[qbase+(i+3)*C : qbase+(i+3)*C+dh]
					for j := 0; j < T; j++ {
						axpy4(vG[kbase+j*C:kbase+j*C+dh],
							a[(i+0)*T+j], a[(i+1)*T+j], a[(i+2)*T+j], a[(i+3)*T+j],
							g0, g1, g2, g3)
					}
				}
				for ; i < Tq; i++ {
					gi := outG[qbase+i*C : qbase+i*C+dh]
					for j := 0; j < T; j++ {
						axpy1(vG[kbase+j*C:kbase+j*C+dh], a[i*T+j], gi)
					}
				}
			}
			// Softmax backward in place: dS = A ⊙ (dA − rowdot(dA, A)) · scale.
			for i := 0; i < Tq; i++ {
				dAi := dS[i*T : (i+1)*T]
				ai := a[i*T : (i+1)*T]
				var dot float32
				for j, da := range dAi {
					dot += float32(da * ai[j])
				}
				for j, da := range dAi {
					dAi[j] = ai[j] * (da - dot) * scale
				}
			}
			// dQ[i,d] += Σ_j dS[i,j]·k[j,d], j ascending per query row.
			if qG != nil {
				for i := 0; i < Tq; i++ {
					dSi := dS[i*T : (i+1)*T]
					qgi := qG[qbase+i*C : qbase+i*C+dh]
					j := 0
					for ; j+4 <= T; j += 4 {
						axpy4(qgi, dSi[j], dSi[j+1], dSi[j+2], dSi[j+3],
							k[kbase+(j+0)*C:kbase+(j+0)*C+dh],
							k[kbase+(j+1)*C:kbase+(j+1)*C+dh],
							k[kbase+(j+2)*C:kbase+(j+2)*C+dh],
							k[kbase+(j+3)*C:kbase+(j+3)*C+dh])
					}
					for ; j < T; j++ {
						axpy1(qgi, dSi[j], k[kbase+j*C:kbase+j*C+dh])
					}
				}
			}
			// dK[j,d] += Σ_i dS[i,j]·q[i,d], i ascending per key row.
			if kG != nil {
				i := 0
				for ; i+4 <= Tq; i += 4 {
					q0 := q[qbase+(i+0)*C : qbase+(i+0)*C+dh]
					q1 := q[qbase+(i+1)*C : qbase+(i+1)*C+dh]
					q2 := q[qbase+(i+2)*C : qbase+(i+2)*C+dh]
					q3 := q[qbase+(i+3)*C : qbase+(i+3)*C+dh]
					for j := 0; j < T; j++ {
						axpy4(kG[kbase+j*C:kbase+j*C+dh],
							dS[(i+0)*T+j], dS[(i+1)*T+j], dS[(i+2)*T+j], dS[(i+3)*T+j],
							q0, q1, q2, q3)
					}
				}
				for ; i < Tq; i++ {
					qi := q[qbase+i*C : qbase+i*C+dh]
					for j := 0; j < T; j++ {
						axpy1(kG[kbase+j*C:kbase+j*C+dh], dS[i*T+j], qi)
					}
				}
			}
		}
	}
}

// lnForwardRange normalizes rows [lo, hi): per-row mean/variance as
// single float32 chains (j ascending), inverse stddev through float64
// sqrt rounded once, then the affine transform. Four rows at a time so
// the per-row chains overlap. xhat and invstd are retained for backward;
// the grad-free path passes both nil and only out is written (the out
// expression does not read them, so its bits are the same either way).
func lnForwardRange(out, x, gamma, beta, xhat, invstd []float32, cols int, eps float64, lo, hi int) {
	nf := float32(cols)
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := x[(i+0)*cols : (i+1)*cols]
		r1 := x[(i+1)*cols : (i+2)*cols]
		r2 := x[(i+2)*cols : (i+3)*cols]
		r3 := x[(i+3)*cols : (i+4)*cols]
		var u0, u1, u2, u3 float32
		for j := range r0 {
			u0 += r0[j]
			u1 += r1[j]
			u2 += r2[j]
			u3 += r3[j]
		}
		m0, m1, m2, m3 := u0/nf, u1/nf, u2/nf, u3/nf
		var v0, v1, v2, v3 float32
		for j := range r0 {
			d0 := r0[j] - m0
			d1 := r1[j] - m1
			d2 := r2[j] - m2
			d3 := r3[j] - m3
			v0 += float32(d0 * d0)
			v1 += float32(d1 * d1)
			v2 += float32(d2 * d2)
			v3 += float32(d3 * d3)
		}
		s0 := float32(1 / math.Sqrt(float64(v0/nf)+eps))
		s1 := float32(1 / math.Sqrt(float64(v1/nf)+eps))
		s2 := float32(1 / math.Sqrt(float64(v2/nf)+eps))
		s3 := float32(1 / math.Sqrt(float64(v3/nf)+eps))
		var x0, x1, x2, x3 []float32
		if xhat != nil {
			invstd[i+0] = s0
			invstd[i+1] = s1
			invstd[i+2] = s2
			invstd[i+3] = s3
			x0 = xhat[(i+0)*cols : (i+1)*cols]
			x1 = xhat[(i+1)*cols : (i+2)*cols]
			x2 = xhat[(i+2)*cols : (i+3)*cols]
			x3 = xhat[(i+3)*cols : (i+4)*cols]
		}
		o0 := out[(i+0)*cols : (i+1)*cols]
		o1 := out[(i+1)*cols : (i+2)*cols]
		o2 := out[(i+2)*cols : (i+3)*cols]
		o3 := out[(i+3)*cols : (i+4)*cols]
		for j := range r0 {
			g, bt := gamma[j], beta[j]
			h0 := (r0[j] - m0) * s0
			h1 := (r1[j] - m1) * s1
			h2 := (r2[j] - m2) * s2
			h3 := (r3[j] - m3) * s3
			if xhat != nil {
				x0[j] = h0
				x1[j] = h1
				x2[j] = h2
				x3[j] = h3
			}
			o0[j] = float32(h0*g) + bt
			o1[j] = float32(h1*g) + bt
			o2[j] = float32(h2*g) + bt
			o3[j] = float32(h3*g) + bt
		}
	}
	for ; i < hi; i++ {
		row := x[i*cols : (i+1)*cols]
		var sum float32
		for _, v := range row {
			sum += v
		}
		mu := sum / nf
		var va float32
		for _, v := range row {
			d := v - mu
			va += float32(d * d)
		}
		va /= nf
		is := float32(1 / math.Sqrt(float64(va)+eps))
		var xrow []float32
		if xhat != nil {
			invstd[i] = is
			xrow = xhat[i*cols : (i+1)*cols]
		}
		orow := out[i*cols : (i+1)*cols]
		for j, v := range row {
			xh := (v - mu) * is
			if xhat != nil {
				xrow[j] = xh
			}
			orow[j] = float32(xh*gamma[j]) + beta[j]
		}
	}
}

// lnBackward accumulates layernorm gradients, rows ascending (serial:
// gamma/beta sum across rows). Being serial it has no reference mirror:
// only the forward is scheduled in parallel, and the oracle tests hold
// that to refLayerNormForward.
func lnBackward(aG, gammaG, betaG, outG, gamma, xhat, invstd []float32, rows, cols int,
	needGamma, needBeta, needA bool) {
	nf := float32(cols)
	for i := 0; i < rows; i++ {
		base := i * cols
		g := outG[base : base+cols]
		xrow := xhat[base : base+cols]
		if needGamma {
			for j, gv := range g {
				gammaG[j] += float32(gv * xrow[j])
			}
		}
		if needBeta {
			for j, gv := range g {
				betaG[j] += gv
			}
		}
		if needA {
			var sumDy, sumDyXhat float32
			for j, gv := range g {
				dy := float32(gv * gamma[j])
				sumDy += dy
				sumDyXhat += float32(dy * xrow[j])
			}
			t1 := sumDy / nf
			t2 := sumDyXhat / nf
			is := invstd[i]
			for j, gv := range g {
				dy := float32(gv * gamma[j])
				aG[base+j] += float32(is * ((dy - t1) - float32(xrow[j]*t2)))
			}
		}
	}
}

// geluFwdSlice applies geluFwd elementwise, four lanes at a time (each
// lane performs geluFwd's exact operation sequence).
func geluFwdSlice(dst, src []float32) {
	const c = 0.7978845608028654
	i := 0
	for ; i+4 <= len(src); i += 4 {
		x0, x1, x2, x3 := src[i], src[i+1], src[i+2], src[i+3]
		u0 := c * (x0 + float32(0.044715*x0*x0*x0))
		u1 := c * (x1 + float32(0.044715*x1*x1*x1))
		u2 := c * (x2 + float32(0.044715*x2*x2*x2))
		u3 := c * (x3 + float32(0.044715*x3*x3*x3))
		t0, t1, t2, t3 := ftanh4(u0, u1, u2, u3)
		dst[i+0] = 0.5 * x0 * (1 + t0)
		dst[i+1] = 0.5 * x1 * (1 + t1)
		dst[i+2] = 0.5 * x2 * (1 + t2)
		dst[i+3] = 0.5 * x3 * (1 + t3)
	}
	for ; i < len(src); i++ {
		dst[i] = geluFwd(src[i])
	}
}

// geluBwdSlice accumulates dst[i] += geluBwd(src[i])·g[i], four lanes at
// a time.
func geluBwdSlice(dst, src, g []float32) {
	const c = 0.7978845608028654
	i := 0
	for ; i+4 <= len(src); i += 4 {
		x0, x1, x2, x3 := src[i], src[i+1], src[i+2], src[i+3]
		u0 := c * (x0 + float32(0.044715*x0*x0*x0))
		u1 := c * (x1 + float32(0.044715*x1*x1*x1))
		u2 := c * (x2 + float32(0.044715*x2*x2*x2))
		u3 := c * (x3 + float32(0.044715*x3*x3*x3))
		t0, t1, t2, t3 := ftanh4(u0, u1, u2, u3)
		d0 := float32(0.5*(1+t0)) + float32(0.5*x0*(1-float32(t0*t0))*(c*(1+float32(3*0.044715*x0*x0))))
		d1 := float32(0.5*(1+t1)) + float32(0.5*x1*(1-float32(t1*t1))*(c*(1+float32(3*0.044715*x1*x1))))
		d2 := float32(0.5*(1+t2)) + float32(0.5*x2*(1-float32(t2*t2))*(c*(1+float32(3*0.044715*x2*x2))))
		d3 := float32(0.5*(1+t3)) + float32(0.5*x3*(1-float32(t3*t3))*(c*(1+float32(3*0.044715*x3*x3))))
		dst[i+0] += float32(d0 * g[i+0])
		dst[i+1] += float32(d1 * g[i+1])
		dst[i+2] += float32(d2 * g[i+2])
		dst[i+3] += float32(d3 * g[i+3])
	}
	for ; i < len(src); i++ {
		dst[i] += float32(geluBwd(src[i]) * g[i])
	}
}
