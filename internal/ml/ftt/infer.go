package ftt

import (
	"sync"

	"memfp/internal/ml/tensor"
)

// Grad-free inference. This is the path the sharded serving engine hits
// every tick: no autodiff graph, no backward closures, no retained
// attention matrices — just the tensor package's kernels over an arena
// of scratch buffers reused across calls. Because training and inference
// share one kernel per op (and tokenizeInto shares the tokenizer's
// float32 expression), inferLogits is bit-identical to the graph
// forward; TestInferMatchesForward enforces that.
//
// The last transformer layer is evaluated for CLS queries only, as the
// training graph (Model.forward) builds it: the head reads nothing but
// each sequence's CLS row, attention is independent per query row, and
// every other op is rowwise, so truncating the final layer's query set
// to CLS is exact (same bits) while skipping T-1 of T query rows of its
// attention work and of its projection/FFN work. TestInferMatchesForward
// also holds the logits to the all-rows graph kept in the tests.

// inferChunk is the row chunk PredictProba and logloss score per arena
// pass (matches the training batch size, so serving and validation reuse
// the same pooled buffer size classes).
const inferChunk = 256

// inferScratch is one inference arena: every buffer inferLogits needs,
// sized for a row chunk, recycled through inferPool.
type inferScratch struct {
	h, n1, q, k, v, att []float32 // [chunk*T, d] activations
	ff                  []float32 // [chunk*T, d*FFNMult] FFN hidden
	c1, c2, c3          []float32 // [chunk, d] CLS-only last-layer rows
}

func ensureCap(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

func (s *inferScratch) ensure(n, T, d, fd int) {
	s.h = ensureCap(s.h, n*T*d)
	s.n1 = ensureCap(s.n1, n*T*d)
	s.q = ensureCap(s.q, n*T*d)
	s.k = ensureCap(s.k, n*T*d)
	s.v = ensureCap(s.v, n*T*d)
	s.att = ensureCap(s.att, n*T*d)
	s.ff = ensureCap(s.ff, n*T*fd)
	s.c1 = ensureCap(s.c1, n*d)
	s.c2 = ensureCap(s.c2, n*d)
	s.c3 = ensureCap(s.c3, n*d)
}

// inferPool recycles arenas; concurrent ScoreBatch callers each borrow
// their own.
type inferPool struct{ p sync.Pool }

func (ip *inferPool) get() *inferScratch {
	if s, ok := ip.p.Get().(*inferScratch); ok {
		return s
	}
	return &inferScratch{}
}

func (ip *inferPool) put(s *inferScratch) { ip.p.Put(s) }

// tokenizeInto writes the [batch*(nf+1), dim] token matrix into dst:
// the same float32 expression as the training tokenizer (value rounded
// once to float32, then one mul and one add per element).
func (m *Model) tokenizeInto(dst []float32, X [][]float64) {
	T := m.nf + 1
	d := m.p.Dim
	for b := range X {
		copy(dst[(b*T)*d:(b*T+1)*d], m.cls.Data)
		for f := 0; f < m.nf; f++ {
			row := dst[(b*T+1+f)*d : (b*T+2+f)*d]
			v := float32(X[b][f])
			w := m.wNum.Data[f*d : (f+1)*d]
			bb := m.bNum.Data[f*d : (f+1)*d]
			for j := range row {
				row[j] = float32(v*w[j]) + bb[j]
			}
		}
	}
}

// inferLogits appends the float64 logits for one row chunk to out,
// running the grad-free forward over a borrowed arena.
func (m *Model) inferLogits(X [][]float64, out []float64) []float64 {
	n := len(X)
	if n == 0 {
		return out
	}
	T := m.nf + 1
	d := m.p.Dim
	fd := d * m.p.FFNMult
	heads := m.p.Heads
	dh := d / heads
	rows := n * T

	s := m.scratch.get()
	s.ensure(n, T, d, fd)
	defer m.scratch.put(s)

	m.tokenizeInto(s.h, X)
	last := len(m.blocks) - 1
	for l, b := range m.blocks {
		tensor.LayerNormInto(s.n1, s.h, b.ln1g.Data, b.ln1b.Data, rows, d, 1e-5)
		if l == last {
			break // CLS-only epilogue below reuses this layernorm
		}
		tensor.LinearInto(s.q, s.n1, b.wq.Data, b.bq.Data, rows, d, d)
		tensor.LinearInto(s.k, s.n1, b.wk.Data, b.bk.Data, rows, d, d)
		tensor.LinearInto(s.v, s.n1, b.wv.Data, b.bv.Data, rows, d, d)
		tensor.AttentionInto(s.att, s.q, s.k, s.v, n, T, T, heads, dh)
		tensor.LinearInto(s.q, s.att, b.wo.Data, b.bo.Data, rows, d, d)
		tensor.AddInto(s.h, s.h, s.q)
		tensor.LayerNormInto(s.n1, s.h, b.ln2g.Data, b.ln2b.Data, rows, d, 1e-5)
		tensor.LinearInto(s.ff, s.n1, b.w1.Data, b.b1.Data, rows, d, fd)
		tensor.GELUInPlace(s.ff[:rows*fd])
		tensor.LinearInto(s.q, s.ff, b.w2.Data, b.b2.Data, rows, fd, d)
		tensor.AddInto(s.h, s.h, s.q)
	}

	// Last layer, CLS queries only (exact — see the file comment).
	if last >= 0 {
		b := m.blocks[last]
		tensor.LinearInto(s.k, s.n1, b.wk.Data, b.bk.Data, rows, d, d)
		tensor.LinearInto(s.v, s.n1, b.wv.Data, b.bv.Data, rows, d, d)
		for i := 0; i < n; i++ {
			copy(s.c1[i*d:(i+1)*d], s.n1[i*T*d:i*T*d+d])
		}
		tensor.LinearInto(s.c2, s.c1, b.wq.Data, b.bq.Data, n, d, d)
		tensor.AttentionInto(s.c3, s.c2, s.k, s.v, n, 1, T, heads, dh)
		tensor.LinearInto(s.c1, s.c3, b.wo.Data, b.bo.Data, n, d, d)
		for i := 0; i < n; i++ {
			hrow := s.h[i*T*d : i*T*d+d]
			arow := s.c1[i*d : (i+1)*d]
			crow := s.c2[i*d : (i+1)*d]
			for j, hv := range hrow {
				crow[j] = hv + arow[j]
			}
		}
		tensor.LayerNormInto(s.c3, s.c2, b.ln2g.Data, b.ln2b.Data, n, d, 1e-5)
		tensor.LinearInto(s.ff, s.c3, b.w1.Data, b.b1.Data, n, d, fd)
		tensor.GELUInPlace(s.ff[:n*fd])
		tensor.LinearInto(s.c1, s.ff, b.w2.Data, b.b2.Data, n, fd, d)
		tensor.AddInto(s.c2[:n*d], s.c2[:n*d], s.c1)
	} else {
		// No transformer blocks: the head reads the raw CLS token rows.
		for i := 0; i < n; i++ {
			copy(s.c2[i*d:(i+1)*d], s.h[i*T*d:i*T*d+d])
		}
	}

	tensor.LayerNormInto(s.c3, s.c2, m.lngF.Data, m.lnbF.Data, n, d, 1e-5)
	tensor.LinearInto(s.c1, s.c3, m.wHead.Data, m.bHead.Data, n, d, 1)
	for i := 0; i < n; i++ {
		out = append(out, float64(s.c1[i]))
	}
	return out
}
