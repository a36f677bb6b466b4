package ftt

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"memfp/internal/features"
	"memfp/internal/xrand"
)

// randModel builds an untrained (randomly initialized) model over nf
// features plus a rows×nf feature matrix.
func randModel(nf, rows int) (*Model, [][]float64) {
	m := New(nf, DefaultParams())
	rng := xrand.New(3)
	X := make([][]float64, rows)
	for i := range X {
		X[i] = make([]float64, nf)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
	}
	return m, X
}

// TestInferMatchesForward pins the grad-free inference path (infer.go —
// arena scratch, CLS-only last layer) to the autodiff graph forward, bit
// for bit: both paths must share one kernel per op, so any divergence
// means the CLS truncation or an Into kernel broke the spec.
//
// The table crosses a small feature count with the one every workload
// serves (T = len(features.Names())+1, whose n%4 column tail the
// attention matmuls must finish in scalar code), and the live batch
// size with single rows and an odd multi-chunk size (256, 256, 5).
func TestInferMatchesForward(t *testing.T) {
	for _, nf := range []int{12, len(features.Names())} {
		for _, rows := range []int{1, 8, 517} {
			t.Run(fmt.Sprintf("nf%d/rows%d", nf, rows), func(t *testing.T) {
				m, X := randModel(nf, rows)
				var fast []float64
				for lo := 0; lo < len(X); lo += inferChunk {
					hi := lo + inferChunk
					if hi > len(X) {
						hi = len(X)
					}
					fast = m.inferLogits(X[lo:hi], fast)
				}
				graph := m.forward(X)
				if graph.Rows != len(X) || graph.Cols != 1 {
					t.Fatalf("graph forward returned %dx%d", graph.Rows, graph.Cols)
				}
				for i := range X {
					want := float64(graph.Data[i])
					if math.Float64bits(fast[i]) != math.Float64bits(want) {
						t.Fatalf("row %d: infer logit %v != graph logit %v", i, fast[i], want)
					}
				}
			})
		}
	}
}

// TestSerializeRoundTrip checks that Encode→Decode reproduces the exact
// scores (float32 weights serialize losslessly as JSON numbers).
func TestSerializeRoundTrip(t *testing.T) {
	m, X := randModel(12, 64)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	m2, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	a := m.PredictProba(X)
	b := m2.PredictProba(X)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("row %d: %v != %v after round trip", i, a[i], b[i])
		}
	}
}

// TestDecodeRejectsUnknownFormat guards the format gate.
func TestDecodeRejectsUnknownFormat(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString(`{"format":"bogus"}`)); err == nil {
		t.Fatal("decode accepted an unknown format")
	}
}

var benchSink []float64

// BenchmarkInferServingShape times grad-free scoring at the shape the
// benchmark workloads serve: every extracted feature, default
// hyperparameters, and the live and replay median batch sizes. The
// tensor kernels fan out at GOMAXPROCS, so run it with -cpu 1,2 to
// compare inline kernels against the default serving runs.
func BenchmarkInferServingShape(b *testing.B) {
	for _, batch := range []int{8, 512} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			m, X := randModel(len(features.Names()), batch)
			benchSink = m.PredictProba(X) // fill the arena and the pools
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = m.PredictProba(X)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "µs/row")
		})
	}
}
