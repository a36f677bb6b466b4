// Package linear implements L2-regularized logistic regression — the
// simplest calibrated baseline in the predictor registry, and the proof
// that a fifth algorithm drops into Table II, the CLI and the MLOps loop
// through one model.Register call.
//
// Training is deterministic by construction: features are standardized
// on the training set, weights start at zero, and full-batch gradient
// descent needs no RNG, so the fitted model depends only on the data.
package linear

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"memfp/internal/dataset"
)

// Params configures training.
type Params struct {
	Epochs    int     // full-batch gradient steps
	LR        float64 // learning rate on standardized features
	L2        float64 // ridge penalty on weights (not the bias)
	PosWeight float64 // positive-class loss weight (0 = auto, capped at 10)
}

// DefaultParams converges on the fleet datasets in a few hundred steps.
func DefaultParams() Params {
	return Params{Epochs: 300, LR: 0.5, L2: 1e-4}
}

// Model is a fitted classifier. The standardization is folded into the
// artifact so inference takes raw feature vectors.
type Model struct {
	W      []float64       `json:"w"`
	B      float64         `json:"b"`
	Scaler *dataset.Scaler `json:"scaler"`
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Fit trains on raw features X and 0/1 labels y.
func Fit(X [][]float64, y []int, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("linear: bad training set: %d rows, %d labels", len(X), len(y))
	}
	if p.Epochs <= 0 {
		return nil, fmt.Errorf("linear: Epochs must be positive, got %d", p.Epochs)
	}
	n, dim := len(X), len(X[0])
	pos := 0
	for _, v := range y {
		pos += v
	}
	if pos == 0 || pos == n {
		return nil, fmt.Errorf("linear: degenerate training labels (positives=%d of %d)", pos, n)
	}
	posW := p.PosWeight
	if posW <= 0 {
		posW = math.Min(10, float64(n-pos)/float64(pos))
	}

	m := &Model{W: make([]float64, dim), Scaler: dataset.FitScalerX(X)}

	// Standardize once; the descent loop then reads a dense matrix.
	Z := m.Scaler.Transform(X)

	grad := make([]float64, dim)
	for epoch := 0; epoch < p.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i, z := range Z {
			pred := sigmoid(m.dot(z))
			res := pred - float64(y[i])
			if y[i] == 1 {
				res *= posW
			}
			for j, v := range z {
				grad[j] += res * v
			}
			gb += res
		}
		inv := 1 / float64(n)
		for j := range m.W {
			m.W[j] -= p.LR * (grad[j]*inv + p.L2*m.W[j])
		}
		m.B -= p.LR * gb * inv
	}
	return m, nil
}

// dot scores an already-standardized vector.
func (m *Model) dot(z []float64) float64 {
	s := m.B
	for j, w := range m.W {
		s += w * z[j]
	}
	return s
}

// score standardizes and dots one raw sample without materializing the
// scaled copy. Each scaled value is rounded through an explicit float64
// temporary, so the sum is bit-identical to dot(Scaler.Transform(x)) —
// the serving stack's determinism invariant rides on that.
func (m *Model) score(x []float64) float64 {
	if len(m.Scaler.Mean) == 0 {
		return m.dot(x)
	}
	s := m.B
	for j, w := range m.W {
		z := (x[j] - m.Scaler.Mean[j]) / m.Scaler.Std[j]
		s += w * z
	}
	return s
}

// PredictBatch scores many samples. The hot serving path scores every due
// prediction of a tick through one call, so it avoids the per-row scaled
// copies Transform would allocate.
func (m *Model) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = sigmoid(m.score(x))
	}
	return out
}

const formatName = "memfp-linear-v1"

type modelJSON struct {
	Format string `json:"format"`
	Model
}

// Encode writes the model as JSON.
func (m *Model) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(modelJSON{Format: formatName, Model: *m})
}

// Decode loads a model written by Encode.
func Decode(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("linear: decode: %w", err)
	}
	if in.Format != formatName {
		return nil, fmt.Errorf("linear: unknown model format %q", in.Format)
	}
	if in.Scaler == nil || len(in.W) != len(in.Scaler.Mean) || len(in.W) != len(in.Scaler.Std) {
		return nil, fmt.Errorf("linear: inconsistent serialized dimensions")
	}
	m := in.Model
	return &m, nil
}
