// Package dataset turns labeled samples into train/validation/test design
// matrices with the time-ordered splitting, negative downsampling, and
// standardization used in the paper's experimental protocol (§VI).
package dataset

import (
	"fmt"
	"math"

	"memfp/internal/features"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// Dataset is a design matrix with aligned labels and sample provenance.
type Dataset struct {
	X     [][]float64
	Y     []int
	DIMMs []trace.DIMMID
	Times []trace.Minutes
	// Deltas holds each positive sample's time-to-UE (-1 for negatives),
	// used for interval-focused training-set construction.
	Deltas []trace.Minutes
	Names  []string
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Positives counts label-1 samples.
func (d *Dataset) Positives() int {
	n := 0
	for _, y := range d.Y {
		n += y
	}
	return n
}

// FromSamples assembles a Dataset from extracted samples.
func FromSamples(samples []features.Sample) *Dataset {
	d := &Dataset{Names: features.Names()}
	for _, s := range samples {
		d.X = append(d.X, s.X)
		d.Y = append(d.Y, int(s.Label))
		d.DIMMs = append(d.DIMMs, s.DIMM)
		d.Times = append(d.Times, s.Time)
		d.Deltas = append(d.Deltas, s.UEDelta)
	}
	return d
}

// Split holds the three time-ordered partitions.
type Split struct {
	Train, Val, Test *Dataset
	// TrainEnd/ValEnd are the time boundaries used.
	TrainEnd, ValEnd trace.Minutes
}

// TrainEndDay and ValEndDay are the boot split every program trains on,
// in days since the start of the collection window: training before day
// 150, validation up to day 180, test after.
const (
	TrainEndDay = 150
	ValEndDay   = 180
)

// TimeSplit partitions samples by prediction instant: train < trainEnd ≤
// val < valEnd ≤ test. Evaluating strictly later in time than training
// mirrors production deployment and avoids temporal leakage.
func TimeSplit(d *Dataset, trainEnd, valEnd trace.Minutes) (*Split, error) {
	if trainEnd >= valEnd {
		return nil, fmt.Errorf("dataset: trainEnd %v must precede valEnd %v", trainEnd, valEnd)
	}
	sp := &Split{
		Train: &Dataset{Names: d.Names}, Val: &Dataset{Names: d.Names}, Test: &Dataset{Names: d.Names},
		TrainEnd: trainEnd, ValEnd: valEnd,
	}
	for i := range d.Y {
		var dst *Dataset
		switch {
		case d.Times[i] < trainEnd:
			dst = sp.Train
		case d.Times[i] < valEnd:
			dst = sp.Val
		default:
			dst = sp.Test
		}
		dst.X = append(dst.X, d.X[i])
		dst.Y = append(dst.Y, d.Y[i])
		dst.DIMMs = append(dst.DIMMs, d.DIMMs[i])
		dst.Times = append(dst.Times, d.Times[i])
		dst.Deltas = append(dst.Deltas, d.Deltas[i])
	}
	return sp, nil
}

// Downsample keeps all positives and a ratio-bounded random subset of
// negatives (ratio = negatives kept per positive), the standard imbalance
// treatment in the memory-failure-prediction literature. It returns a new
// dataset; the input is unchanged.
func Downsample(d *Dataset, ratio float64, rng *xrand.RNG) *Dataset {
	pos := d.Positives()
	if pos == 0 {
		return d
	}
	maxNeg := int(math.Round(float64(pos) * ratio))
	negIdx := []int{}
	out := &Dataset{Names: d.Names}
	for i, y := range d.Y {
		if y == 1 {
			out.X = append(out.X, d.X[i])
			out.Y = append(out.Y, 1)
			out.DIMMs = append(out.DIMMs, d.DIMMs[i])
			out.Times = append(out.Times, d.Times[i])
			out.Deltas = append(out.Deltas, d.Deltas[i])
		} else {
			negIdx = append(negIdx, i)
		}
	}
	if len(negIdx) > maxNeg {
		rng.Shuffle(len(negIdx), func(i, j int) { negIdx[i], negIdx[j] = negIdx[j], negIdx[i] })
		negIdx = negIdx[:maxNeg]
	}
	for _, i := range negIdx {
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, 0)
		out.DIMMs = append(out.DIMMs, d.DIMMs[i])
		out.Times = append(out.Times, d.Times[i])
		out.Deltas = append(out.Deltas, d.Deltas[i])
	}
	return out
}

// Shuffle permutes the dataset in place.
func Shuffle(d *Dataset, rng *xrand.RNG) {
	rng.Shuffle(d.Len(), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
		d.DIMMs[i], d.DIMMs[j] = d.DIMMs[j], d.DIMMs[i]
		d.Times[i], d.Times[j] = d.Times[j], d.Times[i]
		d.Deltas[i], d.Deltas[j] = d.Deltas[j], d.Deltas[i]
	})
}

// Scaler standardizes features to zero mean / unit variance, fit on
// training data only.
type Scaler struct {
	Mean, Std []float64
}

// FitScalerX computes per-feature mean and standard deviation over a raw
// design matrix.
func FitScalerX(X [][]float64) *Scaler {
	if len(X) == 0 {
		return &Scaler{}
	}
	dim := len(X[0])
	s := &Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, x := range X {
		for j, v := range x {
			s.Mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, x := range X {
		for j, v := range x {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-9 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform returns standardized copies of the feature vectors.
func (s *Scaler) Transform(X [][]float64) [][]float64 {
	if len(s.Mean) == 0 {
		return X
	}
	out := make([][]float64, len(X))
	for i, x := range X {
		r := make([]float64, len(x))
		for j, v := range x {
			r[j] = (v - s.Mean[j]) / s.Std[j]
		}
		out[i] = r
	}
	return out
}

// FocusPositives returns a copy keeping negatives and only those positive
// samples within horizon of their UE. Positives further out carry little
// precursor signal (the fault has not begun degrading yet); excluding them
// from training sharpens the decision boundary, mirroring the
// interval-based labeling of Yu et al. [29, 30]. Evaluation sets must NOT
// be filtered this way.
func FocusPositives(d *Dataset, horizon trace.Minutes) *Dataset {
	out := &Dataset{Names: d.Names}
	for i, y := range d.Y {
		if y == 1 && d.Deltas[i] >= 0 && d.Deltas[i] > horizon {
			continue
		}
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, y)
		out.DIMMs = append(out.DIMMs, d.DIMMs[i])
		out.Times = append(out.Times, d.Times[i])
		out.Deltas = append(out.Deltas, d.Deltas[i])
	}
	return out
}
