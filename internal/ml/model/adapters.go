package model

// Adapters wrapping the concrete predictor implementations into the
// Trainer/Model API. Each registers itself with a display order matching
// the paper's Table II rows (10..40) plus the repository's extensions.
// The adapters are deliberately thin: hyperparameters stay owned by the
// algorithm packages (DefaultParams), the adapter only threads the run
// seed through and packages the fitted artifact.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"memfp/internal/baseline"
	"memfp/internal/dataset"
	"memfp/internal/ml/forest"
	"memfp/internal/ml/ftt"
	"memfp/internal/ml/gbdt"
	"memfp/internal/ml/linear"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// Registered algorithm names. These double as Table II row labels, so
// they read like the paper's, not like package paths.
const (
	NameRiskyCE  = "Risky CE Pattern"
	NameForest   = "Random forest"
	NameGBDT     = "LightGBM"
	NameFTT      = "FT-Transformer"
	NameLogistic = "Logistic regression"
)

func init() {
	Register(Registration{Order: 10, Trainer: riskyTrainer{}, Unmarshal: unmarshalRisky})
	Register(Registration{Order: 20, Trainer: forestTrainer{}, Unmarshal: unmarshalForest})
	Register(Registration{Order: 30, Trainer: gbdtTrainer{}, Unmarshal: unmarshalGBDT})
	Register(Registration{Order: 40, Trainer: fttTrainer{}, Unmarshal: unmarshalFTT})
	Register(Registration{Order: 50, Trainer: logisticTrainer{}, Unmarshal: unmarshalLogistic})
}

// ---------------------------------------------------------------------------
// Risky CE Pattern (rule baseline, Purley-only)
// ---------------------------------------------------------------------------

type riskyTrainer struct{}

func (riskyTrainer) Name() string { return NameRiskyCE }
func (riskyTrainer) Applicable(id platform.ID) bool {
	return baseline.New().Applicable(id)
}

// Fit is instantaneous: the rules are fixed, not learned. The TrainSet is
// ignored, so the rule baseline works even where training data is
// degenerate.
func (riskyTrainer) Fit(ctx context.Context, ts TrainSet) (Model, error) {
	return &riskyModel{pred: baseline.New()}, nil
}

type riskyModel struct {
	pred *baseline.Predictor
}

func (m *riskyModel) Algo() string { return NameRiskyCE }

// ScoreBatch reads raw DIMM histories; rows without a resolvable log
// (nil Store, unknown DIMM) score 0.
func (m *riskyModel) ScoreBatch(b Batch) []float64 {
	out := make([]float64, b.Len())
	if b.Store == nil {
		return out
	}
	for i := range out {
		if l := b.Store.Get(b.DIMMs[i]); l != nil {
			out[i] = m.pred.Score(l, b.Times[i])
		}
	}
	return out
}

// FixedThreshold marks the scores as calibrated decisions: evaluation
// thresholds at 0.5 instead of tuning on validation data.
func (m *riskyModel) FixedThreshold() float64 { return 0.5 }

// ScoreLog scores one live DIMM history — the serving-layer path, where
// the caller holds the log directly instead of a Store.
func (m *riskyModel) ScoreLog(l *trace.DIMMLog, t trace.Minutes) float64 {
	return m.pred.Score(l, t)
}

func (m *riskyModel) MarshalBinary() ([]byte, error) {
	payload, err := json.Marshal(m.pred)
	if err != nil {
		return nil, err
	}
	return marshalEnvelope(NameRiskyCE, payload)
}

func unmarshalRisky(payload []byte) (Model, error) {
	var pred baseline.Predictor
	if err := json.Unmarshal(payload, &pred); err != nil {
		return nil, err
	}
	return &riskyModel{pred: &pred}, nil
}

// ---------------------------------------------------------------------------
// Random forest
// ---------------------------------------------------------------------------

type forestTrainer struct{}

func (forestTrainer) Name() string                  { return NameForest }
func (forestTrainer) Applicable(_ platform.ID) bool { return true }
func (forestTrainer) Fit(ctx context.Context, ts TrainSet) (Model, error) {
	if ts.Positives() == 0 {
		return nil, errNoPositives
	}
	p := forest.DefaultParams()
	p.Seed = ts.Seed
	fm, err := forest.Fit(ts.X, ts.Y, p)
	if err != nil {
		return nil, err
	}
	return &forestModel{m: fm}, nil
}

type forestModel struct {
	m *forest.Model
}

func (m *forestModel) Algo() string                 { return NameForest }
func (m *forestModel) ScoreBatch(b Batch) []float64 { return m.m.PredictBatch(b.X) }

func (m *forestModel) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.m.Encode(&buf); err != nil {
		return nil, err
	}
	return marshalEnvelope(NameForest, buf.Bytes())
}

func unmarshalForest(payload []byte) (Model, error) {
	fm, err := forest.Decode(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return &forestModel{m: fm}, nil
}

// ---------------------------------------------------------------------------
// LightGBM-style GBDT
// ---------------------------------------------------------------------------

type gbdtTrainer struct{}

func (gbdtTrainer) Name() string                  { return NameGBDT }
func (gbdtTrainer) Applicable(_ platform.ID) bool { return true }
func (gbdtTrainer) Fit(ctx context.Context, ts TrainSet) (Model, error) {
	if ts.Positives() == 0 {
		return nil, errNoPositives
	}
	p := gbdt.DefaultParams()
	p.Seed = ts.Seed
	gm, err := gbdt.Fit(ts.X, ts.Y, ts.XVal, ts.YVal, p)
	if err != nil {
		return nil, err
	}
	return &gbdtModel{m: gm}, nil
}

type gbdtModel struct {
	m *gbdt.Model
}

func (m *gbdtModel) Algo() string                 { return NameGBDT }
func (m *gbdtModel) ScoreBatch(b Batch) []float64 { return m.m.PredictBatch(b.X) }

func (m *gbdtModel) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.m.Encode(&buf); err != nil {
		return nil, err
	}
	return marshalEnvelope(NameGBDT, buf.Bytes())
}

func unmarshalGBDT(payload []byte) (Model, error) {
	gm, err := gbdt.Decode(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return &gbdtModel{m: gm}, nil
}

// ---------------------------------------------------------------------------
// FT-Transformer
// ---------------------------------------------------------------------------

type fttTrainer struct{}

func (fttTrainer) Name() string                  { return NameFTT }
func (fttTrainer) Applicable(_ platform.ID) bool { return true }

// Fit standardizes features on the full training set, then trains under
// ftt.Params' row cap (the set arrives pre-shuffled, so the capped
// prefix is an unbiased subsample). Both the scaler and the cap travel
// inside the artifact.
func (fttTrainer) Fit(ctx context.Context, ts TrainSet) (Model, error) {
	if ts.Positives() == 0 {
		return nil, errNoPositives
	}
	scaler := dataset.FitScalerX(ts.X)
	p := ftt.DefaultParams()
	p.Seed = ts.Seed
	fm := ftt.New(len(ts.X[0]), p)
	if err := fm.Fit(scaler.Transform(ts.X), ts.Y,
		scaler.Transform(ts.XVal), ts.YVal); err != nil {
		return nil, err
	}
	return &fttModel{m: fm, scaler: scaler}, nil
}

type fttModel struct {
	m      *ftt.Model
	scaler *dataset.Scaler
}

func (m *fttModel) Algo() string { return NameFTT }
func (m *fttModel) ScoreBatch(b Batch) []float64 {
	return m.m.PredictProba(m.scaler.Transform(b.X))
}

// fttPayload bundles the net with its input standardization (the scaler
// is part of the learned artifact: serving raw vectors without it would
// silently mis-scale every score).
type fttPayload struct {
	Scaler *dataset.Scaler `json:"scaler"`
	Net    json.RawMessage `json:"net"`
}

func (m *fttModel) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.m.Encode(&buf); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(fttPayload{Scaler: m.scaler, Net: bytes.TrimSpace(buf.Bytes())})
	if err != nil {
		return nil, err
	}
	return marshalEnvelope(NameFTT, payload)
}

func unmarshalFTT(payload []byte) (Model, error) {
	var in fttPayload
	if err := json.Unmarshal(payload, &in); err != nil {
		return nil, err
	}
	if in.Scaler == nil {
		return nil, fmt.Errorf("ftt payload missing scaler")
	}
	// Transform indexes the scaler by feature, so it must be as wide as the
	// net's input: a narrower one would panic on the first batch.
	var net struct{ NF int }
	if err := json.Unmarshal(in.Net, &net); err != nil {
		return nil, err
	}
	if len(in.Scaler.Mean) != net.NF || len(in.Scaler.Std) != net.NF {
		return nil, fmt.Errorf("ftt scaler covers %d/%d of %d features", len(in.Scaler.Mean), len(in.Scaler.Std), net.NF)
	}
	fm, err := ftt.Decode(bytes.NewReader(in.Net))
	if err != nil {
		return nil, err
	}
	return &fttModel{m: fm, scaler: in.Scaler}, nil
}

// ---------------------------------------------------------------------------
// Logistic regression (registry extension — the fifth row)
// ---------------------------------------------------------------------------

type logisticTrainer struct{}

func (logisticTrainer) Name() string                  { return NameLogistic }
func (logisticTrainer) Applicable(_ platform.ID) bool { return true }
func (logisticTrainer) Fit(ctx context.Context, ts TrainSet) (Model, error) {
	if ts.Positives() == 0 {
		return nil, errNoPositives
	}
	lm, err := linear.Fit(ts.X, ts.Y, linear.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &logisticModel{m: lm}, nil
}

type logisticModel struct {
	m *linear.Model
}

func (m *logisticModel) Algo() string                 { return NameLogistic }
func (m *logisticModel) ScoreBatch(b Batch) []float64 { return m.m.PredictBatch(b.X) }

func (m *logisticModel) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.m.Encode(&buf); err != nil {
		return nil, err
	}
	return marshalEnvelope(NameLogistic, buf.Bytes())
}

func unmarshalLogistic(payload []byte) (Model, error) {
	lm, err := linear.Decode(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return &logisticModel{m: lm}, nil
}
