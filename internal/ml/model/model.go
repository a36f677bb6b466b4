// Package model defines the pluggable predictor API: a Trainer fits a
// Model from a TrainSet, a Model scores feature batches and serializes
// itself into a versioned, algorithm-tagged envelope, and a process-wide
// registry maps algorithm names to trainers and decoders.
//
// The registry is what makes the algorithm layer open: Table II rows,
// the transfer matrix, the MLOps training loop and the CLI all iterate
// All()/Get() instead of switching over a closed enum, so registering a
// new trainer here makes it appear end to end — comparison tables, the
// `memfp train -algo` command, registry-driven serving — with zero
// call-site edits.
//
// # Serialization
//
// Model.MarshalBinary returns a self-describing envelope (format tag,
// version, algorithm name, payload); Load reads the envelope and
// dispatches to the decoder registered for that algorithm. A reloaded
// model scores byte-identically to the original — the MLOps registry
// relies on this to persist artifacts across processes.
//
// # Adding a predictor
//
// Implement Trainer and Model, then register both with an Unmarshal
// function in an init():
//
//	func init() {
//		model.Register(model.Registration{
//			Order:     60,
//			Trainer:   myTrainer{},
//			Unmarshal: decodeMyModel,
//		})
//	}
//
// Rule-based predictors that emit calibrated 0/1 decisions (rather than
// probabilities needing a tuned threshold) additionally implement
// FixedThresholder; platform-specific ones restrict Applicable.
package model

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"memfp/internal/platform"
	"memfp/internal/trace"
)

// TrainSet is everything a trainer may consume: the (downsampled,
// shuffled) training matrix, a time-later validation partition for early
// stopping, the target platform, and the run seed.
type TrainSet struct {
	X [][]float64
	Y []int
	// XVal/YVal are the validation partition (early stopping, snapshot
	// selection). May be empty.
	XVal [][]float64
	YVal []int
	// Platform identifies the fleet the model will serve.
	Platform platform.ID
	// Seed drives every random choice a trainer makes.
	Seed uint64
}

// Positives counts label-1 training samples.
func (ts TrainSet) Positives() int {
	n := 0
	for _, y := range ts.Y {
		n += y
	}
	return n
}

// errNoPositives mirrors the historical experiment-layer error for
// degenerate training sets.
var errNoPositives = fmt.Errorf("no positive training samples (scale too small)")

// Batch is one scoring request. Feature-vector models read X; rule-based
// models read the raw per-DIMM histories through Store/DIMMs/Times. The
// slices are index-aligned.
type Batch struct {
	X     [][]float64
	DIMMs []trace.DIMMID
	Times []trace.Minutes
	// Store gives rule-based models the raw event logs. Optional: models
	// that need it score 0 for rows it cannot resolve.
	Store *trace.Store
}

// Len returns the batch row count.
func (b Batch) Len() int {
	if b.X != nil {
		return len(b.X)
	}
	return len(b.DIMMs)
}

// Trainer fits models for one algorithm.
type Trainer interface {
	// Name is the registry key and the human-readable row label
	// (Table II uses it verbatim).
	Name() string
	// Applicable reports whether the algorithm has prediction value on
	// the platform (the rule baseline is Purley-only, per the paper).
	Applicable(id platform.ID) bool
	// Fit trains a model. Implementations honor ts.Seed so a fit is
	// deterministic, and may check ctx between expensive phases.
	Fit(ctx context.Context, ts TrainSet) (Model, error)
}

// Model is a trained predictor.
type Model interface {
	// Algo returns the registered algorithm name this model was trained
	// by (the envelope tag).
	Algo() string
	// ScoreBatch returns one failure score per batch row.
	ScoreBatch(b Batch) []float64
	// MarshalBinary serializes the model into the registry envelope;
	// Load(bytes) reconstructs it with byte-identical scoring.
	MarshalBinary() ([]byte, error)
}

// FixedThresholder is implemented by models whose scores are calibrated
// decisions (e.g. rule engines emitting 0/1) rather than probabilities:
// evaluation applies the returned threshold directly instead of tuning
// one on validation data.
type FixedThresholder interface {
	FixedThreshold() float64
}

// LogScorer is implemented by models that score raw per-DIMM event
// histories rather than feature vectors (rule-based predictors). Serving
// layers holding a live DIMMLog use it instead of the vector path, which
// such models cannot serve.
type LogScorer interface {
	ScoreLog(l *trace.DIMMLog, t trace.Minutes) float64
}

// Registration binds a trainer to its decoder and display order.
type Registration struct {
	// Order sorts All(): the paper's Table II rows use 10..40, leaving
	// room before/between/after for extensions.
	Order int
	// Trainer fits models; its Name() is the registry key.
	Trainer Trainer
	// Unmarshal reconstructs a model from an envelope payload written by
	// the same algorithm's MarshalBinary.
	Unmarshal func(payload []byte) (Model, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Registration{}
)

// Register adds a trainer to the process-wide registry. It panics on a
// duplicate or unnamed registration — both are programmer errors.
func Register(r Registration) {
	if r.Trainer == nil || r.Trainer.Name() == "" {
		panic("model: Register needs a named trainer")
	}
	if r.Unmarshal == nil {
		panic(fmt.Sprintf("model: trainer %q registered without an Unmarshal", r.Trainer.Name()))
	}
	regMu.Lock()
	defer regMu.Unlock()
	name := r.Trainer.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("model: duplicate trainer %q", name))
	}
	registry[name] = r
}

// Get returns the trainer registered under name.
func Get(name string) (Trainer, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	if !ok {
		return nil, false
	}
	return r.Trainer, true
}

// All returns every registered trainer in display order.
func All() []Trainer {
	regMu.RLock()
	defer regMu.RUnlock()
	regs := make([]Registration, 0, len(registry))
	for _, r := range registry {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Order != regs[j].Order {
			return regs[i].Order < regs[j].Order
		}
		return regs[i].Trainer.Name() < regs[j].Trainer.Name()
	})
	out := make([]Trainer, len(regs))
	for i, r := range regs {
		out[i] = r.Trainer
	}
	return out
}

// Names returns every registered algorithm name in display order.
func Names() []string {
	ts := All()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name()
	}
	return out
}

// legacyAliases are the pre-registry CLI shorthands.
var legacyAliases = map[string]string{
	"riskyce":  NameRiskyCE,
	"forest":   NameForest,
	"lightgbm": NameGBDT,
	"ftt":      NameFTT,
}

// Resolve maps a user-facing algorithm name — exact registry name,
// case-insensitive registry name, or legacy CLI shorthand
// (riskyce|forest|lightgbm|ftt) — to its trainer. CLIs resolve flags
// through this so every entry point accepts the same spellings.
func Resolve(s string) (Trainer, error) {
	if name, ok := legacyAliases[strings.ToLower(s)]; ok {
		s = name
	}
	if t, ok := Get(s); ok {
		return t, nil
	}
	for _, name := range Names() {
		if strings.EqualFold(name, s) {
			t, _ := Get(name)
			return t, nil
		}
	}
	return nil, fmt.Errorf("model: unknown algorithm %q (registered: %v; legacy shorthands: riskyce|forest|lightgbm|ftt)", s, Names())
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

// envelopeFormat tags serialized models; envelopeVersion guards future
// layout changes.
const (
	envelopeFormat  = "memfp-model"
	envelopeVersion = 1
)

type envelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Algo    string `json:"algo"`
	Payload []byte `json:"payload"`
}

// marshalEnvelope wraps an algorithm payload in the registry envelope.
func marshalEnvelope(algo string, payload []byte) ([]byte, error) {
	return json.Marshal(envelope{
		Format: envelopeFormat, Version: envelopeVersion,
		Algo: algo, Payload: payload,
	})
}

// Load reconstructs a model of any registered type from envelope bytes
// written by its MarshalBinary.
func Load(data []byte) (Model, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("model: corrupt envelope: %w", err)
	}
	if env.Format != envelopeFormat {
		return nil, fmt.Errorf("model: not a model envelope (format %q, want %q)", env.Format, envelopeFormat)
	}
	if env.Version != envelopeVersion {
		return nil, fmt.Errorf("model: unsupported envelope version %d (this build reads %d)", env.Version, envelopeVersion)
	}
	regMu.RLock()
	r, ok := registry[env.Algo]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("model: unknown algorithm %q (registered: %v)", env.Algo, Names())
	}
	m, err := r.Unmarshal(env.Payload)
	if err != nil {
		return nil, fmt.Errorf("model: decode %s payload: %w", env.Algo, err)
	}
	return m, nil
}
