// Package memfp is a from-scratch Go reproduction of "Investigating Memory
// Failure Prediction Across CPU Architectures" (DSN 2024): DRAM fault
// analysis and UE prediction across Intel Purley, Intel Whitley and ARM
// K920 platforms.
//
// The package exposes the end-to-end pipeline the paper describes:
//
//	fleet generation (synthetic stand-in for production BMC logs)
//	  → fault analysis (Table I, Figures 4-5)
//	  → feature extraction and labeling (§IV, §VI)
//	  → model training (Random Forest, LightGBM-style GBDT,
//	    FT-Transformer, Risky-CE-Pattern baseline)
//	  → windowed evaluation (precision / recall / F1 / VIRR, Table II)
//
// with an MLOps runtime (internal/mlops) mirroring Figure 6. Each
// experiment is deterministic for a given seed.
package memfp

import (
	"context"
	"fmt"

	"memfp/internal/dataset"
	"memfp/internal/faultsim"
	"memfp/internal/features"
	"memfp/internal/ml/model"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// Algo identifies a prediction algorithm by its registry name (see
// internal/ml/model). The value is the trainer's registered name; any
// registered trainer is a valid Algo with no changes here.
type Algo string

// Algos lists Table II's rows in order — every trainer in the predictor
// registry, so extensions (e.g. the logistic-regression row) appear
// without call-site changes.
func Algos() []Algo {
	names := model.Names()
	out := make([]Algo, len(names))
	for i, n := range names {
		out[i] = Algo(n)
	}
	return out
}

// Config parameterizes an experiment run. Everything else an experiment
// depends on is fixed: all three platforms, the dataset.TrainEndDay /
// ValEndDay split, negativeRatio, trainFocus and the §IV windows.
type Config struct {
	// Scale is the fleet-size multiplier relative to the paper's Table I
	// population (1.0 ≈ 90k DIMMs with CEs). Default 0.25.
	Scale float64
	// Seed drives every random choice. Default 42.
	Seed uint64
	// Workers bounds experiment-cell concurrency: 0 runs one worker per
	// CPU, 1 forces the sequential path. Results are identical either way.
	Workers int
	// Fleets overrides the fleet cache; nil uses the process-wide shared
	// cache, so every runner touching the same (platform, scale, seed)
	// generates the fleet exactly once.
	Fleets *pipeline.FleetCache
}

const (
	// negativeRatio is the training negatives-per-positive after
	// downsampling.
	negativeRatio = 4
	// trainFocus keeps only training positives this close to their UE
	// (interval-focused labeling per [29, 30]).
	trainFocus = 10 * trace.Day
)

// FleetCache returns the cache this run generates through.
func (c Config) FleetCache() *pipeline.FleetCache {
	if c.Fleets != nil {
		return c.Fleets
	}
	return pipeline.Shared
}

// generate fetches one platform's fleet through the configured cache. The
// Workers knob rides along to the parallel generator; it is not part of
// the cache key because the generated fleet is byte-identical for every
// worker count.
func (c Config) generate(ctx context.Context, id platform.ID) (*faultsim.Result, error) {
	return c.FleetCache().Get(ctx, faultsim.Config{
		Platform: id, Scale: c.Scale, Seed: c.Seed, Workers: c.Workers,
	})
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Fleet bundles one generated platform fleet with its extracted samples
// and split, ready for training and evaluation.
type Fleet struct {
	Platform *platform.Platform
	Result   *faultsim.Result
	Samples  []features.Sample
	Split    *dataset.Split
	// TrainDown is the downsampled, shuffled training partition.
	TrainDown *dataset.Dataset
}

// BuildFleet generates the fleet for one platform and prepares datasets.
// Generation goes through the configured FleetCache, so repeated builds at
// the same (platform, scale, seed) share one simulated fleet.
func BuildFleet(ctx context.Context, cfg Config, id platform.ID) (*Fleet, error) {
	cfg = cfg.withDefaults()
	res, err := cfg.generate(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("memfp: generate %s: %w", id, err)
	}
	samples := features.BuildAllWorkers(features.DefaultSamplerConfig(), res.Store, cfg.Workers)
	split, err := dataset.TimeSplit(dataset.FromSamples(samples),
		dataset.TrainEndDay*trace.Day, dataset.ValEndDay*trace.Day)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ 0x5eed)
	down := dataset.Downsample(dataset.FocusPositives(split.Train, trainFocus), negativeRatio, rng)
	dataset.Shuffle(down, rng)
	return &Fleet{
		Platform:  platform.MustGet(id),
		Result:    res,
		Samples:   samples,
		Split:     split,
		TrainDown: down,
	}, nil
}

// TrainSet assembles the model-layer training input for this fleet: the
// downsampled training partition, the validation partition, and the
// run's seed.
func (f *Fleet) TrainSet(cfg Config) model.TrainSet {
	return model.TrainSet{
		X: f.TrainDown.X, Y: f.TrainDown.Y,
		XVal: f.Split.Val.X, YVal: f.Split.Val.Y,
		Platform: f.Platform.ID, Seed: cfg.Seed,
	}
}

// batch wraps one split partition as a scoring batch, attaching the
// fleet's raw store so rule-based models can read event histories.
func (f *Fleet) batch(d *dataset.Dataset) model.Batch {
	return model.Batch{X: d.X, DIMMs: d.DIMMs, Times: d.Times, Store: f.Result.Store}
}
