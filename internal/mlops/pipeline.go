package mlops

import (
	"context"
	"fmt"

	"memfp/internal/dataset"
	"memfp/internal/eval"
	"memfp/internal/features"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// Pipeline wires the Figure 6 stages together for one platform: data
// pipeline (a trace.Store standing in for the data lake), feature store,
// model training, CI/CD gate, registry, online serving, and monitoring.
type Pipeline struct {
	Platform platform.ID
	Features *FeatureStore
	Registry *Registry
	Monitor  *Monitor
	// ModelName is the registry key for this platform's predictor.
	ModelName string
	// TrainerName selects the predictor from the model registry; the
	// mlops loop ships whichever registered algorithm it names.
	TrainerName string
	Seed        uint64
	// Shards is the serving engine's shard count (<= 0: one per CPU).
	// Any value produces the identical alarm stream; it only sets the
	// ingestion fan-out.
	Shards int
	// MemoryBudget bounds the serving engine's resident state in bytes
	// (0 = unbounded); see Server.MemoryBudget. Alarms are unchanged.
	MemoryBudget int64
}

// NewPipeline assembles a pipeline with defaults (LightGBM, the paper's
// best performer, as the trainer).
func NewPipeline(pf platform.ID) *Pipeline {
	return &Pipeline{
		Platform:    pf,
		Features:    NewFeatureStore(),
		Registry:    NewRegistry(),
		Monitor:     NewMonitor(),
		ModelName:   fmt.Sprintf("memfp-%s", pf),
		TrainerName: model.NameGBDT,
		Seed:        1,
	}
}

// negativeRatio is the negatives kept per positive when the training split
// is downsampled.
const negativeRatio = 4

// TrainResult reports one training cycle.
type TrainResult struct {
	Version   *ModelVersion
	Promoted  bool
	Reason    string
	Benchmark eval.Metrics
}

// TrainAndMaybePromote runs one CI/CD cycle: batch-transform the training
// store, fit a model through the registered trainer, benchmark it on the
// held-out tail, register the serialized artifact, and run the promotion
// gate.
//
// trainEnd/valEnd split the store's time range exactly like the offline
// experiments; the validation tail doubles as the CI benchmark.
func (p *Pipeline) TrainAndMaybePromote(store *trace.Store, trainEnd, valEnd trace.Minutes) (*TrainResult, error) {
	trainer, ok := model.Get(p.TrainerName)
	if !ok {
		return nil, fmt.Errorf("mlops: unknown trainer %q (registered: %v)", p.TrainerName, model.Names())
	}
	if !trainer.Applicable(p.Platform) {
		return nil, fmt.Errorf("mlops: trainer %q is not applicable on %s", p.TrainerName, p.Platform)
	}
	samples := p.Features.BatchTransform(store, features.DefaultSamplerConfig())
	ds := dataset.FromSamples(samples)
	split, err := dataset.TimeSplit(ds, trainEnd, valEnd)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(p.Seed ^ 0xfeed)
	train := dataset.Downsample(split.Train, negativeRatio, rng)
	dataset.Shuffle(train, rng)
	if train.Positives() == 0 {
		return nil, fmt.Errorf("mlops: no positive samples before %v", trainEnd)
	}

	m, err := trainer.Fit(context.Background(), model.TrainSet{
		X: train.X, Y: train.Y,
		XVal: split.Val.X, YVal: split.Val.Y,
		Platform: p.Platform, Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}

	vp := eval.DefaultVIRRParams()
	valScores := m.ScoreBatch(model.Batch{
		X: split.Val.X, DIMMs: split.Val.DIMMs, Times: split.Val.Times, Store: store,
	})
	valDS := eval.AggregateByDIMM(split.Val.DIMMs, valScores, split.Val.Y)
	var th float64
	if ft, ok := m.(model.FixedThresholder); ok {
		th = ft.FixedThreshold()
	} else {
		th, _ = eval.BestF1Threshold(valDS, vp)
	}
	metrics := eval.Compute(eval.ConfusionAt(valDS, th), vp)

	mv, err := p.Registry.Register(p.ModelName, p.Platform, m, metrics, th)
	if err != nil {
		return nil, err
	}
	p.Monitor.SetReferenceScores(valScores)

	promoted, reason, err := p.Registry.RunGate(p.ModelName)
	if err != nil {
		return nil, err
	}
	return &TrainResult{Version: mv, Promoted: promoted, Reason: reason, Benchmark: metrics}, nil
}

// ResolveAlarms resolves alarms (resolveAlarms) once their prediction
// window has elapsed and makes the result the monitor's feedback, replacing
// the previous one, so resolving a growing list counts each outcome once.
func (p *Pipeline) ResolveAlarms(alarms []Alarm, failed map[trace.DIMMID]trace.Minutes, window trace.Minutes) (tp, fp, fn int, leads []trace.Minutes) {
	tp, fp, fn, leads = resolveAlarms(alarms, failed, window)
	p.Monitor.Feedback(tp, fp, fn)
	return tp, fp, fn, leads
}

// resolveAlarms resolves alarms against failures: each alarmed DIMM, taken
// at its first alarm, is a TP when it fails after the alarm and within
// window of it, and an FP otherwise; a failed DIMM never alarmed is an FN.
// leads holds each TP's failure time minus its alarm time, in the order
// the DIMMs first alarmed.
func resolveAlarms(alarms []Alarm, failed map[trace.DIMMID]trace.Minutes, window trace.Minutes) (tp, fp, fn int, leads []trace.Minutes) {
	first := map[trace.DIMMID]trace.Minutes{}
	for _, a := range alarms {
		if t, ok := first[a.DIMM]; !ok || a.Time < t {
			first[a.DIMM] = a.Time
		}
	}
	fn = len(failed)
	for _, a := range alarms {
		at, ok := first[a.DIMM]
		if !ok {
			continue // resolved at its first alarm
		}
		delete(first, a.DIMM)
		ue, ok := failed[a.DIMM]
		if ok {
			fn--
		}
		if ok && ue > at && ue-at <= window {
			tp++
			leads = append(leads, ue-at)
		} else {
			fp++
		}
	}
	return tp, fp, fn, leads
}
