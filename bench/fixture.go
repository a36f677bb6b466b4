package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"memfp/internal/eval"
	"memfp/internal/faultsim"
	"memfp/internal/features"
	"memfp/internal/mlops"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// fleet is one generated population: the store training reads and the
// time-ordered event stream serving replays.
type fleet struct {
	store  *trace.Store
	events []trace.Event
}

// generateFleet is the part of set-up the program owns: generate the
// fleet from the seed (never through the process-wide cache, so every
// call pays the full cost) and order its events by time.
func generateFleet(pf platform.ID, scale float64, seed uint64) (*fleet, error) {
	res, err := pipeline.NewFleetCache().Get(context.Background(),
		faultsim.Config{Platform: pf, Scale: scale, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate %s fleet: %w", pf, err)
	}
	var all []trace.Event
	for _, l := range res.Store.DIMMs() {
		all = append(all, l.Events...)
	}
	sort.Stable(trace.ByTime(all))
	return &fleet{store: res.Store, events: all}, nil
}

// tick is one POST: events[lo:hi) of the stream, pre-encoded.
type tick struct {
	lo, hi int
	frame  []byte
}

// artifact is the trained model as the registry distributes it.
type artifact struct {
	name      string
	algo      string
	data      []byte
	threshold float64
	metrics   eval.Metrics
}

// dimmPart is one line of the asset inventory: a DIMM and its part.
type dimmPart struct {
	id   trace.DIMMID
	part platform.DIMMPart
}

// fixture is everything the repetitions of one workload share: the
// inventory and event stream of the served fleet, the model, the
// pre-encoded ticks and the reference alarm stream. Only the generated
// events reach the program under test. The fixture keeps no more than
// that — not the generated stores, not the training fleet — because
// whatever it holds the collector marks during the timed phases.
type fixture struct {
	w    workload
	seed uint64
	// dimms is the served fleet's inventory; events the prefix of its
	// time-ordered stream the ticks cover, of generated events in all.
	dimms     []dimmPart
	events    []trace.Event
	generated int
	art       artifact
	// ticks holds the replay ticks followed by the live ticks; firstLive
	// indexes the first live one.
	ticks     []tick
	firstLive int
	// Lifecycle tick boundaries within the replay phase (-1 when the
	// workload has none).
	promoteAt, killAt, rejoinAt int

	refAlarms string // rendered reference alarm stream

	trainS  []float64 // one per fit
	encodeS float64
	// trainFeaturesS is the batch feature transform alone, on the training
	// fleet (traced pass only).
	trainFeaturesS float64
}

func (f *fixture) replayEvents() int { return f.ticks[f.firstLive].lo }

// phase returns the phase tick i belongs to.
func (f *fixture) phase(i int) int {
	if i < f.firstLive {
		return phaseReplay
	}
	return phaseLive
}

// A GBDT fit takes about a second, too short to time once on a shared
// box, so training repeats until it has run for trainBudget in total, at
// most maxTrainReps times, and train_s is the median. The FT-Transformer
// spends the budget in one fit.
const (
	trainBudget  = 3 * time.Second
	maxTrainReps = 3
)

// train runs the Figure 6 retrain cycle the benchmark times — extract,
// fit, threshold, evaluate, gate and marshal — and returns the artifact
// with the wall time of each run. Training is deterministic: every run
// must marshal the same bytes.
func train(w workload, store *trace.Store) (artifact, []float64, error) {
	var art artifact
	var trainS []float64
	for total := time.Duration(0); total < trainBudget && len(trainS) < maxTrainReps; {
		pipe := mlops.NewPipeline(w.Platform)
		pipe.Seed = trainSeed
		pipe.TrainerName = w.Trainer
		runtime.GC() // the same heap state whatever fleet the seed drew
		t0 := time.Now()
		tr, err := pipe.TrainAndMaybePromote(store, trainEnd, valEnd)
		d := time.Since(t0)
		if err != nil {
			return art, nil, fmt.Errorf("train %s on %s: %w", w.Trainer, w.Platform, err)
		}
		if !tr.Promoted {
			return art, nil, fmt.Errorf("train %s on %s: model not promoted: %s", w.Trainer, w.Platform, tr.Reason)
		}
		v := tr.Version
		if len(trainS) > 0 && !bytes.Equal(v.Artifact, art.data) {
			return art, nil, fmt.Errorf("train %s on %s: two fits of the same fleet and seed marshalled different artifacts", w.Trainer, w.Platform)
		}
		art = artifact{name: pipe.ModelName, algo: v.Algorithm, data: v.Artifact,
			threshold: v.Threshold, metrics: v.Metrics}
		trainS = append(trainS, d.Seconds())
		total += d
	}
	return art, trainS, nil
}

// newPipeline builds a fresh pipeline serving the trained artifact as
// production v1 with a staged v2 — the same artifact at half the
// threshold, so a promotion visibly changes the alarm stream.
func (f *fixture) newPipeline() (*mlops.Pipeline, error) {
	pipe := mlops.NewPipeline(f.w.Platform)
	pipe.Shards = f.w.Shards
	pipe.MemoryBudget = f.w.BudgetMiB << 20
	if err := importVersions(pipe.Registry, f.w.Platform, f.art); err != nil {
		return nil, err
	}
	return pipe, nil
}

func importVersions(reg *mlops.Registry, pf platform.ID, a artifact) error {
	for v, th := range []float64{a.threshold, a.threshold / 2} {
		if _, err := reg.ImportVersion(a.name, v+1, pf, a.algo, a.data, a.metrics, th); err != nil {
			return fmt.Errorf("import %s v%d: %w", a.name, v+1, err)
		}
	}
	if err := reg.Promote(a.name, 1); err != nil {
		return fmt.Errorf("promote %s v1: %w", a.name, err)
	}
	return nil
}

// cutTicks takes the workload's fixed number of replay and live ticks
// off the front of the fleet's stream and pre-encodes each as an MFE1
// frame, outside every serving timer.
func (f *fixture) cutTicks(fl *fleet) error {
	w := f.w
	need := w.ReplayTicks*w.ReplayTick + w.LiveTicks*w.LiveTick
	if len(fl.events) < need {
		return fmt.Errorf("%s: seed %d generated %d events, the ticks need %d; raise the workload's scale",
			w.Name, f.seed, len(fl.events), need)
	}
	f.generated = len(fl.events)
	f.events = append([]trace.Event(nil), fl.events[:need]...)
	for _, l := range fl.store.DIMMs() {
		f.dimms = append(f.dimms, dimmPart{l.ID, l.Part})
	}
	partNumber := func(id trace.DIMMID) string { return fl.store.Get(id).Part.PartNumber }
	t0 := time.Now()
	lo := 0
	for i := 0; i < w.ReplayTicks+w.LiveTicks; i++ {
		size := w.ReplayTick
		if i >= w.ReplayTicks {
			size = w.LiveTick
		}
		f.ticks = append(f.ticks, tick{lo: lo, hi: lo + size,
			frame: trace.AppendEventFrame(nil, f.events[lo:lo+size], partNumber)})
		lo += size
	}
	f.firstLive = w.ReplayTicks
	f.encodeS = time.Since(t0).Seconds()
	f.promoteAt, f.killAt, f.rejoinAt = -1, -1, -1
	if w.Lifecycle {
		f.promoteAt, f.killAt, f.rejoinAt = w.ReplayTicks/3, w.ReplayTicks/2, 2*w.ReplayTicks/3
	}
	return nil
}

// newFixture runs phase 0 up to, but not including, the topology boot:
// it cuts the served fleet's stream into ticks and trains on the pinned
// training fleet. The traced pass also times the batch feature transform
// here, while the training fleet is still around.
func newFixture(w workload, seed uint64, fl *fleet, traced bool) (*fixture, error) {
	f := &fixture{w: w, seed: seed}
	if err := f.cutTicks(fl); err != nil {
		return nil, err
	}
	tf, err := generateFleet(w.Platform, w.TrainScale, trainSeed)
	if err != nil {
		return nil, err
	}
	if f.art, f.trainS, err = train(w, tf.store); err != nil {
		return nil, err
	}
	if traced {
		t0 := time.Now()
		samples := mlops.NewFeatureStore().BatchTransform(tf.store, features.DefaultSamplerConfig())
		f.trainFeaturesS = time.Since(t0).Seconds()
		if len(samples) == 0 {
			return nil, fmt.Errorf("%s: batch transform produced no samples", w.Name)
		}
	}
	return f, nil
}

// alarmLine renders one alarm with its score as a hex float — exact, so
// two streams can be compared byte for byte.
func alarmLine(sb *strings.Builder, t int64, pf string, server, slot int, score float64, label string) {
	fmt.Fprintf(sb, "%d %s %d %d %s %s\n", t, pf, server, slot,
		strconv.FormatFloat(score, 'x', -1, 64), label)
}

func renderAlarms(as []mlops.Alarm) string {
	var sb strings.Builder
	for _, a := range as {
		alarmLine(&sb, int64(a.Time), string(a.DIMM.Platform), a.DIMM.Server, a.DIMM.Slot, a.Score, a.Model)
	}
	return sb.String()
}
