package main

import (
	"fmt"
	"io"
	"time"
)

// options are what one benchmark run is asked to do.
type options struct {
	seed    uint64
	seconds int  // how long the repetitions of one workload may measure
	trace   bool // second pass: spans and direct layer calls
	log     io.Writer
}

// Repetition counts. The untraced pass reports medians of at least
// minReps boot-replay-live cycles and sets the fleet up setupReps times;
// the traced pass alternates untraced and traced cycles, at least one of
// each, so the tracing overhead is measured in the same run.
const (
	minReps       = 3
	setupReps     = 3
	minTracedReps = 2
)

// metric is one reported number: the median over the repetitions that
// measured it, with the range they covered.
type metric struct {
	summary
	Unit string `json:"unit"`
}

// workloadReport is one workload's section of the report.
type workloadReport struct {
	Name         string   `json:"name"`
	Config       workload `json:"config"`
	Correct      bool     `json:"correct"`
	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Error        string   `json:"error,omitempty"`
	DIMMs        int      `json:"dimms"`
	Events       int      `json:"events"` // generated; the ticks serve a fixed prefix
	Repetitions  int      `json:"repetitions"`
	// Metrics holds every end-to-end metric on an untraced run and every
	// per-layer metric on a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Diagnostics are printed, never compared.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	spans       []span
}

// runWorkload measures one workload. The returned report is complete
// (Correct, every declared metric) or carries the error that stopped it.
func runWorkload(w workload, o options) *workloadReport {
	r := &workloadReport{Name: w.Name, Config: w, Metrics: map[string]metric{}, Diagnostics: map[string]float64{}}
	dog := startWatchdog(opDeadline, func(op string) { watchdogExpired(o.log, op) })
	defer dog.stopWatchdog()
	if err := r.measure(w, o, dog); err != nil {
		r.Error = err.Error()
		if r.OpsFailed == 0 { // a set-up failure is a failed op too
			r.OpsAttempted++
			r.OpsFailed++
		}
		return r
	}
	r.Correct = true
	return r
}

func (r *workloadReport) measure(w workload, o options, dog *watchdog) error {
	// Phase 0, the part the program owns: generate and sort the fleet.
	// The untraced pass does it setupReps times so setup_s is a median.
	gens := 1
	if !o.trace {
		gens = setupReps
	}
	var fl *fleet
	var genS []float64
	for i := 0; i < gens; i++ {
		fl = nil // one fleet alive at a time
		t0 := time.Now()
		var err error
		if fl, err = generateFleet(w.Platform, w.Scale, o.seed); err != nil {
			return err
		}
		genS = append(genS, time.Since(t0).Seconds())
	}
	f, err := newFixture(w, o.seed, fl, o.trace)
	fl = nil // the fixture copied what the run needs
	if err != nil {
		return err
	}
	r.DIMMs, r.Events = len(f.dimms), f.generated
	fmt.Fprintf(o.log, "%s: %d DIMMs, %d events generated, %d served; train %.2fs\n",
		w.Name, r.DIMMs, r.Events, len(f.events), summarize(f.trainS).Median)

	engine, err := f.runReference(o.trace)
	if err != nil {
		return err
	}

	// Phases 1–3, repeated on fresh topologies until the time is used.
	var reps []*repetition
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	need := minReps
	if o.trace {
		need = minTracedReps
	}
	var lastWall time.Duration // what one more repetition would take
	for len(reps) < need || time.Now().Add(lastWall).Before(deadline) {
		traced := o.trace && len(reps)%2 == 1
		t0 := time.Now()
		rep, err := runRepetition(f, dog, traced)
		lastWall = time.Since(t0)
		r.OpsAttempted += rep.ops.attempted
		r.OpsFailed += rep.ops.failed
		if err != nil {
			return fmt.Errorf("repetition %d: %w", len(reps)+1, err)
		}
		reps = append(reps, rep)
	}
	r.Repetitions = len(reps)

	if !o.trace {
		r.endToEnd(f, genS, reps)
		return nil
	}
	return r.perLayer(f, genS[0], engine, reps)
}

func (r *workloadReport) set(name string, xs ...float64) {
	r.Metrics[name] = metric{summary: summarize(xs), Unit: unitOf(name)}
}

// endToEnd fills the seven end-to-end metrics from the untraced
// repetitions.
func (r *workloadReport) endToEnd(f *fixture, genS []float64, reps []*repetition) {
	var setup, evps, p50, p95, mean, heap, p99, worst, peak []float64
	for i, rep := range reps {
		if i < len(genS) {
			setup = append(setup, genS[i]+rep.bootS)
		}
		evps = append(evps, float64(f.replayEvents())/rep.replayS)
		p50 = append(p50, percentile(rep.tickMS, 50))
		p95 = append(p95, percentile(rep.tickMS, 95))
		p99 = append(p99, percentile(rep.tickMS, 99))
		worst = append(worst, percentile(rep.tickMS, 100))
		mean = append(mean, rep.liveS*1e3/float64(len(rep.tickMS)))
		heap = append(heap, rep.stateHeapMB)
		peak = append(peak, rep.peakHeapMB)
	}
	r.set("setup_s", setup...)
	r.set("train_s", f.trainS...)
	r.set("replay_events_per_s", evps...)
	r.set("tick_p50_ms", p50...)
	r.set("tick_p95_ms", p95...)
	r.set("tick_mean_ms", mean...)
	r.set("state_heap_mb", heap...)
	r.Diagnostics["tick_p99_ms"] = summarize(p99).Median
	r.Diagnostics["tick_max_ms"] = summarize(worst).Max
	r.Diagnostics["peak_heap_mb"] = summarize(peak).Max
	r.Diagnostics["frame_encode_s"] = f.encodeS
}

// perLayer fills every per-layer metric from the traced repetitions and
// the direct layer calls, and checks the two invariants the layers must
// keep: the walk restates the engine's throttle exactly, and the
// bypassed mechanisms stay at zero.
func (r *workloadReport) perLayer(f *fixture, generateS float64, engine engineLayer, reps []*repetition) error {
	w := f.w
	loadS, err := f.measureLoad()
	if err != nil {
		return err
	}
	cl, err := f.measureCodec()
	if err != nil {
		return err
	}
	wl, err := f.walk()
	if err != nil {
		return err
	}
	if wl.extractCalls != engine.predictions {
		return fmt.Errorf("%s: the walk made %d feature extractions but the engine %d predictions; the walk has drifted from the engine's throttle",
			w.Name, wl.extractCalls, engine.predictions)
	}

	var plain, traced []float64
	var last *repetition
	for _, rep := range reps {
		if rep.rec != nil {
			traced = append(traced, rep.replayS)
			last = rep
		} else {
			plain = append(plain, rep.replayS)
		}
	}
	rec := last.rec
	r.spans = rec.closed()
	sl := summarizeSpans(r.spans, max(w.Nodes, 1))

	r.set("faultsim.generate_s", generateS)
	r.set("faultsim.dimms", float64(r.DIMMs))
	r.set("faultsim.events", float64(r.Events))

	r.set("mlops.train.features_s", f.trainFeaturesS)
	r.set("mlops.train.rest_s", summarize(f.trainS).Median-f.trainFeaturesS)
	r.set("model.artifact_bytes", float64(len(f.art.data)))
	r.set("model.load_s", loadS)

	r.set("trace.encode_s", f.encodeS)
	r.set("trace.decode_s", cl.decodeS)
	r.set("trace.bytes_per_event", cl.bytesPerEvent)
	r.set("trace.append_s", wl.appendS)
	r.set("trace.overhead_ratio", summarize(traced).Median/summarize(plain).Median)

	nodeTicks := f.nodeTicks()
	for p, sfx := range phaseSuffix {
		r.set("controlplane.ingest.busy_s"+sfx, sl.cpIngestS[p])
		r.set("controlplane.ingest.requests"+sfx, float64(sl.cpIngestN[p]))
		r.set("controlplane.flush.wait_s"+sfx, sl.cpFlushS[p])
		r.set("driver.remainder_s"+sfx, sl.tickS[p]-sl.cpIngestS[p]-sl.cpFlushS[p])
		r.set("node.ingest2.busy_s"+sfx, sl.nodeS[p])
		r.set("node.ingest2.requests"+sfx, float64(sl.nodeN[p]))
		r.set("node.ingest2.ticks_per_request"+sfx, ratio(float64(nodeTicks[p]), float64(sl.nodeN[p])))
		r.set("mlops.ingest.busy_s"+sfx, engine.busyS[p])
		r.set("features.extract.busy_s"+sfx, wl.extractS[p])
		r.set("model.score.busy_s"+sfx, wl.scoreS[p])
		r.set("model.score.batch_rows_p50"+sfx, percentile(wl.batchRows[p], 50))
		r.set("model.score.batch_rows_p95"+sfx, percentile(wl.batchRows[p], 95))
		r.set("model.score.batch_rows_max"+sfx, percentile(wl.batchRows[p], 100))
	}
	r.set("controlplane.artifact.s", float64(rec.artifactNS.Load())/1e9)
	r.set("controlplane.artifact.bytes", float64(rec.artifactBytes.Load()))
	r.set("controlplane.join.s", float64(rec.joinNS.Load())/1e9)
	r.set("controlplane.journal.depth_highwater", float64(last.journal.DepthHighWater))
	r.set("controlplane.journal.truncations", float64(last.journal.Truncations))
	r.set("controlplane.journal.spill_bytes", float64(last.journal.SpillBytes))

	r.set("node.ingest2.bytes_in", float64(rec.nodeBytesIn.Load()))
	r.set("node.ingest2.bytes_out", float64(rec.nodeBytesOut.Load()))
	r.set("node.busy_skew", ratio(percentile(sl.nodeBusy, 100), sum(sl.nodeBusy)/float64(len(sl.nodeBusy))))
	r.set("node.checkpoint.s", sl.ckptS)
	r.set("node.checkpoint.requests", float64(sl.ckptN))
	r.set("node.checkpoint.bytes", float64(rec.ckptBytes.Load()))
	r.set("node.rejoin.s", last.rejoinS)
	r.set("node.catchup.s", last.catchupS)

	r.set("mlops.predictions", float64(engine.predictions))
	r.set("mlops.alarms", float64(engine.alarms))
	r.set("mlops.snapshot.s", engine.snapshotS)
	r.set("mlops.snapshot.bytes", float64(engine.snapshotBytes))
	r.set("mlops.restore.s", engine.restoreS)
	r.set("mlops.mem.resident_bytes", float64(last.mem.ResidentBytes))
	r.set("mlops.mem.evictions", float64(last.mem.Evictions))
	r.set("mlops.mem.rehydrations", float64(last.mem.Rehydrations))
	r.set("mlops.mem.compactions", float64(last.mem.Compactions))
	r.set("mlops.mem.spilled_bytes", float64(last.mem.SpilledBytes))

	r.set("features.extract.calls", float64(wl.extractCalls))
	r.set("model.score.calls", float64(wl.scoreCalls))
	r.set("model.score.rows", float64(wl.scoreRows))

	// The two stated sums, each closed by its remainder. The handler that
	// hosts the engine is node.ingest2, or controlplane.ingest in local
	// mode.
	hostBusy := sum(sl.nodeS[:])
	if w.Nodes == 0 {
		hostBusy = sum(sl.cpIngestS[:])
	}
	engineBusy := sum(engine.busyS[:])
	r.set("node.remainder_s", hostBusy-cl.decodeS-engineBusy)
	r.set("mlops.remainder_s", engineBusy-wl.appendS-sum(wl.extractS[:])-sum(wl.scoreS[:]))

	for name, s := range sl.selfS {
		r.Diagnostics["self_s."+name] = s
	}
	return r.checkCounters()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkCounters enforces that each mechanism's counters are zero on the
// workloads that bypass it and non-zero on the one it is the point of.
func (r *workloadReport) checkCounters() error {
	w := r.Config
	want := map[string]bool{ // counter → must be non-zero (else must be zero)
		"node.checkpoint.requests": w.Lifecycle,
		"mlops.mem.evictions":      w.BudgetMiB > 0,
		"mlops.mem.compactions":    w.BudgetMiB > 0,
		// A node restored from a checkpoint starts with every DIMM frozen
		// and thaws each on its next event.
		"mlops.mem.rehydrations":  w.BudgetMiB > 0 || w.Lifecycle,
		"mlops.mem.spilled_bytes": false,
	}
	for name, nonZero := range want {
		if got := r.Metrics[name].Median; (got != 0) != nonZero {
			return fmt.Errorf("%s: %s = %v, want non-zero: %v", w.Name, name, got, nonZero)
		}
	}
	return nil
}
