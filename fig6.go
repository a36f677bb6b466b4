package memfp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"memfp/internal/controlplane"
	"memfp/internal/dataset"
	"memfp/internal/ml/model"
	"memfp/internal/mlops"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// The retraining policy every Figure 6 loop decides by: retrain when the
// live score distribution drifts past retrainPSI from the training one,
// or when live precision over at least ten resolved alarms falls below
// retrainPrecision.
const (
	retrainPSI       = 0.25
	retrainPrecision = 0.2
)

// month is the Figure 6 loop's retraining cadence: with Cycles set, the
// stream is served, resolved and retrained on one month at a time.
const month = 30 * trace.Day

// Figure6 is what a caller sets on the paper's Figure 6 loop: gated
// training, registry promotion, online serving through the control
// plane, alarm feedback, drift monitoring and gated retraining.
type Figure6 struct {
	Platform platform.ID
	// Trainer names the registry trainer the loop ships (exact, any case,
	// or a legacy shorthand; see model.Resolve).
	Trainer string
	// Shards is each serving engine's shard count (0 = one per CPU); any
	// value emits the same alarms.
	Shards int
	// MemoryBudgetMiB bounds the serving state (0 = unbounded); alarms
	// are unchanged.
	MemoryBudgetMiB int64
	// Cycles serves the history before dataset.ValEndDay silently, then
	// the rest month by month, resolving feedback and running a gated
	// retraining after each month: the feedback after a month resolves
	// every alarm served since ValEndDay against the DIMMs that failed
	// from ValEndDay to the month's end. Unset, the whole stream is served
	// at once and resolved at the end.
	Cycles bool
	// ControlPlane sets expected node daemons, checkpoint cadence and
	// spill store; its Pipeline is the loop's own.
	ControlPlane controlplane.Config
	// Alarms, if set, receives every emitted alarm in stream order.
	Alarms func([]mlops.Alarm)
}

// Figure6Loop is a booted Figure 6 loop: the bootstrap model is trained
// and gated and every DIMM is registered on the control plane, whose
// Handler can be served before Serve replays the stream.
type Figure6Loop struct {
	Pipeline *mlops.Pipeline
	Server   *controlplane.Server
	set      Figure6
	store    *trace.Store
	w        io.Writer
}

// RunFigure6 boots the loop, serves it and closes it, reporting to w.
func RunFigure6(ctx context.Context, cfg Config, set Figure6, w io.Writer) error {
	l, err := BootFigure6(ctx, cfg, set, w)
	if err != nil {
		return err
	}
	defer l.Close()
	return l.Serve(ctx)
}

// BootFigure6 checks that the trainer applies to the platform, generates
// the fleet at cfg's scale and seed (through cfg.FleetCache), trains and
// gates the bootstrap model on the first five months, and registers the
// fleet's DIMMs on a new control plane. It reports the training cycle to
// w, where Serve reports the rest.
func BootFigure6(ctx context.Context, cfg Config, set Figure6, w io.Writer) (*Figure6Loop, error) {
	if _, err := platform.Get(set.Platform); err != nil {
		return nil, err
	}
	tr, err := model.Resolve(set.Trainer)
	if err != nil {
		return nil, err
	}
	if !tr.Applicable(set.Platform) {
		return nil, fmt.Errorf("memfp: trainer %q is not applicable on %s", tr.Name(), set.Platform)
	}
	res, err := cfg.generate(ctx, set.Platform)
	if err != nil {
		return nil, err
	}
	pipe := mlops.NewPipeline(set.Platform)
	pipe.Seed = cfg.Seed
	pipe.TrainerName = tr.Name()
	pipe.Shards = set.Shards
	pipe.MemoryBudget = set.MemoryBudgetMiB << 20
	boot, err := pipe.TrainAndMaybePromote(res.Store, dataset.TrainEndDay*trace.Day, dataset.ValEndDay*trace.Day)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "trained %s v%d: promoted=%v (%s), benchmark %s\n",
		boot.Version.Name, boot.Version.Version, boot.Promoted, boot.Reason, boot.Benchmark)
	ccfg := set.ControlPlane
	ccfg.Pipeline = pipe
	cp, err := controlplane.New(ccfg)
	if err != nil {
		return nil, err
	}
	for _, l := range res.Store.DIMMs() {
		cp.RegisterDIMM(l.ID, l.Part)
	}
	if set.Alarms == nil {
		set.Alarms = func([]mlops.Alarm) {}
	}
	return &Figure6Loop{Pipeline: pipe, Server: cp, set: set, store: res.Store, w: w}, nil
}

// Close stops the control plane.
func (l *Figure6Loop) Close() { l.Server.Close() }

// Serve waits for the expected node daemons, replays the fleet's
// time-ordered stream through the control plane, drains delivery and
// prints the monitoring dashboard with the retraining decision. An
// interrupt only cuts the stream short: the dashboard still prints, and
// Serve returns ctx.Err().
func (l *Figure6Loop) Serve(ctx context.Context) error {
	cp, pipe, w := l.Server, l.Pipeline, l.w
	if n := l.set.ControlPlane.ExpectNodes; n > 0 {
		fmt.Fprintf(w, "waiting for %d node daemons to join...\n", n)
		for !cp.Ready() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
		}
		fmt.Fprintln(w, "fleet complete; replaying")
	}
	all, failed := l.store.Stream()
	// serve returns the events' own alarms: the control plane flushes
	// delivery at the end. An interrupt only cuts the events short.
	serve := func(events []trace.Event) ([]mlops.Alarm, error) {
		as, err := cp.ServeStream(ctx, events)
		l.set.Alarms(as)
		if ctx.Err() != nil {
			err = nil
		}
		return as, err
	}

	// alarms is what feedback resolves: the served months' alarms, or the
	// whole stream's.
	var alarms []mlops.Alarm
	var err error
	if l.set.Cycles {
		valEnd := dataset.ValEndDay * trace.Day
		// The bootstrap model's training history is replayed silently, so
		// live features see full context.
		cursor := sort.Search(len(all), func(i int) bool { return all[i].Time >= valEnd })
		if _, err := serve(all[:cursor]); err != nil {
			return err
		}
		for cycle, start := 1, valEnd; start < trace.ObservationSpan && ctx.Err() == nil; cycle, start = cycle+1, start+month {
			hi := cursor + sort.Search(len(all)-cursor, func(i int) bool { return all[cursor+i].Time >= start+month })
			as, err := serve(all[cursor:hi])
			if err != nil {
				return err
			}
			cursor = hi
			alarms = append(alarms, as...)
			failedSince := map[trace.DIMMID]trace.Minutes{}
			for id, ue := range failed {
				if ue >= valEnd && ue < start+month {
					failedSince[id] = ue
				}
			}
			pipe.ResolveAlarms(alarms, failedSince)
			prec, rec := pipe.Monitor.LivePrecisionRecall()
			dec := pipe.Monitor.ShouldRetrain(cp.Fleet().PSI, retrainPSI, retrainPrecision)
			fmt.Fprintf(w, "[month %d] alarms=%d  live P=%.2f R=%.2f  PSI=%.3f  retrain=%v (%s)\n",
				int(start/month), len(as), prec, rec, dec.PSI, dec.Retrain, dec.Reason)

			// Retrain on everything seen so far, through the same gate.
			tr, err := pipe.TrainAndMaybePromote(l.store, start, start+month)
			if err != nil {
				fmt.Fprintf(w, "[cycle %d] retraining skipped: %v\n", cycle, err)
			} else {
				fmt.Fprintf(w, "[cycle %d] candidate v%d  promoted=%v (%s)\n",
					cycle, tr.Version.Version, tr.Promoted, tr.Reason)
			}
		}
	} else if alarms, err = serve(all); err != nil {
		return err
	}

	// Drain work a dead-then-rejoined node may have left pending.
	for i := 0; i < 600; i++ {
		res := cp.Flush()
		l.set.Alarms(res.Alarms)
		alarms = append(alarms, res.Alarms...)
		if res.Pending == 0 || ctx.Err() != nil {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if !l.set.Cycles {
		pipe.ResolveAlarms(alarms, failed)
		fmt.Fprintf(w, "replayed stream: %d alarms emitted\n", len(alarms))
	}

	fl := cp.Fleet()
	if l.set.MemoryBudgetMiB > 0 {
		ms := fl.Memory
		fmt.Fprintf(w, "memory budget %d MiB: resident=%dB (%d DIMMs live, %d frozen), evictions=%d rehydrations=%d compactions=%d\n",
			l.set.MemoryBudgetMiB, ms.ResidentBytes, ms.ResidentDIMMs, ms.FrozenDIMMs,
			ms.Evictions, ms.Rehydrations, ms.Compactions)
	}
	fmt.Fprint(w, pipe.Monitor.DashboardOf(fl.Predictions, fl.Shards))
	dec := pipe.Monitor.ShouldRetrain(fl.PSI, retrainPSI, retrainPrecision)
	fmt.Fprintf(w, "retraining decision: retrain=%v (%s)\n", dec.Retrain, dec.Reason)
	return ctx.Err()
}

// runFig6 serves the Purley fleet at 40% of the run's scale.
func runFig6(ctx context.Context, cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "Figure 6 — MLOps framework walkthrough (Purley fleet)\n")
	cfg.Scale *= 0.4
	return RunFigure6(ctx, cfg, Figure6{Platform: platform.Purley, Trainer: model.NameGBDT}, w)
}
