package scenario

import (
	"context"
	"fmt"
	"io"
	"sort"

	"memfp/internal/controlplane"
	"memfp/internal/faultsim"
	"memfp/internal/mlops"
	"memfp/internal/platform"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// Options tune one scenario run without touching the scenario itself.
// Every option is determinism-neutral: any combination produces the
// byte-identical report and alarm stream.
type Options struct {
	// Shards is each serving engine's shard count (0 = one per CPU).
	Shards int
	// Log receives human-readable progress lines (nil = silent).
	Log io.Writer
	// TickHook, when set, is called with the tick index at every window
	// boundary before its events are delivered. Tests use it to observe
	// progress and to cancel mid-run.
	TickHook func(tick int)
}

// platformRun is the per-platform serving stack of one run: a control
// plane with its in-process node.
type platformRun struct {
	pf     platform.ID
	pipe   *mlops.Pipeline
	cp     *controlplane.Server
	store  *trace.Store
	failed map[trace.DIMMID]trace.Minutes
	// Maintenance window: while paused, the control plane journals the
	// delivered ticks and serves them when the window closes; held counts
	// their events.
	paused bool
	held   int
}

// timelineOp is one scheduled control operation. Maintenance windows
// expand into a pause op and a resume op.
type timelineOp struct {
	at     trace.Minutes
	seq    int // declaration order tie-break
	kind   string
	action Action
	idx    int // index into Scenario.Chaos
}

const opResume = "resume" // internal op kind closing a maintenance window

// Run executes one scenario against the real serving stack and returns
// its report. The error is non-nil only for execution failures
// (cancellation included); assertion failures are reported in
// Report.Passed, not as errors.
func Run(ctx context.Context, s *Scenario, opt Options) (*Report, error) {
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}

	// --- Fleet expansion: templates × weights through the calibrated
	// generator, per-template ServerBase keeping identities disjoint.
	totalW := 0.0
	for _, t := range s.Fleet.Templates {
		totalW += t.Weight
	}
	runs := map[platform.ID]*platformRun{}
	defer func() {
		for _, pr := range runs {
			if pr.cp != nil {
				pr.cp.Close()
			}
		}
	}()
	var order []platform.ID // template declaration order, deduplicated
	ctxI := &injectCtx{
		platforms: map[platform.ID]*platform.Platform{},
		calibs:    map[platform.ID]*faultsim.Calibration{},
		seed:      s.Seed,
	}
	var stream []trace.Event
	for ti, t := range s.Fleet.Templates {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		res, err := faultsim.GenerateCtx(ctx, faultsim.Config{
			Platform:         t.Platform,
			Scale:            s.Fleet.Scale * t.Weight / totalW,
			Seed:             xrand.Derive(s.Seed, uint64(ti)).Uint64(),
			MaxEventsPerDIMM: s.Fleet.MaxEventsPerDIMM,
			Regimes:          s.Fleet.Regimes,
			ServerBase:       ti << 20,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: fleet template %d (%s): %w", ti, t.Platform, err)
		}
		pr := runs[t.Platform]
		if pr == nil {
			pr = &platformRun{pf: t.Platform, store: trace.NewStore(),
				failed: map[trace.DIMMID]trace.Minutes{}}
			runs[t.Platform] = pr
			order = append(order, t.Platform)
			ctxI.platforms[t.Platform] = res.Platform
			ctxI.calibs[t.Platform] = res.Calib
		}
		for _, l := range res.Store.DIMMs() {
			if _, err := pr.store.Register(l.ID, l.Part); err != nil {
				return nil, fmt.Errorf("scenario: fleet template %d: %w", ti, err)
			}
			if err := pr.store.AppendEvents(l.ID, l.Events); err != nil {
				return nil, err
			}
			stream = append(stream, l.Events...)
			ctxI.dimms = append(ctxI.dimms, fleetDIMM{ID: l.ID, Part: l.Part, PF: t.Platform})
		}
		for _, tr := range res.Truth.List {
			if tr.UETime >= 0 {
				pr.failed[tr.ID] = tr.UETime
			}
		}
		logf("fleet: %s ×%.2f → %d DIMMs", t.Platform, t.Weight/totalW, res.Store.Len())
	}
	sort.Slice(ctxI.dimms, func(i, j int) bool { return ctxI.dimms[i].ID.Less(ctxI.dimms[j].ID) })
	sort.Stable(trace.ByTime(stream))
	for _, pr := range runs {
		pr.store.SortAll()
	}

	// --- Bootstrap training + serving control planes.
	trainEnd := trace.Minutes(s.Train.TrainEndDay) * trace.Day
	valEnd := trace.Minutes(s.Train.ValEndDay) * trace.Day
	for pi, pf := range order {
		pr := runs[pf]
		pr.pipe = mlops.NewPipeline(pf)
		pr.pipe.TrainerName = s.Train.Trainer
		pr.pipe.Seed = xrand.Derive(s.Seed, 0xb007+uint64(pi)).Uint64()
		tr, err := pr.pipe.TrainAndMaybePromote(pr.store, trainEnd, valEnd)
		if err != nil {
			return nil, fmt.Errorf("scenario: bootstrap training on %s: %w", pf, err)
		}
		pr.pipe.Shards = opt.Shards
		if pr.cp, err = controlplane.New(controlplane.Config{Pipeline: pr.pipe}); err != nil {
			return nil, fmt.Errorf("scenario: serving %s: %w", pf, err)
		}
		for _, l := range pr.store.DIMMs() {
			pr.cp.RegisterDIMM(l.ID, l.Part)
		}
		logf("train: %s %s v%d (%s)", pf, pr.pipe.ModelName, tr.Version.Version, tr.Reason)
	}

	// --- Injector chain + control timeline from the chaos schedule.
	retire := newRetireInjector()
	chain := []Injector{}
	reporters := []statsReporter{retire}
	var ops []timelineOp
	seq := 0
	addOp := func(at trace.Minutes, kind string, a Action, idx int) {
		ops = append(ops, timelineOp{at: at, seq: seq, kind: kind, action: a, idx: idx})
		seq++
	}
	for i, a := range s.Chaos {
		switch a.Kind {
		case ActionCEStorm:
			inj, err := newStormInjector(ctxI, i, a)
			if err != nil {
				return nil, err
			}
			chain = append(chain, inj)
			reporters = append(reporters, inj)
		case ActionFaultBurst:
			inj, err := newBurstInjector(ctxI, i, a)
			if err != nil {
				return nil, err
			}
			chain = append(chain, inj)
			reporters = append(reporters, inj)
		case ActionLogLag:
			inj := newLagInjector(ctxI, i, a)
			chain = append(chain, inj)
			reporters = append(reporters, inj)
		case ActionMaintenance:
			addOp(a.At, a.Kind, a, i)
			addOp(a.At+a.Duration, opResume, a, i)
		default: // hotswap, train_promote, rollback
			addOp(a.At, a.Kind, a, i)
		}
	}
	chain = append(chain, retire) // retirement drops injected events too
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].at != ops[j].at {
			return ops[i].at < ops[j].at
		}
		return ops[i].seq < ops[j].seq
	})

	// --- Tick boundaries: the regular grid plus every op time, so
	// control actions always fire exactly on a window edge.
	bset := map[trace.Minutes]bool{}
	for t := trace.Minutes(0); t < trace.ObservationSpan; t += s.TickMinutes {
		bset[t] = true
	}
	for _, op := range ops {
		bset[op.at] = true
	}
	bounds := make([]trace.Minutes, 0, len(bset)+1)
	for t := range bset {
		bounds = append(bounds, t)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	bounds = append(bounds, trace.ObservationSpan)

	// --- The run loop.
	st := &runState{s: s, runs: runs, order: order, retire: retire, ctxI: ctxI}
	opi, evi := 0, 0
	for tick := 0; tick+1 < len(bounds); tick++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		if opt.TickHook != nil {
			opt.TickHook(tick)
		}
		from, to := bounds[tick], bounds[tick+1]
		for opi < len(ops) && ops[opi].at == from {
			if err := st.control(ops[opi], logf); err != nil {
				return nil, err
			}
			opi++
		}
		lo := evi
		for evi < len(stream) && stream[evi].Time < to {
			evi++
		}
		batch := append([]trace.Event(nil), stream[lo:evi]...)
		for _, inj := range chain {
			batch = inj.Tick(from, to, batch)
		}
		if err := st.deliver(ctx, batch); err != nil {
			return nil, err
		}
	}
	// End of run: close any still-open maintenance window and drain the
	// injectors' held backlogs through the chain tail.
	for _, pf := range order {
		st.resume(runs[pf])
	}
	var tail []trace.Event
	for _, inj := range chain {
		tail = append(tail, inj.Flush(trace.ObservationSpan)...)
	}
	if len(tail) > 0 {
		sort.Stable(trace.ByTime(tail))
		tail = retire.Tick(trace.ObservationSpan, trace.ObservationSpan, tail)
		if err := st.deliver(ctx, tail); err != nil {
			return nil, err
		}
	}
	for _, pf := range order {
		// Every tick was flushed, so all that is left is what never served.
		if res := runs[pf].cp.Flush(); res.Pending > 0 {
			return nil, fmt.Errorf("scenario: %s: %d ticks never served", pf, res.Pending)
		}
	}

	// --- Outcome resolution and report assembly.
	rep := buildReport(s, st, len(stream), reporters)
	logf("run: %d events delivered, %d alarms, passed=%v",
		rep.Counters.EventsDelivered, rep.Counters.Alarms, rep.Passed)
	return rep, nil
}

// runState carries the mutable cross-tick state of one run.
type runState struct {
	s      *Scenario
	runs   map[platform.ID]*platformRun
	order  []platform.ID
	retire *retireInjector
	ctxI   *injectCtx

	alarms    []mlops.Alarm
	delivered int
	heldTotal int
	hotswaps  int
	promotes  int
	rollbacks int
}

// appendAlarms adds one batch of alarms in (Time, DIMM) order.
func (st *runState) appendAlarms(as []mlops.Alarm) {
	st.alarms = append(st.alarms, as...)
}

// deliver routes one post-injection batch to the per-platform control
// planes, each platform's share served before the next window opens (a
// paused platform's is journaled for its resume). Platform splitting is
// deterministic (DIMM identity), and the window's alarms are merged in
// the engine's emission order (mlops.MergeAlarms) so the stream does not
// depend on platform iteration order.
func (st *runState) deliver(ctx context.Context, batch []trace.Event) error {
	if len(batch) == 0 {
		return nil
	}
	var perPlatform [][]mlops.Alarm
	for _, pf := range st.order {
		var sub []trace.Event
		for _, e := range batch {
			if e.DIMM.Platform == pf {
				sub = append(sub, e)
			}
		}
		if len(sub) == 0 {
			continue
		}
		st.delivered += len(sub)
		pr := st.runs[pf]
		if pr.paused {
			pr.held += len(sub)
		}
		as, err := pr.cp.ServeStream(ctx, sub)
		if err != nil {
			return err
		}
		perPlatform = append(perPlatform, as)
	}
	st.appendAlarms(mlops.MergeAlarms(perPlatform))
	return nil
}

// resume closes a platform's maintenance window, if open: the control
// plane serves what it journaled, and the events count into events_held.
// The alarms merge as one list — the order one batch of the held events
// emits in, even when lagged events arrive out of time order.
func (st *runState) resume(pr *platformRun) {
	if !pr.paused {
		return
	}
	st.heldTotal += pr.held
	pr.paused, pr.held = false, 0
	st.appendAlarms(mlops.MergeAlarms([][]mlops.Alarm{pr.cp.Resume().Alarms}))
}

// targets returns the platforms an action addresses, in fleet order.
func (st *runState) targets(a Action) []platform.ID {
	if a.Platform == "" {
		return st.order
	}
	for _, pf := range st.order {
		if pf == a.Platform {
			return []platform.ID{pf}
		}
	}
	return nil
}

// control executes one timeline operation at its scheduled window edge.
func (st *runState) control(op timelineOp, logf func(string, ...any)) error {
	a := op.action
	switch op.kind {
	case ActionMaintenance:
		for _, pf := range st.targets(a) {
			st.runs[pf].paused = true
			st.runs[pf].cp.Pause()
		}
		logf("chaos: maintenance window opens at %v", op.at)
	case opResume:
		for _, pf := range st.targets(a) {
			st.resume(st.runs[pf])
		}
		logf("chaos: maintenance window closes at %v", op.at)
	case ActionHotswap:
		n, err := st.hotswap(op)
		if err != nil {
			return err
		}
		logf("chaos: hot-swapped %d DIMMs at %v", n, op.at)
	case ActionTrainPromote:
		for _, pf := range st.targets(a) {
			pr := st.runs[pf]
			trainEndDay, valEndDay := a.TrainEndDay, a.ValEndDay
			if valEndDay == 0 {
				valEndDay = int(op.at / trace.Day)
				trainEndDay = valEndDay * 5 / 6
			}
			if trainEndDay <= 0 || valEndDay <= trainEndDay {
				return fmt.Errorf("scenario: train_promote at %v: split %d/%d too early",
					op.at, trainEndDay, valEndDay)
			}
			pr.pipe.Seed = xrand.Derive(st.s.Seed, 0x7700+uint64(op.idx)).Uint64()
			tr, err := pr.pipe.TrainAndMaybePromote(pr.store,
				trace.Minutes(trainEndDay)*trace.Day, trace.Minutes(valEndDay)*trace.Day)
			if err != nil {
				return fmt.Errorf("scenario: train_promote on %s: %w", pf, err)
			}
			if !tr.Promoted && a.Force {
				if err := pr.pipe.Registry.Promote(pr.pipe.ModelName, tr.Version.Version); err != nil {
					return err
				}
				tr.Promoted = true
			}
			if tr.Promoted {
				st.promotes++
			}
			logf("chaos: retrain %s at %v → v%d promoted=%v (%s)",
				pf, op.at, tr.Version.Version, tr.Promoted, tr.Reason)
		}
	case ActionRollback:
		for _, pf := range st.targets(a) {
			pr := st.runs[pf]
			mv, err := pr.pipe.Registry.Rollback(pr.pipe.ModelName)
			if err != nil {
				return fmt.Errorf("scenario: rollback on %s: %w", pf, err)
			}
			st.rollbacks++
			logf("chaos: %s rolled back to v%d at %v", pf, mv.Version, op.at)
		}
	default:
		return fmt.Errorf("scenario: unscheduled control action %q", op.kind)
	}
	return nil
}

// hotswap retires the selected modules: all later events of a retired
// module are dropped from the stream, and its UE (if any) no longer
// happens in this fleet. The engine needs no call, since the fresh
// module in the slot emits nothing. A swap never rewrites alarms from
// before it: the old module's earlier telemetry, even when a maintenance
// window or a log lag delivers it after the swap, is scored on that
// module's own history.
func (st *runState) hotswap(op timelineOp) (int, error) {
	a := op.action
	var targets []trace.DIMMID
	switch a.Selector {
	case "alarmed":
		seen := map[trace.DIMMID]bool{}
		for _, al := range st.alarms {
			if seen[al.DIMM] || (a.Platform != "" && al.DIMM.Platform != a.Platform) {
				continue
			}
			seen[al.DIMM] = true
			targets = append(targets, al.DIMM)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
	case "random":
		sub := xrand.Derive(st.ctxI.seed, 0x4073_0000+uint64(op.idx)).Uint64()
		for _, i := range st.ctxI.eligible(a.Platform) {
			if xrand.Derive(sub, uint64(i)).Float64() < a.Fraction {
				targets = append(targets, st.ctxI.dimms[i].ID)
			}
		}
	}
	if a.MaxTargets > 0 && len(targets) > a.MaxTargets {
		targets = targets[:a.MaxTargets]
	}
	for _, id := range targets {
		pr := st.runs[id.Platform]
		if pr == nil {
			return 0, fmt.Errorf("scenario: hotswap target %s has no serving platform", id)
		}
		st.retire.retire(id, op.at)
		delete(pr.failed, id)
		st.hotswaps++
	}
	return len(targets), nil
}
