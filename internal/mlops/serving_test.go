package mlops

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"memfp/internal/eval"
	"memfp/internal/faultsim"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// trainedPipeline generates a fleet and boots a promoted production
// model, shared (and cached — training once is enough) fixture for the
// serving-equivalence tests.
var fixtureOnce sync.Once
var fixturePipe *Pipeline
var fixtureRes *faultsim.Result
var fixtureErr error

func trainedPipeline(t *testing.T) (*Pipeline, *faultsim.Result) {
	t.Helper()
	fixtureOnce.Do(func() {
		res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.Purley, Scale: 0.03, Seed: 31})
		if err != nil {
			fixtureErr = err
			return
		}
		pipe := NewPipeline(platform.Purley)
		pipe.Seed = 31
		tr, err := pipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day)
		if err != nil {
			fixtureErr = err
			return
		}
		if !tr.Promoted {
			fixtureErr = fmt.Errorf("bootstrap training should promote: %s", tr.Reason)
			return
		}
		fixturePipe, fixtureRes = pipe, res
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixturePipe, fixtureRes
}

// ingestStore registers the store's DIMMs, sorts their events into one
// time-ordered stream and serves it through IngestBatch in 1024-event
// ticks — the tick loop the control plane's drivers run.
func ingestStore(t *testing.T, s *Server, st *trace.Store) []Alarm {
	t.Helper()
	var stream []trace.Event
	for _, l := range st.DIMMs() {
		s.RegisterDIMM(l.ID, l.Part)
		stream = append(stream, l.Events...)
	}
	sort.Stable(trace.ByTime(stream))
	var alarms []Alarm
	for lo := 0; lo < len(stream); lo += 1024 {
		as, err := s.IngestBatch(stream[lo:min(lo+1024, len(stream))])
		if err != nil {
			t.Fatal(err)
		}
		alarms = append(alarms, as...)
	}
	return alarms
}

// collectReplay serves the store through a fresh engine configuration
// and returns the alarm stream.
func collectReplay(t *testing.T, pipe *Pipeline, res *faultsim.Result, shards int) []Alarm {
	t.Helper()
	s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, shards)
	return ingestStore(t, s, res.Store)
}

// TestServingShardedMatchesBaseline is the engine's safety net: for
// shard counts 1, 4 and 16 the engine's replay must produce the
// byte-identical alarm stream (time, DIMM, score bits, model label,
// order) that the preserved pre-refactor sequential path produces on the
// same fleet and production model.
func TestServingShardedMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pipe, res := trainedPipeline(t)
	base := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, 0)
	var want []Alarm
	if _, err := base.ReplayBaseline(context.Background(), res.Store, func(a Alarm) {
		want = append(want, a)
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline emitted no alarms; fixture too small to prove anything")
	}
	for _, shards := range []int{1, 4, 16} {
		got := collectReplay(t, pipe, res, shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d alarms, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: alarm %d differs:\n got %+v\nwant %+v",
					shards, i, got[i], want[i])
			}
		}
	}
}

// TestIngestBatchMatchesIngest is the driver-equivalence table: every way
// into the engine — per-event ticks, IngestBatch at tick sizes from one
// event to the whole stream — is only a way of cutting the same stream
// into IngestBatch ticks, so at every shard count, and bounded (see
// the drivers' bounded column) or not, each must emit the sequential
// oracle's alarm stream exactly (micro-batched scoring defers only the
// ScoreBatch call, never the decision).
func TestIngestBatchMatchesIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pipe, res := trainedPipeline(t)
	logs := res.Store.DIMMs()
	var stream []trace.Event
	for _, l := range logs {
		stream = append(stream, l.Events...)
	}
	sort.Stable(trace.ByTime(stream))

	var want []Alarm
	base := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, 0)
	if _, err := base.ReplayBaseline(context.Background(), res.Store, func(a Alarm) {
		want = append(want, a)
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline emitted no alarms; fixture too small to prove anything")
	}

	// The fixture must exercise the two tick shapes that distinguish the
	// drivers: a tick boundary falling inside one minute's events, and a
	// tick long enough to queue two predictions for one DIMM before the
	// first is scored.
	const smallTick = 7
	splits := false
	for i := smallTick; i < len(stream) && !splits; i += smallTick {
		splits = stream[i-1].Time == stream[i].Time
	}
	if !splits {
		t.Fatalf("no %d-event tick boundary splits a minute; fixture proves nothing", smallTick)
	}
	twoDue := false
	lastDue := map[trace.DIMMID]trace.Minutes{}
	for _, e := range stream {
		if e.Type != trace.TypeCE || e.Time-lastDue[e.DIMM] < base.PredictEvery {
			continue
		}
		if _, seen := lastDue[e.DIMM]; seen {
			twoDue = true
			break
		}
		lastDue[e.DIMM] = e.Time
	}
	if !twoDue {
		t.Fatal("no DIMM has two predictions due in the whole-stream tick; fixture proves nothing")
	}

	ticks := func(size int) func(*testing.T, *Server) []Alarm {
		return func(t *testing.T, s *Server) []Alarm {
			var got []Alarm
			for lo := 0; lo < len(stream); lo += size {
				hi := lo + size
				if hi > len(stream) {
					hi = len(stream)
				}
				as, err := s.IngestBatch(stream[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, as...)
			}
			return got
		}
	}
	// bounded lists the shard counts a driver also runs at under
	// tinyBudget. At one and seven events a tick that budget evicts after
	// almost every tick and thaws on the next event, ~10 s a row, so those
	// two tick sizes get one bounded row each, and Ingest — IngestBatch of
	// one event, alarm unwrapped — leaves its bounded row to IngestBatch-1.
	both := []int{1, 4}
	drivers := []struct {
		name    string
		bounded []int
		run     func(*testing.T, *Server) []Alarm
	}{
		{"Ingest", nil, func(t *testing.T, s *Server) []Alarm {
			var got []Alarm
			for _, e := range stream {
				a, err := ingestOne(s, e)
				if err != nil {
					t.Fatal(err)
				}
				if a != nil {
					got = append(got, *a)
				}
			}
			return got
		}},
		{"IngestBatch-1", []int{4}, ticks(1)},
		{"IngestBatch-7", []int{1}, ticks(smallTick)},
		{"IngestBatch-1024", both, ticks(1024)},
		{"IngestBatch-all", both, ticks(len(stream))},
	}
	for _, d := range drivers {
		for _, shards := range both {
			for _, budget := range []int64{0, tinyBudget} {
				if budget > 0 && !slices.Contains(d.bounded, shards) {
					continue
				}
				t.Run(fmt.Sprintf("%s/shards%d/budget%d", d.name, shards, budget), func(t *testing.T) {
					t.Parallel() // engines are independent; the per-event bounded rows are slow
					s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, shards)
					s.MemoryBudget = budget
					for _, l := range logs {
						s.RegisterDIMM(l.ID, l.Part)
					}
					got := d.run(t, s)
					if len(got) != len(want) {
						t.Fatalf("%d alarms, want %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("alarm %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestCooldownSuppressesTimeZeroAlarm is the regression test for the
// sentinel bug: an alarm fired at minute 0 must suppress repeats inside
// the cooldown window exactly like any later alarm (the old
// `lastAlarm > 0` guard treated time zero as "never alarmed").
func TestCooldownSuppressesTimeZeroAlarm(t *testing.T) {
	reg := NewRegistry()
	always := func(x []float64) float64 { return 1.0 }
	registerFunc(t, reg, "m", always, eval.Metrics{Precision: 1, F1: 1}, 0.5)
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	server := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
	server.PredictEvery = 0 // let the very first event at minute 0 predict
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	id := trace.DIMMID{Platform: platform.Purley, Server: 1, Slot: 1}
	server.RegisterDIMM(id, part)
	mk := func(tm trace.Minutes) trace.Event {
		return trace.Event{Time: tm, Type: trace.TypeCE, DIMM: id}
	}
	a0, err := ingestOne(server, mk(0))
	if err != nil || a0 == nil {
		t.Fatalf("alarm at minute 0 missing: %v %v", a0, err)
	}
	a1, err := ingestOne(server, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != nil {
		t.Fatal("repeat alarm inside cooldown after a minute-0 alarm (sentinel regression)")
	}
	a2, err := ingestOne(server, mk(cooldown+1))
	if err != nil || a2 == nil {
		t.Fatalf("post-cooldown alarm missing: %v %v", a2, err)
	}
}

// TestIngestOutOfOrderRecovers: a late event must not strand its DIMM on
// the degraded linear path — the engine re-sorts the log once and the
// next prediction sees the canonical history.
func TestIngestOutOfOrderRecovers(t *testing.T) {
	reg := NewRegistry()
	var lastVec []float64
	spy := func(x []float64) float64 {
		lastVec = append([]float64(nil), x...)
		return 0
	}
	registerFunc(t, reg, "m", spy, eval.Metrics{Precision: 1, F1: 1}, 0.5)
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	fs := NewFeatureStore()
	server := NewShardedServer(platform.Purley, fs, reg, "m", nil, 2)
	server.PredictEvery = 0
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	id := trace.DIMMID{Platform: platform.Purley, Server: 3, Slot: 2}
	server.RegisterDIMM(id, part)
	times := []trace.Minutes{100, 400, 250 /* late */, 700}
	for _, tm := range times {
		if _, err := ingestOne(server, trace.Event{Time: tm, Type: trace.TypeCE, DIMM: id}); err != nil {
			t.Fatal(err)
		}
	}
	// The engine's view must now match a canonically sorted history.
	oracle := &trace.DIMMLog{ID: id, Part: part}
	for _, tm := range []trace.Minutes{100, 250, 400, 700} {
		oracle.Append(trace.Event{Time: tm, Type: trace.TypeCE, DIMM: id})
	}
	want := fs.extractor.NewCursor(oracle).ExtractAt(700)
	if len(lastVec) != len(want) {
		t.Fatalf("vector length %d vs %d", len(lastVec), len(want))
	}
	for i := range want {
		if lastVec[i] != want[i] {
			t.Fatalf("feature %d: served %v, want %v (late event mis-folded)", i, lastVec[i], want[i])
		}
	}
}

// TestIngestBatchDeliversAlarmsOnError: alarms whose cooldown state
// advanced before a mid-batch error must be returned with the error,
// not dropped (they would otherwise be suppressed forever).
func TestIngestBatchDeliversAlarmsOnError(t *testing.T) {
	reg := NewRegistry()
	always := func(x []float64) float64 { return 1.0 }
	registerFunc(t, reg, "m", always, eval.Metrics{Precision: 1, F1: 1}, 0.5)
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	good := trace.DIMMID{Platform: platform.Purley, Server: 1, Slot: 1}
	unknown := trace.DIMMID{Platform: platform.Purley, Server: 99, Slot: 9}
	server := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
	server.PredictEvery = 0
	server.RegisterDIMM(good, part)
	alarms, err := server.IngestBatch([]trace.Event{
		{Time: 10, Type: trace.TypeCE, DIMM: good},
		{Time: 11, Type: trace.TypeCE, DIMM: unknown},
	})
	if err == nil {
		t.Fatal("unregistered DIMM must error")
	}
	if len(alarms) != 1 || alarms[0].DIMM != good {
		t.Fatalf("fired alarm lost on error path: %+v", alarms)
	}
}

// TestConcurrentIngestWithPromotion drives every shard from its own
// goroutine while the registry keeps promoting new versions mid-stream —
// the -race proof for shard-local locking, the epoch-invalidated
// production cache, and the hardened monitor.
func TestConcurrentIngestWithPromotion(t *testing.T) {
	reg := NewRegistry()
	for v := 1; v <= 6; v++ {
		v := v
		scorer := func(x []float64) float64 { return float64(v) / 10 }
		registerFunc(t, reg, "m", scorer, eval.Metrics{Precision: 1, F1: 1}, 0.99)
	}
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor()
	server := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", mon, 8)
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	const feeders = 8
	const dimmsPerFeeder = 4
	ids := make([][]trace.DIMMID, feeders)
	for f := 0; f < feeders; f++ {
		for d := 0; d < dimmsPerFeeder; d++ {
			id := trace.DIMMID{Platform: platform.Purley, Server: f*dimmsPerFeeder + d, Slot: 0}
			server.RegisterDIMM(id, part)
			ids[f] = append(ids[f], id)
		}
	}
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := ids[f][i%dimmsPerFeeder]
				if _, err := ingestOne(server, trace.Event{
					Time: trace.Minutes(i * 7), Type: trace.TypeCE, DIMM: id,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 2; v <= 6; v++ {
			if err := reg.Promote("m", v); err != nil {
				t.Error(err)
				return
			}
			_ = mon.PSIOf(mon.ScoreBins())
			_ = mon.Dashboard()
		}
	}()
	wg.Wait()
	if got, want := mon.EventCount(trace.TypeCE), feeders*400; got != want {
		t.Fatalf("monitor counted %d CE events, want %d", got, want)
	}
	if mon.PredictionCount() == 0 {
		t.Fatal("no predictions counted")
	}
}

// TestMonitorConcurrentCounters hammers every monitor entry point from
// parallel goroutines; -race plus the final tallies prove the hardened
// counters.
func TestMonitorConcurrentCounters(t *testing.T) {
	m := NewMonitor()
	m.SetReferenceScores([]float64{0.1, 0.5, 0.9})
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.CountEvent(trace.Event{Type: trace.TypeCE})
				m.CountPrediction(float64(i%10) / 10)
				if i%100 == 0 {
					m.CountAlarm(Alarm{Time: trace.Minutes(i), Model: fmt.Sprint(w)})
					m.Feedback(1, 0, 0)
					_ = m.PSIOf(m.ScoreBins())
					_ = m.Dashboard()
					_, _ = m.LivePrecisionRecall()
				}
			}
		}()
	}
	wg.Wait()
	if got := m.EventCount(trace.TypeCE); got != workers*per {
		t.Fatalf("EventCount = %d, want %d", got, workers*per)
	}
	if got := m.PredictionCount(); got != workers*per {
		t.Fatalf("PredictionCount = %d, want %d", got, workers*per)
	}
	if got := m.AlarmCount(); got != workers*(per/100) {
		t.Fatalf("AlarmCount = %d, want %d", got, workers*(per/100))
	}
}
