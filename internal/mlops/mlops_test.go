package mlops

import (
	"context"
	"testing"

	"memfp/internal/eval"
	"memfp/internal/faultsim"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	s := func(x []float64) float64 { return 0.5 }
	v1 := registerFunc(t, r, "m", s, eval.Metrics{F1: 0.5, Precision: 0.5}, 0.5)
	if v1.Version != 1 || v1.Stage != StageStaging {
		t.Fatalf("v1: %+v", v1)
	}
	if _, err := r.Production("m"); err == nil {
		t.Error("no production version yet")
	}
	if err := r.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	p, err := r.Production("m")
	if err != nil || p.Version != 1 {
		t.Fatalf("production: %v %v", p, err)
	}
	v2 := registerFunc(t, r, "m", s, eval.Metrics{F1: 0.6, Precision: 0.5}, 0.5)
	if err := r.Promote("m", v2.Version); err != nil {
		t.Fatal(err)
	}
	p, _ = r.Production("m")
	if p.Version != 2 {
		t.Errorf("production should be v2, got v%d", p.Version)
	}
	if v1.Stage != StageArchived {
		t.Errorf("v1 should be archived, is %s", v1.Stage)
	}
	if err := r.Promote("m", 99); err == nil {
		t.Error("promoting unknown version should error")
	}
	if len(r.List()) != 2 {
		t.Errorf("list has %d entries", len(r.List()))
	}
}

func TestPromotionGate(t *testing.T) {
	cand := &ModelVersion{Metrics: eval.Metrics{F1: 0.5, Precision: 0.4}}
	ok, _ := decide(nil, cand)
	if !ok {
		t.Error("bootstrap should promote")
	}
	cur := &ModelVersion{Metrics: eval.Metrics{F1: 0.5, Precision: 0.4}}
	ok, _ = decide(cur, &ModelVersion{Metrics: eval.Metrics{F1: 0.505, Precision: 0.4}})
	if ok {
		t.Error("insufficient gain should not promote")
	}
	ok, _ = decide(cur, &ModelVersion{Metrics: eval.Metrics{F1: 0.6, Precision: 0.4}})
	if !ok {
		t.Error("clear gain should promote")
	}
	ok, reason := decide(cur, &ModelVersion{Metrics: eval.Metrics{F1: 0.9, Precision: 0.1}})
	if ok {
		t.Errorf("precision floor should block (%s)", reason)
	}
}

func TestMonitorPSI(t *testing.T) {
	m := NewMonitor()
	ref := make([]float64, 1000)
	for i := range ref {
		ref[i] = float64(i%10) / 10.0
	}
	m.SetReferenceScores(ref)
	// Same distribution → PSI ≈ 0.
	for _, s := range ref {
		m.CountPrediction(s)
	}
	if psi := m.PSIOf(m.ScoreBins()); psi > 0.01 {
		t.Errorf("identical distribution PSI %v", psi)
	}
	// Shifted distribution → large PSI.
	m2 := NewMonitor()
	m2.SetReferenceScores(ref)
	for i := 0; i < 1000; i++ {
		m2.CountPrediction(0.95)
	}
	if psi := m2.PSIOf(m2.ScoreBins()); psi < 0.25 {
		t.Errorf("shifted distribution PSI %v, want > 0.25", psi)
	}
}

func TestMonitorRetrainDecision(t *testing.T) {
	m := NewMonitor()
	m.SetReferenceScores([]float64{0.1, 0.2, 0.3, 0.4, 0.5})
	for i := 0; i < 100; i++ {
		m.CountPrediction(0.99)
	}
	dec := m.ShouldRetrain(m.PSIOf(m.ScoreBins()), 0.25, 0.2)
	if !dec.Retrain {
		t.Errorf("drift should trigger retraining: %+v", dec)
	}
	// Precision collapse path.
	m2 := NewMonitor()
	m2.Feedback(1, 20, 3)
	dec2 := m2.ShouldRetrain(m2.PSIOf(m2.ScoreBins()), 10, 0.2)
	if !dec2.Retrain {
		t.Errorf("precision collapse should trigger retraining: %+v", dec2)
	}
	prec, rec := m2.LivePrecisionRecall()
	if prec >= 0.2 || rec >= 0.5 {
		t.Errorf("live P=%v R=%v", prec, rec)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test generates a fleet")
	}
	res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.Purley, Scale: 0.03, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(platform.Purley)
	pipe.Seed = 31
	tr, err := pipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Promoted {
		t.Fatalf("bootstrap training should promote: %s", tr.Reason)
	}
	if _, err := pipe.Registry.Production(pipe.ModelName); err != nil {
		t.Fatal(err)
	}

	server := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, pipe.Monitor, 0)
	alarms := ingestStore(t, server, res.Store)
	if len(alarms) == 0 {
		t.Error("no alarms over a fleet with UE DIMMs")
	}

	failed := map[trace.DIMMID]trace.Minutes{}
	for _, l := range res.Store.DIMMs() {
		if ue, ok := l.FirstUE(); ok {
			failed[l.ID] = ue
		}
	}
	pipe.ResolveAlarms(alarms, failed, 30*trace.Day)
	prec, rec := pipe.Monitor.LivePrecisionRecall()
	if prec == 0 && rec == 0 {
		t.Error("feedback did not resolve any alarms")
	}
	if pipe.Monitor.Dashboard() == "" {
		t.Error("empty dashboard")
	}
}

// TestResolveAlarmsCountsEachOutcomeOnce: a DIMM counts once, at its first
// alarm — a TP with its lead when it fails within the window after it, an
// FP when it fails before the alarm, too late or never — an unalarmed
// failure is an FN, and resolving the same alarms again replaces the
// monitor's feedback instead of adding to it.
func TestResolveAlarmsCountsEachOutcomeOnce(t *testing.T) {
	id := func(n int) trace.DIMMID { return trace.DIMMID{Platform: platform.Purley, Server: n} }
	alarms := []Alarm{
		{Time: 10, DIMM: id(1)}, {Time: 20, DIMM: id(1)}, // fails at 100: TP, lead 90
		{Time: 50, DIMM: id(2)}, // never fails: FP
		{Time: 80, DIMM: id(4)}, // failed at 60, before its alarm: FP
		{Time: 90, DIMM: id(5)}, // fails at 400, past the window: FP
	}
	failed := map[trace.DIMMID]trace.Minutes{id(1): 100, id(3): 70, id(4): 60, id(5): 400}
	pipe := NewPipeline(platform.Purley)
	for pass := 0; pass < 2; pass++ {
		tp, fp, fn, leads := pipe.ResolveAlarms(alarms, failed, 200)
		if tp != 1 || fp != 3 || fn != 1 || len(leads) != 1 || leads[0] != 90 {
			t.Fatalf("pass %d: TP=%d FP=%d FN=%d leads=%v, want 1 3 1 [90]", pass, tp, fp, fn, leads)
		}
		if tp, fp, fn := pipe.Monitor.FeedbackCounts(); tp != 1 || fp != 3 || fn != 1 {
			t.Fatalf("pass %d: monitor holds TP=%d FP=%d FN=%d, want 1 3 1", pass, tp, fp, fn)
		}
	}
}

func TestServerRejectsUnknownDIMM(t *testing.T) {
	server := NewShardedServer(platform.K920, NewFeatureStore(), NewRegistry(), "m", nil, 0)
	_, err := ingestOne(server, trace.Event{
		Time: 1, Type: trace.TypeCE,
		DIMM: trace.DIMMID{Platform: platform.K920, Server: 1, Slot: 1},
	})
	if err == nil {
		t.Error("ingest for unregistered DIMM should error")
	}
}

func TestServerCooldown(t *testing.T) {
	reg := NewRegistry()
	always := func(x []float64) float64 { return 1.0 }
	registerFunc(t, reg, "m", always, eval.Metrics{Precision: 1, F1: 1}, 0.5)
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	server := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 0)
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	id := trace.DIMMID{Platform: platform.Purley, Server: 1, Slot: 1}
	server.RegisterDIMM(id, part)
	mk := func(tm trace.Minutes) trace.Event {
		return trace.Event{Time: tm, Type: trace.TypeCE, DIMM: id}
	}
	a1, err := ingestOne(server, mk(100))
	if err != nil || a1 == nil {
		t.Fatalf("first ingest: %v %v", a1, err)
	}
	// Within cooldown: suppressed.
	a2, err := ingestOne(server, mk(100+2*trace.Hour))
	if err != nil || a2 != nil {
		t.Fatalf("cooldown violated: %v %v", a2, err)
	}
	// Past cooldown: fires again.
	a3, err := ingestOne(server, mk(100+13*trace.Hour))
	if err != nil || a3 == nil {
		t.Fatalf("post-cooldown alarm missing: %v %v", a3, err)
	}
}
