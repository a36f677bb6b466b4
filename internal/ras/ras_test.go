package ras

import (
	"math"
	"testing"

	"memfp/internal/features"
	"memfp/internal/platform"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

func dimm(i int) trace.DIMMID {
	return trace.DIMMID{Platform: platform.Purley, Server: i, Slot: 0}
}

func TestSimulateMatchesVIRRFormula(t *testing.T) {
	// Large synthetic run: measured VIRR must converge to the paper's
	// closed form (1 − yc/precision)·recall.
	rng := xrand.New(1)
	cfg := DefaultConfig()
	var alarms []Alarm
	var failures []Failure
	n := 20000
	// Construct precision 0.5, recall 0.8: 4000 failures; 3200 alarmed
	// & covered (TP), 3200 false alarms, 800 missed.
	tp, fp, fn := 0, 0, 0
	for i := 0; i < n; i++ {
		switch {
		case tp < 3200:
			alarms = append(alarms, Alarm{Time: 100, DIMM: dimm(i)})
			failures = append(failures, Failure{Time: 100 + trace.Minutes(rng.Intn(1000))*10 + 1, DIMM: dimm(i)})
			tp++
		case fp < 3200:
			alarms = append(alarms, Alarm{Time: 100, DIMM: dimm(i)})
			fp++
		case fn < 800:
			failures = append(failures, Failure{Time: 500, DIMM: dimm(i)})
			fn++
		}
	}
	out, err := Simulate(cfg, alarms, failures)
	if err != nil {
		t.Fatal(err)
	}
	if out.TP != 3200 || out.FP != 3200 || out.FN != 800 {
		t.Fatalf("confusion: %+v", out)
	}
	prec, rec := out.Precision(), out.Recall()
	want := (1 - cfg.ColdFraction/prec) * rec
	got := out.VIRR()
	if math.Abs(got-want) > 0.03 {
		t.Errorf("simulated VIRR %.3f vs closed form %.3f", got, want)
	}
}

func TestSimulateNegativeVIRRWhenPrecisionLow(t *testing.T) {
	// Precision 0.05 < yc 0.1 → prediction must hurt.
	var alarms []Alarm
	var failures []Failure
	for i := 0; i < 2000; i++ {
		alarms = append(alarms, Alarm{Time: 100, DIMM: dimm(i)})
		if i < 100 {
			failures = append(failures, Failure{Time: 200, DIMM: dimm(i)})
		}
	}
	out, err := Simulate(DefaultConfig(), alarms, failures)
	if err != nil {
		t.Fatal(err)
	}
	if out.VIRR() >= 0 {
		t.Errorf("VIRR %.3f should be negative at precision %.3f", out.VIRR(), out.Precision())
	}
}

func TestSimulateCapacityDegradesToCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ColdFraction = 0 // only capacity forces cold migrations
	cfg.LiveCapacityPerDay = 5
	var alarms []Alarm
	for i := 0; i < 50; i++ {
		alarms = append(alarms, Alarm{Time: 100, DIMM: dimm(i)}) // all same day
	}
	out, err := Simulate(cfg, alarms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Actions[ActionLiveMigration] != 5 {
		t.Errorf("live migrations %d, want capacity 5", out.Actions[ActionLiveMigration])
	}
	if out.Actions[ActionColdMigration] != 45 {
		t.Errorf("cold migrations %d, want 45", out.Actions[ActionColdMigration])
	}
}

func TestSimulateLateAlarmNotCovered(t *testing.T) {
	// Alarm after the failure: the failure is missed.
	alarms := []Alarm{{Time: 500, DIMM: dimm(1)}}
	failures := []Failure{{Time: 100, DIMM: dimm(1)}}
	out, err := Simulate(DefaultConfig(), alarms, failures)
	if err != nil {
		t.Fatal(err)
	}
	if out.TP != 0 || out.FN != 1 || out.FP != 1 {
		t.Errorf("late alarm accounting: %+v", out)
	}
}

func TestSimulateWindowExpiry(t *testing.T) {
	// Alarm far before the failure (beyond the prediction window).
	alarms := []Alarm{{Time: 100, DIMM: dimm(1)}}
	failures := []Failure{{Time: 100 + 2*features.PredictionWindow, DIMM: dimm(1)}}
	out, err := Simulate(DefaultConfig(), alarms, failures)
	if err != nil {
		t.Fatal(err)
	}
	if out.TP != 0 || out.FN != 1 {
		t.Errorf("expired alarm accounting: %+v", out)
	}
}

func TestSimulateValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VMsPerServer = 0
	if _, err := Simulate(cfg, nil, nil); err == nil {
		t.Error("zero VMs should error")
	}
	cfg = DefaultConfig()
	cfg.ColdFraction = 1.5
	if _, err := Simulate(cfg, nil, nil); err == nil {
		t.Error("bad cold fraction should error")
	}
}
