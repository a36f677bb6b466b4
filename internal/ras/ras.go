// Package ras simulates the memory RAS mitigation pipeline of paper
// §II-C / Figure 2: when a failure prediction fires, operations attempt VM
// live migration and memory mitigations (page offlining, sparing); a
// fraction yc falls back to cold migration, which interrupts the VMs.
// Unpredicted failures interrupt everything on the server.
//
// This turns the paper's closed-form VIRR into an executable simulation:
// replaying alarms and failures through the pipeline reproduces the
// (1 − yc/precision)·recall law and exposes the capacity effects the
// formula abstracts away.
package ras

import (
	"fmt"

	"memfp/internal/eval"
	"memfp/internal/features"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// Action is a mitigation applied to an alarmed server.
type Action string

// Mitigation actions from §II-C.
const (
	ActionLiveMigration Action = "vm-live-migration"
	ActionPageOffline   Action = "page-offlining"
	ActionSparing       Action = "sparing" // PCLS / PPR / ADDDC family
	ActionColdMigration Action = "vm-cold-migration"
)

// Config parameterizes the mitigation pipeline.
type Config struct {
	// VMsPerServer is Va in the paper's cost model.
	VMsPerServer int
	// ColdFraction is yc: the fraction of mitigation attempts that end
	// in cold migration (live migration or in-place mitigation failed).
	ColdFraction float64
	// LiveCapacityPerDay bounds concurrent live migrations; alarms
	// beyond capacity degrade to cold migration (capacity pressure is
	// one reason yc stays positive in production).
	LiveCapacityPerDay int
	Seed               uint64
}

// DefaultConfig mirrors the paper's evaluation: Va=10, yc=eval.YC.
func DefaultConfig() Config {
	return Config{VMsPerServer: 10, ColdFraction: eval.YC, LiveCapacityPerDay: 1 << 30, Seed: 1}
}

// Alarm is a prediction event for a DIMM at a given time.
type Alarm struct {
	Time trace.Minutes
	DIMM trace.DIMMID
}

// Failure is an actual UE event.
type Failure struct {
	Time trace.Minutes
	DIMM trace.DIMMID
}

// Outcome tallies a simulation run.
type Outcome struct {
	// TP/FP/FN at DIMM level (TN omitted: it plays no role in VIRR).
	TP, FP, FN int
	// Interruptions without prediction: Va · (TP + FN).
	BaselineInterruptions int
	// Interruptions with prediction: cold-migrated VMs on alarmed
	// servers plus full interruptions on missed failures.
	PredictedInterruptions int
	// Actions taken, by type.
	Actions map[Action]int
}

// VIRR is the measured VM Interruption Reduction Rate.
func (o Outcome) VIRR() float64 {
	if o.BaselineInterruptions == 0 {
		return 0
	}
	return float64(o.BaselineInterruptions-o.PredictedInterruptions) / float64(o.BaselineInterruptions)
}

// Precision returns TP/(TP+FP) over the run.
func (o Outcome) Precision() float64 {
	if o.TP+o.FP == 0 {
		return 0
	}
	return float64(o.TP) / float64(o.TP+o.FP)
}

// Recall returns TP/(TP+FN) over the run.
func (o Outcome) Recall() float64 {
	if o.TP+o.FN == 0 {
		return 0
	}
	return float64(o.TP) / float64(o.TP+o.FN)
}

// Simulate replays alarms against failures through the mitigation
// pipeline. An alarm covers a failure when it precedes it by at most Δtp
// (features.PredictionWindow). Each alarmed DIMM is mitigated once (first alarm); each failure
// is either covered (VMs already moved; only the cold-migrated fraction
// was interrupted at mitigation time) or missed (all VMs interrupted).
func Simulate(cfg Config, alarms []Alarm, failures []Failure) (Outcome, error) {
	if cfg.VMsPerServer <= 0 {
		return Outcome{}, fmt.Errorf("ras: VMsPerServer must be positive")
	}
	if cfg.ColdFraction < 0 || cfg.ColdFraction > 1 {
		return Outcome{}, fmt.Errorf("ras: ColdFraction out of [0,1]")
	}
	rng := xrand.New(cfg.Seed)
	out := Outcome{Actions: map[Action]int{}}

	firstAlarm := map[trace.DIMMID]trace.Minutes{}
	for _, a := range alarms {
		if t, ok := firstAlarm[a.DIMM]; !ok || a.Time < t {
			firstAlarm[a.DIMM] = a.Time
		}
	}
	failAt := map[trace.DIMMID]trace.Minutes{}
	for _, f := range failures {
		if t, ok := failAt[f.DIMM]; !ok || f.Time < t {
			failAt[f.DIMM] = f.Time
		}
	}

	// Mitigation phase: every alarmed DIMM gets the pipeline, subject to
	// daily live-migration capacity.
	liveUsed := map[trace.Minutes]int{} // per-day live migration count
	coldVMs := 0
	for dimm, at := range firstAlarm {
		day := at / trace.Day
		cold := rng.Bool(cfg.ColdFraction)
		if !cold && liveUsed[day] >= cfg.LiveCapacityPerDay {
			cold = true // capacity exhausted: degrade to cold migration
		}
		if cold {
			out.Actions[ActionColdMigration]++
			coldVMs += cfg.VMsPerServer
		} else {
			liveUsed[day]++
			out.Actions[ActionLiveMigration]++
			// In-place mitigation accompanies the migration.
			if rng.Bool(0.5) {
				out.Actions[ActionPageOffline]++
			} else {
				out.Actions[ActionSparing]++
			}
		}
		ue, failed := failAt[dimm]
		if failed && ue > at && ue-at <= features.PredictionWindow {
			out.TP++
		} else {
			out.FP++
		}
	}
	for dimm := range failAt {
		if at, ok := firstAlarm[dimm]; ok {
			ue := failAt[dimm]
			if ue > at && ue-at <= features.PredictionWindow {
				continue // covered
			}
		}
		out.FN++
	}

	out.BaselineInterruptions = cfg.VMsPerServer * (out.TP + out.FN)
	out.PredictedInterruptions = coldVMs + cfg.VMsPerServer*out.FN
	return out, nil
}
