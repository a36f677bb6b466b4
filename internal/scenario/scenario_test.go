package scenario

import (
	"reflect"
	"strings"
	"testing"

	"memfp/internal/faultsim"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// validDoc ends with the chaos sequence so error cases can append items.
const validDoc = `
name: t
seed: 3
fleet:
  scale: 0.01
  templates:
    - platform: Intel_Purley
      weight: 1
assertions:
  - type: alarm_count
    min: 1
chaos:
  - at_day: 100
    action: maintenance
    duration_days: 2
`

// assertDoc ends with the assertions sequence for the same reason.
const assertDoc = `
name: t
fleet:
  scale: 0.01
  templates:
    - platform: Intel_Purley
assertions:
`

// fleetDoc is a valid document without a fleet-level key after
// templates, so cases can append root keys or fleet regimes.
const fleetDoc = `
name: x
fleet:
  scale: 0.01
  templates:
    - platform: K920
`

// regimeDoc ends with the regimes sequence.
const regimeDoc = fleetDoc + "  regimes:\n"

func TestParseScenarioDefaults(t *testing.T) {
	s, err := Parse(validDoc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" || s.Seed != 3 {
		t.Fatalf("name/seed: %q/%d", s.Name, s.Seed)
	}
	if s.TickMinutes != trace.Day {
		t.Fatalf("default tick = %v, want one day", s.TickMinutes)
	}
	if s.Train.TrainEndDay != 150 || s.Train.ValEndDay != 180 {
		t.Fatalf("default split = %d/%d", s.Train.TrainEndDay, s.Train.ValEndDay)
	}
	if len(s.Chaos) != 1 || s.Chaos[0].At != 100*trace.Day || s.Chaos[0].Duration != 2*trace.Day {
		t.Fatalf("chaos: %+v", s.Chaos)
	}
	if len(s.Assertions) != 1 || s.Assertions[0].Min == nil || *s.Assertions[0].Min != 1 {
		t.Fatalf("assertions: %+v", s.Assertions)
	}
}

// everyKeyDoc sets every schema key at least once, each to a value other
// than its default, so a dropped or mistyped decode entry shows up as a
// field of TestParseScenarioEveryKey's want.
const everyKeyDoc = `
name: every-key
description: sets each schema key
seed: 9
tick_minutes: 720
record_alarms: yes
fleet:
  scale: 0.02
  max_events_per_dimm: 500
  templates:
    - platform: Intel_Whitley
      weight: 2.5
    - platform: K920
  regimes:
    - from_day: 30
      to_day: 60
      rate_mult: 1.5
      modes:
        row: 3
        bank: 0.5
train:
  trainer: forest
  train_end_day: 100
  val_end_day: 120
chaos:
  - at_day: 130
    action: train_promote
    train_end_day: 110
    val_end_day: 125
    force: true
  - at_minutes: 200000
    action: ce_storm
    duration_minutes: 1440
    platform: K920
    fraction: 0.25
    rate_per_day: 40
    mode: bank
    risky: on
  - at_day: 140
    action: fault_burst
    duration_days: 2
    count: 3
    burst_ces: 50
  - at_day: 150
    action: hotswap
    selector: alarmed
    max_targets: 7
assertions:
  - type: recall
    min: 0.1
  - type: psi
    max: 0.5
  - type: alarm_count
    min: 1
    max: 900
`

func TestParseScenarioEveryKey(t *testing.T) {
	s, err := Parse(everyKeyDoc)
	if err != nil {
		t.Fatal(err)
	}
	f := func(v float64) *float64 { return &v }
	want := &Scenario{
		Name:         "every-key",
		Description:  "sets each schema key",
		Seed:         9,
		TickMinutes:  720,
		RecordAlarms: true,
		Fleet: FleetGen{
			Scale:            0.02,
			MaxEventsPerDIMM: 500,
			Templates:        []Template{{Platform: platform.Whitley, Weight: 2.5}, {Platform: platform.K920, Weight: 1}},
			Regimes: []faultsim.Regime{{FromDay: 30, ToDay: 60, RateMult: 1.5,
				ModeMult: map[faultsim.Mode]float64{faultsim.ModeRow: 3, faultsim.ModeBank: 0.5}}},
		},
		Train: TrainSpec{Trainer: "Random forest", TrainEndDay: 100, ValEndDay: 120},
		Chaos: []Action{
			{At: 130 * trace.Day, Kind: ActionTrainPromote, TrainEndDay: 110, ValEndDay: 125, Force: true},
			{At: 200000, Kind: ActionCEStorm, Duration: 1440, Platform: platform.K920,
				Fraction: 0.25, RatePerDay: 40, Mode: faultsim.ModeBank, Risky: true},
			{At: 140 * trace.Day, Kind: ActionFaultBurst, Duration: 2 * trace.Day, Count: 3, BurstCEs: 50},
			{At: 150 * trace.Day, Kind: ActionHotswap, Selector: "alarmed", MaxTargets: 7},
		},
		Assertions: []Assertion{
			{Type: "recall", Min: f(0.1)},
			{Type: "psi", Max: f(0.5)},
			{Type: "alarm_count", Min: f(1), Max: f(900)},
		},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("decoded scenario:\n got %+v\nwant %+v", *s, *want)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"no name", "fleet:\n  scale: 0.01\n  templates:\n    - platform: K920", "name is required"},
		{"no fleet", "name: x", "fleet section is required"},
		{"bad scale", "name: x\nfleet:\n  scale: nope\n  templates:\n    - platform: K920", "not a number"},
		{"neg scale", "name: x\nfleet:\n  scale: -1\n  templates:\n    - platform: K920", "scale must be"},
		{"no templates", "name: x\nfleet:\n  scale: 0.01", "at least one platform"},
		{"bad platform", "name: x\nfleet:\n  scale: 0.01\n  templates:\n    - platform: PDP11", "unknown platform"},
		{"unknown key", "name: x\nbogus: 1\nfleet:\n  scale: 0.01\n  templates:\n    - platform: K920", `unknown key "bogus"`},
		{"bad trainer", validDoc + "train:\n  trainer: markov", "markov"},
		{"bad action", validDoc + "  - at_day: 1\n    action: meteor_strike", "unknown action"},
		{"storm no rate", validDoc + "  - at_day: 1\n    action: ce_storm\n    fraction: 0.5\n    duration_days: 1", "rate_per_day"},
		{"both times", validDoc + "  - at_day: 1\n    at_minutes: 60\n    action: rollback", "not both"},
		{"late action", validDoc + "  - at_day: 999\n    action: rollback", "outside the observation span"},
		{"bad selector", validDoc + "  - at_day: 1\n    action: hotswap\n    selector: worst", "selector"},
		{"bad assert type", assertDoc + "  - type: vibes\n    min: 1", "unknown assertion type"},
		{"assert no bound", assertDoc + "  - type: psi", "min and/or max"},
		{"assert crossed", assertDoc + "  - type: psi\n    min: 2\n    max: 1", "exceeds"},
		{"bad mode", "name: x\nfleet:\n  scale: 0.01\n  templates:\n    - platform: K920\n  regimes:\n    - from_day: 1\n      modes:\n        vortex: 2", "unknown fault mode"},

		// Value errors.
		{"not a mapping", "name: x\nfleet: big", "fleet: expected a mapping"},
		{"not a scalar", "name:\n  first: x" + fleetDoc[len("\nname: x"):], "name: expected a scalar"},
		{"not a sequence", fleetDoc + "chaos: soon", "chaos: expected a sequence"},
		{"not an integer", validDoc + "  - at_day: soon\n    action: rollback", `at_day: "soon" is not an integer`},
		{"not a boolean", fleetDoc + "record_alarms: maybe", `record_alarms: "maybe" is not a boolean`},

		// Range checks.
		{"negative seed", fleetDoc + "seed: -1", "seed must be non-negative"},
		{"zero tick", fleetDoc + "tick_minutes: 0", "tick_minutes must be positive"},
		{"scale above population", "name: x\nfleet:\n  scale: 1e9\n  templates:\n    - platform: K920", "fleet: scale: 1e+09 is above 1"},
		{"cap above generator's", "name: x\nfleet:\n  scale: 0.01\n  max_events_per_dimm: 2501\n  templates:\n    - platform: K920", "fleet: max_events_per_dimm: 2501 is above the generator's cap of 2500"},
		{"zero weight", "name: x\nfleet:\n  scale: 0.01\n  templates:\n    - platform: K920\n      weight: 0", "weight must be positive"},

		// Either/or and required keys.
		{"both durations", validDoc + "  - at_day: 1\n    action: maintenance\n    duration_days: 1\n    duration_minutes: 60", "give duration_days or duration_minutes, not both"},
		{"no from_day", regimeDoc + "    - rate_mult: 2", "from_day is required"},
		{"no action", validDoc + "  - at_day: 1", "action is required"},
		{"no time", validDoc + "  - action: rollback", "at_day (or at_minutes) is required"},
		{"no platform", "name: x\nfleet:\n  scale: 0.01\n  templates:\n    - weight: 2", "platform is required"},

		// The modes mapping of a regime.
		{"modes not mapping", regimeDoc + "    - from_day: 1\n      modes: row", "expected a mapping of mode name"},
		{"modes not number", regimeDoc + "    - from_day: 1\n      modes:\n        row: lots", `row: "lots" is not a number`},
		{"negative mode mult", regimeDoc + "    - from_day: 1\n      modes:\n        row: -1", "is negative"},

		// Training splits.
		{"train split", validDoc + "train:\n  train_end_day: 200", "0 < train_end_day < val_end_day"},
		{"train past span", validDoc + "train:\n  val_end_day: 999", "observation span"},
		{"promote split", validDoc + "  - at_day: 100\n    action: train_promote\n    train_end_day: 90\n    val_end_day: 80", "0 < train_end_day < val_end_day"},
		{"promote looks ahead", validDoc + "  - at_day: 100\n    action: train_promote\n    train_end_day: 90\n    val_end_day: 120", "must not look past the action time"},

		// Per-action rules.
		{"storm no fraction", validDoc + "  - at_day: 1\n    action: ce_storm\n    rate_per_day: 5\n    duration_days: 1", "ce_storm needs fraction"},
		{"storm no duration", validDoc + "  - at_day: 1\n    action: ce_storm\n    fraction: 0.5\n    rate_per_day: 5", "ce_storm needs a duration"},
		{"storm bad mode", validDoc + "  - at_day: 1\n    action: ce_storm\n    mode: vortex", "unknown fault mode"},
		{"action bad platform", validDoc + "  - at_day: 1\n    action: rollback\n    platform: PDP11", "unknown platform"},
		{"burst no ces", validDoc + "  - at_day: 1\n    action: fault_burst\n    count: 2", "fault_burst needs positive count and burst_ces"},
		{"lag no fraction", validDoc + "  - at_day: 1\n    action: log_lag\n    duration_days: 1", "log_lag needs fraction"},
		{"lag no duration", validDoc + "  - at_day: 1\n    action: log_lag\n    fraction: 0.5", "log_lag needs a duration"},
		{"maintenance no duration", validDoc + "  - at_day: 1\n    action: maintenance", "maintenance needs a duration"},
		{"random swap no fraction", validDoc + "  - at_day: 1\n    action: hotswap\n    selector: random", "selector random needs fraction"},
		{"window past span", validDoc + "  - at_day: 270\n    action: maintenance\n    duration_days: 5", "extends past the observation span"},

		// Day and minute counts that wrap when converted or added.
		{"at_day overflow", validDoc + "  - at_day: 576460752303423588\n    action: rollback", "outside the observation span"},
		{"duration overflow", validDoc + "  - at_day: 1\n    action: maintenance\n    duration_minutes: 9223372036854775807", "observation span"},

		// Non-finite numbers, which every range check lets through.
		{"nan fraction", validDoc + "  - at_day: 1\n    action: ce_storm\n    fraction: nan\n    rate_per_day: 5\n    duration_days: 1", `fraction: "nan" is not finite`},
		{"infinite scale", "name: x\nfleet:\n  scale: +Inf\n  templates:\n    - platform: K920", `scale: "+Inf" is not finite`},

		// Checks across sections: the trainer runs on every fleet platform,
		// and an action injects no more CEs per DIMM than the generator's cap.
		{"trainer not applicable", fleetDoc + "train:\n  trainer: riskyce", "train.trainer: Risky CE Pattern is not applicable on K920"},
		{"burst over default cap", validDoc + "  - at_day: 1\n    action: fault_burst\n    count: 2\n    burst_ces: 2000000000", "chaos[1]: burst_ces: 2e+09 CEs per DIMM exceed the cap of 2500"},
		{"burst over set cap", "name: x\nfleet:\n  scale: 0.01\n  max_events_per_dimm: 100\n  templates:\n    - platform: K920\nchaos:\n  - at_day: 1\n    action: fault_burst\n    count: 1\n    burst_ces: 120", "chaos[0]: burst_ces: 120 CEs per DIMM exceed the cap of 100"},
		{"storm rate over cap", validDoc + "  - at_day: 1\n    action: ce_storm\n    fraction: 0.5\n    rate_per_day: 1e15\n    duration_days: 1", "chaos[1]: rate_per_day × duration: 1e+15 CEs per DIMM exceed the cap of 2500"},
		{"storm mean over cap", validDoc + "  - at_day: 1\n    action: ce_storm\n    fraction: 0.5\n    rate_per_day: 251\n    duration_days: 10", "rate_per_day × duration: 2510 CEs per DIMM"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Parse error = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestAssertionObserve(t *testing.T) {
	r := &Report{
		Counters: Counters{Alarms: 3, EventsInjected: 9, Hotswaps: 2},
		Metrics:  Metrics{Precision: 0.5, PSI: 0.1, LeadP50Days: 4},
	}
	for typ, want := range map[string]float64{
		"alarm_count": 3, "events_injected": 9, "hotswaps": 2,
		"precision": 0.5, "psi": 0.1, "lead_time_p50": 4,
	} {
		if got := observers[typ](r); got != want {
			t.Fatalf("observers[%s] = %v, want %v", typ, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(s, 50); p != 5 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(s, 90); p != 9 {
		t.Fatalf("p90 = %v", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
}
