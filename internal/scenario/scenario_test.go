package scenario

import (
	"strings"
	"testing"

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
		if got := r.observe(typ); got != want {
			t.Fatalf("observe(%s) = %v, want %v", typ, got, want)
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
