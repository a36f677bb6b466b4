package scenario

import (
	"reflect"
	"strings"
	"testing"

	"memfp/internal/faultsim"
	"memfp/internal/trace"
)

func TestParseYAMLDocument(t *testing.T) {
	src := `
# top comment
name: demo
seed: 7  # inline comment
fleet:
  scale: 0.02
  templates:
    - platform: Intel_Purley
      weight: 2
    - platform: K920
quoted: "a: b # not a comment"
list:
  - one
  - 'two'
deep:
  -
    - x
    - y
`
	got, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"name": "demo",
		"seed": "7",
		"fleet": map[string]any{
			"scale": "0.02",
			"templates": []any{
				map[string]any{"platform": "Intel_Purley", "weight": "2"},
				map[string]any{"platform": "K920"},
			},
		},
		"quoted": "a: b # not a comment",
		"list":   []any{"one", "two"},
		"deep":   []any{[]any{"x", "y"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse mismatch:\n got %#v\nwant %#v", got, want)
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"empty", "", "empty document"},
		{"tab", "a:\tb", "tabs"},
		{"flow map", "a: {x: 1}", "flow style"},
		{"flow seq", "a: [1]", "flow style"},
		{"anchor", "a: &x v", "flow style"},
		{"dup key", "a: 1\na: 2", "duplicate key"},
		{"no space", "a:1", "missing space"},
		{"bad key char", "a b: 1", "invalid character"},
		{"empty key", ": v", "empty key"},
		{"bad indent", "a: 1\n  b: 2", "unexpected indent"},
		{"seq in map", "a: 1\n- b", "sequence item inside a mapping"},
		{"map in seq", "- a\nb: 1", "mapping key inside a sequence"},
		{"no value", "a:", "has no value"},
		{"dash no value", "-", "has no value"},
		{"unterminated", `a: "x`, "unterminated"},
		{"colon scalar", "a: b: c", "colon"},
		{"indented top", "  a: 1", "column 0"},
		{"deep nesting", deepDoc(40), "nesting deeper"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, err := ParseYAML(c.src)
			if err == nil {
				t.Fatalf("ParseYAML(%q) = %#v, want error containing %q", c.src, v, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// deepDoc builds n nested single-item sequences, one per indent level.
func deepDoc(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(strings.Repeat(" ", i) + "-\n")
	}
	sb.WriteString(strings.Repeat(" ", n) + "- x\n")
	return sb.String()
}

func TestParseYAMLLineNumbers(t *testing.T) {
	_, err := ParseYAML("a: 1\n\n# comment\nb: [x]\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want positioned error on line 4, got %v", err)
	}
}

// FuzzParseYAML pins the parser's contract on hostile input: malformed
// documents must return an error — never panic, never hang.
func FuzzParseYAML(f *testing.F) {
	seeds := []string{
		"", "a: 1", "a:\n  b: 2", "- x\n- y", "a: \"q\"", "a: 'q'",
		"a:\n  - k: v\n    w: 2", "#only comment", ":", "-", "a: b: c",
		"a: {x}", "\t", "  a: 1", strings.Repeat("-\n ", 64),
		"k-e.y_2: v\nz:\n  - 1\n  - 2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		v, err := ParseYAML(src) // must not panic
		if err == nil && v == nil {
			t.Fatal("nil node without error")
		}
	})
}

// FuzzParseScenario extends the fuzz surface through the schema decoder:
// arbitrary documents must produce a scenario or an error, never a panic;
// an accepted scenario's times lie inside the observation span, its fleet
// is at most the paper's population with a per-DIMM CE cap no higher than
// the generator's, and none of its actions injects more CEs into one DIMM
// than that cap.
func FuzzParseScenario(f *testing.F) {
	f.Add("name: x\nfleet:\n  scale: 0.01\n  templates:\n    - platform: Intel_Purley")
	f.Add("name: x\nfleet:\n  scale: -3\n  templates:\n    - platform: bogus")
	f.Add("name: x\nchaos:\n  - at_day: 10\n    action: ce_storm")
	f.Add(everyKeyDoc)
	f.Add("name: x\nfleet:\n  scale: 0.01\n  max_events_per_dimm: 100\n  templates:\n    - platform: K920\nchaos:\n  - at_day: 1\n    action: fault_burst\n    count: 1\n    burst_ces: 100")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src) // must not panic
		if err != nil {
			return
		}
		if s.Train.ValEndDay > int(trace.ObservationSpan/trace.Day) {
			t.Fatalf("accepted a split past the observation span: %+v", s.Train)
		}
		if s.Fleet.Scale > 1 || s.Fleet.MaxEventsPerDIMM > faultsim.DefaultMaxEventsPerDIMM {
			t.Fatalf("accepted a fleet past the paper's population or the generator's cap: %+v", s.Fleet)
		}
		limit := s.Fleet.MaxEventsPerDIMM
		if limit <= 0 {
			limit = faultsim.DefaultMaxEventsPerDIMM
		}
		for _, a := range s.Chaos {
			if a.At < 0 || a.Duration < 0 || a.At+a.Duration > trace.ObservationSpan {
				t.Fatalf("accepted an action outside the observation span: %+v", a)
			}
			burst := a.Kind == ActionFaultBurst && a.BurstCEs > limit
			storm := a.Kind == ActionCEStorm && a.RatePerDay*float64(a.Duration)/float64(trace.Day) > float64(limit)
			if burst || storm {
				t.Fatalf("accepted an action above the cap of %d CEs per DIMM: %+v", limit, a)
			}
		}
	})
}
