package faultsim

import (
	"context"
	"testing"

	"memfp/internal/platform"
	"memfp/internal/trace"
)

// TestRegimeMult pins the multiplier composition: outside-window regimes
// are inert, overlapping regimes multiply, and per-mode multipliers stack
// on the global one.
func TestRegimeMult(t *testing.T) {
	regimes := []Regime{
		{FromDay: 10, ToDay: 20, RateMult: 2},
		{FromDay: 15, RateMult: 3, ModeMult: map[Mode]float64{ModeRow: 4}},
	}
	cases := []struct {
		day  int
		mode Mode
		want float64
	}{
		{day: 0, mode: ModeCell, want: 1},
		{day: 10, mode: ModeCell, want: 2},
		{day: 15, mode: ModeCell, want: 6},
		{day: 15, mode: ModeRow, want: 24},
		{day: 20, mode: ModeRow, want: 12}, // first regime's window closed
		{day: 272, mode: ModeRow, want: 12},
	}
	for _, c := range cases {
		if got := regimeMult(regimes, c.day, c.mode); got != c.want {
			t.Errorf("regimeMult(day=%d, %v) = %v, want %v", c.day, c.mode, got, c.want)
		}
	}
}

// TestRegimeShiftsRates checks the generation hook end to end: a strong
// late-window regime must raise the CE volume landing inside its window,
// and an empty regime list must reproduce the historical fleet exactly.
func TestRegimeShiftsRates(t *testing.T) {
	base := Config{Platform: platform.Purley, Scale: 0.005, Seed: 7}
	clean, err := GenerateCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	noop := base
	noop.Regimes = nil
	again, err := GenerateCtx(context.Background(), noop)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := clean.Store.CountEvents(trace.TypeCE), again.Store.CountEvents(trace.TypeCE); a != b {
		t.Fatalf("regeneration with no regimes changed CE count: %d vs %d", a, b)
	}

	shifted := base
	shifted.Regimes = []Regime{{FromDay: 150, RateMult: 5}}
	wave, err := GenerateCtx(context.Background(), shifted)
	if err != nil {
		t.Fatal(err)
	}
	countFrom := func(r *Result, from trace.Minutes) int {
		n := 0
		for _, l := range r.Store.DIMMs() {
			n += len(l.CEsBetween(from, trace.ObservationSpan))
		}
		return n
	}
	cleanLate := countFrom(clean, 150*trace.Day)
	waveLate := countFrom(wave, 150*trace.Day)
	if waveLate <= cleanLate {
		t.Fatalf("regime did not raise late-window CE volume: %d (regime) vs %d (clean)", waveLate, cleanLate)
	}
}

// TestRegimeValidate rejects malformed windows and negative multipliers.
func TestRegimeValidate(t *testing.T) {
	bad := []Regime{
		{FromDay: -1},
		{FromDay: 400},
		{FromDay: 20, ToDay: 20},
		{FromDay: 0, RateMult: -1},
		{FromDay: 0, ModeMult: map[Mode]float64{ModeRow: -2}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid regime %+v", i, r)
		}
	}
	if err := (Regime{FromDay: 10, ToDay: 40, RateMult: 2}).Validate(); err != nil {
		t.Errorf("valid regime rejected: %v", err)
	}
	if _, err := GenerateCtx(context.Background(), Config{Platform: platform.Purley, Scale: 0.001, Seed: 1,
		Regimes: []Regime{{FromDay: -3}}}); err == nil {
		t.Error("Generate accepted a config with an invalid regime")
	}
}

// TestServerBaseOffsetsIDs checks that ServerBase relocates DIMM
// identities without disturbing anything else.
func TestServerBaseOffsetsIDs(t *testing.T) {
	cfg := Config{Platform: platform.Whitley, Scale: 0.01, Seed: 3}
	a, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ServerBase = 1 << 20
	b, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := a.Store.DIMMs(), b.Store.DIMMs()
	if len(la) != len(lb) {
		t.Fatalf("fleet size changed with ServerBase: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if lb[i].ID.Server != la[i].ID.Server+1<<20 {
			t.Fatalf("DIMM %d: server %d, want %d", i, lb[i].ID.Server, la[i].ID.Server+1<<20)
		}
		if len(lb[i].Events) != len(la[i].Events) {
			t.Fatalf("DIMM %d: event count changed with ServerBase", i)
		}
	}
}
