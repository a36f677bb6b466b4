package faultsim

import (
	"context"
	"testing"

	"memfp/internal/platform"
	"memfp/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Platform: platform.Whitley, Scale: 0.02, Seed: 5}
	a, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store.Len() != b.Store.Len() {
		t.Fatalf("DIMM counts differ: %d vs %d", a.Store.Len(), b.Store.Len())
	}
	if a.Store.CountEvents(trace.TypeCE) != b.Store.CountEvents(trace.TypeCE) {
		t.Error("CE counts differ between identical runs")
	}
	la, lb := a.Store.DIMMs(), b.Store.DIMMs()
	for i := range la {
		if la[i].ID != lb[i].ID || len(la[i].Events) != len(lb[i].Events) {
			t.Fatalf("DIMM %d differs", i)
		}
		for j := range la[i].Events {
			if la[i].Events[j] != lb[i].Events[j] {
				t.Fatalf("event %d/%d differs", i, j)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := GenerateCtx(context.Background(), Config{Platform: platform.Purley, Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCtx(context.Background(), Config{Platform: platform.Purley, Scale: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Store.CountEvents(trace.TypeCE) == b.Store.CountEvents(trace.TypeCE) {
		t.Log("same CE count across seeds (possible but unlikely); checking event times")
		ea := a.Store.DIMMs()[0].Events
		eb := b.Store.DIMMs()[0].Events
		if len(ea) > 0 && len(eb) > 0 && ea[0] == eb[0] {
			t.Error("different seeds produced identical first events")
		}
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	if _, err := GenerateCtx(context.Background(), Config{Platform: platform.Purley, Scale: 0}); err == nil {
		t.Error("zero scale should error")
	}
	if _, err := GenerateCtx(context.Background(), Config{Platform: platform.Purley, Scale: -1}); err == nil {
		t.Error("negative scale should error")
	}
}

func TestGenerateUnknownPlatform(t *testing.T) {
	if _, err := GenerateCtx(context.Background(), Config{Platform: "nope", Scale: 0.1}); err == nil {
		t.Error("unknown platform should error")
	}
}

func TestTruthConsistency(t *testing.T) {
	res, err := GenerateCtx(context.Background(), Config{Platform: platform.K920, Scale: 0.03, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Truth.List {
		l := res.Store.Get(tr.ID)
		if l == nil {
			t.Fatalf("truth for unknown DIMM %s", tr.ID)
		}
		ue, hasUE := l.FirstUE()
		if tr.UE() != hasUE {
			t.Fatalf("%s: truth UE=%v but log UE=%v", tr.ID, tr.UE(), hasUE)
		}
		if hasUE && ue != tr.UETime {
			t.Fatalf("%s: UE time %v vs truth %v", tr.ID, ue, tr.UETime)
		}
		ce, hasCE := l.FirstCE()
		if tr.Sudden {
			if hasCE {
				t.Fatalf("%s: sudden UE but log has CEs", tr.ID)
			}
			continue
		}
		if !hasCE {
			t.Fatalf("%s: CE DIMM with no CEs", tr.ID)
		}
		if hasUE && ce >= ue {
			t.Fatalf("%s: first CE %v not before UE %v", tr.ID, ce, ue)
		}
	}
}

func TestEventsWithinSpan(t *testing.T) {
	res, err := GenerateCtx(context.Background(), Config{Platform: platform.Whitley, Scale: 0.03, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Store.DIMMs() {
		for _, e := range l.Events {
			if e.Time < 0 || e.Time >= trace.ObservationSpan {
				t.Fatalf("%s event at %v outside span", l.ID, e.Time)
			}
		}
	}
}

func TestNoCEsAfterUE(t *testing.T) {
	res, err := GenerateCtx(context.Background(), Config{Platform: platform.Purley, Scale: 0.03, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Store.DIMMs() {
		ue, ok := l.FirstUE()
		if !ok {
			continue
		}
		for _, e := range l.Events {
			if e.Type == trace.TypeCE && e.Time >= ue {
				t.Fatalf("%s: CE at %v after UE at %v", l.ID, e.Time, ue)
			}
		}
	}
}

func TestMaxEventsCap(t *testing.T) {
	res, err := GenerateCtx(context.Background(), Config{Platform: platform.Purley, Scale: 0.02, Seed: 9, MaxEventsPerDIMM: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Store.DIMMs() {
		if n := len(l.CEs()); n > 50 {
			t.Fatalf("%s has %d CEs, cap 50", l.ID, n)
		}
	}
}

func TestSuddenShareApproximates(t *testing.T) {
	res, err := GenerateCtx(context.Background(), Config{Platform: platform.Whitley, Scale: 0.3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	sudden, predictable := 0, 0
	for _, tr := range res.Truth.List {
		if !tr.UE() {
			continue
		}
		if tr.Sudden {
			sudden++
		} else {
			predictable++
		}
	}
	if predictable == 0 {
		t.Fatal("no predictable UEs generated")
	}
	share := float64(sudden) / float64(sudden+predictable)
	if share < 0.45 || share > 0.70 {
		t.Errorf("Whitley sudden share %.2f, want ≈0.58", share)
	}
}

func TestCalibrationValidate(t *testing.T) {
	for _, id := range platform.All() {
		c, err := DefaultCalibration(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s calibration invalid: %v", id, err)
		}
		// Expected fraction of CE DIMMs that develop a predictable UE:
		// ModeMix · UEHazard.
		rate := 0.0
		for _, m := range Modes() {
			rate += c.ModeMix[m] * c.UEHazard[m]
		}
		if rate <= 0.005 || rate >= 0.10 {
			t.Errorf("%s predictable UE rate %.4f implausible", id, rate)
		}
	}
	if _, err := DefaultCalibration("nope"); err == nil {
		t.Error("unknown platform calibration should error")
	}
}

func TestCalibrationValidateCatchesBadMix(t *testing.T) {
	c, err := DefaultCalibration(platform.Purley)
	if err != nil {
		t.Fatal(err)
	}
	c.ModeMix[ModeCell] += 0.5
	if err := c.Validate(); err == nil {
		t.Error("unnormalized mix should fail validation")
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeSporadic: "sporadic", ModeCell: "cell", ModeColumn: "column",
		ModeRow: "row", ModeBank: "bank", ModeMultiDevice: "multi-device",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d → %q, want %q", int(m), m.String(), s)
		}
	}
}
