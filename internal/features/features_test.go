package features

import (
	"testing"

	"memfp/internal/dram"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

func testLog(t *testing.T) *trace.DIMMLog {
	t.Helper()
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	return &trace.DIMMLog{
		ID:   trace.DIMMID{Platform: platform.Purley, Server: 0, Slot: 0},
		Part: part,
	}
}

func addCE(l *trace.DIMMLog, tm trace.Minutes, row, col int) {
	bits := dram.NewErrorBits(dram.X4)
	bits.Set(0, 0)
	bits.Set(1, 4)
	l.Append(trace.Event{
		Time: tm, Type: trace.TypeCE, DIMM: l.ID,
		Addr: dram.Addr{Rank: 0, Device: 3, Bank: 2, Row: row, Column: col},
		Bits: bits,
	})
}

func TestExtractDim(t *testing.T) {
	l := testLog(t)
	addCE(l, 100, 1, 1)
	x := NewExtractor().NewCursor(l).ExtractAt(200)
	if len(x) != Dim() {
		t.Fatalf("vector length %d, want %d", len(x), Dim())
	}
	if len(Names()) != Dim() {
		t.Fatal("Names/Dim mismatch")
	}
}

func TestExtractNoFuture(t *testing.T) {
	// Events after t must not influence the vector.
	l1 := testLog(t)
	addCE(l1, 100, 1, 1)
	l2 := testLog(t)
	addCE(l2, 100, 1, 1)
	addCE(l2, 5000, 2, 2) // future event
	x := NewExtractor()
	a := x.NewCursor(l1).ExtractAt(200)
	b := x.NewCursor(l2).ExtractAt(200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %q leaked future data: %v vs %v", Names()[i], a[i], b[i])
		}
	}
}

func TestExtractWindowCounts(t *testing.T) {
	l := testLog(t)
	x := NewExtractor()
	now := trace.Minutes(150 * trace.Day)
	addCE(l, now-5, 1, 1)             // within 15m
	addCE(l, now-50, 1, 2)            // within 1h
	addCE(l, now-3*trace.Hour, 1, 3)  // within 6h
	addCE(l, now-20*trace.Hour, 1, 4) // within 1d
	addCE(l, now-4*trace.Day, 1, 5)   // within 5d
	addCE(l, now-100*trace.Day, 1, 6) // lifetime only
	l.SortEvents()                    // a cursor requires a time-sorted log
	v := x.NewCursor(l).ExtractAt(now)
	idx := map[string]int{}
	for i, n := range Names() {
		idx[n] = i
	}
	if v[idx["ce_15m"]] != 1 {
		t.Errorf("ce_15m = %v", v[idx["ce_15m"]])
	}
	if v[idx["ce_1h"]] != 2 {
		t.Errorf("ce_1h = %v", v[idx["ce_1h"]])
	}
	if v[idx["ce_6h"]] != 3 {
		t.Errorf("ce_6h = %v", v[idx["ce_6h"]])
	}
	if v[idx["ce_1d"]] != 4 {
		t.Errorf("ce_1d = %v", v[idx["ce_1d"]])
	}
	if v[idx["ce_5d"]] != 5 {
		t.Errorf("ce_5d = %v", v[idx["ce_5d"]])
	}
	if v[idx["ce_total"]] != 6 {
		t.Errorf("ce_total = %v", v[idx["ce_total"]])
	}
	if v[idx["mins_since_first_ce"]] != float64(100*trace.Day) {
		t.Errorf("mins_since_first_ce = %v", v[idx["mins_since_first_ce"]])
	}
	if v[idx["mins_since_last_ce"]] != 5 {
		t.Errorf("mins_since_last_ce = %v", v[idx["mins_since_last_ce"]])
	}
}

func TestExtractNoHistory(t *testing.T) {
	l := testLog(t)
	v := NewExtractor().NewCursor(l).ExtractAt(1000)
	idx := map[string]int{}
	for i, n := range Names() {
		idx[n] = i
	}
	if v[idx["ce_total"]] != 0 {
		t.Error("no events should give zero counts")
	}
	if v[idx["mins_since_first_ce"]] != -1 {
		t.Error("missing first CE should be -1 sentinel")
	}
	// Static features still present.
	if v[idx["vendor_a"]] != 1 {
		t.Error("vendor one-hot missing")
	}
	if v[idx["speed_mts"]] != 2666 {
		t.Error("speed missing")
	}
}

func TestErrorBitFeatures(t *testing.T) {
	l := testLog(t)
	now := trace.Minutes(10 * trace.Day)
	addCE(l, now-10, 1, 1) // signature: 2 DQs, 2 beats, beat interval 4
	v := NewExtractor().NewCursor(l).ExtractAt(now)
	idx := map[string]int{}
	for i, n := range Names() {
		idx[n] = i
	}
	if v[idx["frac_dq2"]] != 1 {
		t.Errorf("frac_dq2 = %v", v[idx["frac_dq2"]])
	}
	if v[idx["frac_beatint4"]] != 1 {
		t.Errorf("frac_beatint4 = %v", v[idx["frac_beatint4"]])
	}
	if v[idx["dom_dq"]] != 2 || v[idx["dom_beatint"]] != 4 {
		t.Errorf("dominant signature: dq=%v bi=%v", v[idx["dom_dq"]], v[idx["dom_beatint"]])
	}
}

func TestLabelize(t *testing.T) {
	x := NewExtractor()
	w := x.Windows
	l := testLog(t)
	addCE(l, 100, 1, 1)
	ueTime := trace.Minutes(50 * trace.Day)
	l.Events = append(l.Events, trace.Event{Time: ueTime, Type: trace.TypeUE, DIMM: l.ID})
	l.SortEvents()

	cases := []struct {
		t    trace.Minutes
		want Label
	}{
		{ueTime - w.Lead - w.Prediction - 10, LabelNegative}, // UE beyond window
		{ueTime - w.Lead - w.Prediction + 10, LabelPositive}, // UE at window far edge
		{ueTime - w.Lead - 10, LabelPositive},                // UE right past lead
		{ueTime - w.Lead + 10, LabelDropped},                 // inside lead gap
		{ueTime + 10, LabelDropped},                          // after failure
	}
	for _, c := range cases {
		if got := x.Labelize(l, c.t); got != c.want {
			t.Errorf("Labelize at %v = %v, want %v", c.t, got, c.want)
		}
	}

	healthy := testLog(t)
	addCE(healthy, 100, 1, 1)
	if got := x.Labelize(healthy, 5000); got != LabelNegative {
		t.Errorf("healthy DIMM label %v, want negative", got)
	}
}

func TestDefaultWindowsMatchPaper(t *testing.T) {
	w := DefaultWindows()
	if w.Observation != 5*trace.Day {
		t.Errorf("Δtd = %v, want 5d", w.Observation)
	}
	if w.Lead != 3*trace.Hour {
		t.Errorf("Δtl = %v, want 3h", w.Lead)
	}
	if w.Prediction != 30*trace.Day {
		t.Errorf("Δtp = %v, want 30d", w.Prediction)
	}
}
