package eval

import (
	"math"
	"testing"
	"testing/quick"

	"memfp/internal/platform"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 2, TN: 88}
	if p := c.Precision(); p != 0.8 {
		t.Errorf("precision %v", p)
	}
	if r := c.Recall(); r != 0.8 {
		t.Errorf("recall %v", r)
	}
	if f := c.F1(); math.Abs(f-0.8) > 1e-12 {
		t.Errorf("f1 %v", f)
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("zero confusion should give zero metrics")
	}
	if v := c.VIRR(); v != 0 {
		t.Errorf("VIRR %v with no alarms, want 0", v)
	}
}

func TestVIRRFormula(t *testing.T) {
	// Paper's example: Purley LightGBM P=0.54 R=0.80 → VIRR ≈ 0.65.
	c := Confusion{TP: 54, FP: 46, FN: 100*54/80 - 54}
	m := Compute(c)
	if math.Abs(m.Precision-0.54) > 0.01 {
		t.Fatalf("precision %v", m.Precision)
	}
	want := (1 - 0.1/m.Precision) * m.Recall
	if math.Abs(m.VIRR-want) > 1e-12 {
		t.Errorf("VIRR %v, want %v", m.VIRR, want)
	}
	if m.VIRR < 0.64 || m.VIRR > 0.66 {
		t.Errorf("paper operating point VIRR %v, expected ≈0.65", m.VIRR)
	}
}

func TestVIRRNegativeWhenPrecisionBelowYC(t *testing.T) {
	c := Confusion{TP: 5, FP: 95, FN: 5} // precision 0.05 < yc 0.1
	if v := c.VIRR(); v >= 0 {
		t.Errorf("VIRR %v should be negative when precision < yc", v)
	}
}

func dimm(i int) trace.DIMMID {
	return trace.DIMMID{Platform: platform.Purley, Server: i, Slot: 0}
}

func TestAggregateByDIMM(t *testing.T) {
	dimms := []trace.DIMMID{dimm(1), dimm(1), dimm(2), dimm(2)}
	scores := []float64{0.3, 0.9, 0.1, 0.2}
	labels := []int{0, 1, 0, 0}
	ds := AggregateByDIMM(dimms, scores, labels)
	if len(ds) != 2 {
		t.Fatalf("units %d, want 2", len(ds))
	}
	if ds[0].Score != 0.9 || !ds[0].Actual {
		t.Errorf("dimm1 aggregation: %+v", ds[0])
	}
	if ds[1].Score != 0.2 || ds[1].Actual {
		t.Errorf("dimm2 aggregation: %+v", ds[1])
	}
}

func TestAggregateByDIMMWindow(t *testing.T) {
	dimms := []trace.DIMMID{dimm(1), dimm(1), dimm(1)}
	times := []trace.Minutes{5 * trace.Day, 40 * trace.Day, 45 * trace.Day}
	scores := []float64{0.9, 0.2, 0.4}
	labels := []int{0, 1, 0}
	ds := AggregateByDIMMWindow(dimms, times, scores, labels)
	if len(ds) != 2 {
		t.Fatalf("units %d, want 2 (two 30d windows)", len(ds))
	}
	// First window: score 0.9, negative. Second: max 0.4, positive.
	var first, second DIMMScore
	for _, d := range ds {
		if d.Score == 0.9 {
			first = d
		} else {
			second = d
		}
	}
	if first.Actual {
		t.Error("first window should be negative")
	}
	if second.Score != 0.4 || !second.Actual {
		t.Errorf("second window: %+v", second)
	}
}

func TestConfusionAt(t *testing.T) {
	ds := []DIMMScore{
		{Score: 0.9, Actual: true},
		{Score: 0.8, Actual: false},
		{Score: 0.3, Actual: true},
		{Score: 0.1, Actual: false},
	}
	c := ConfusionAt(ds, 0.5)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Errorf("confusion %+v", c)
	}
}

func TestBestF1Threshold(t *testing.T) {
	// Perfectly separable scores.
	ds := []DIMMScore{
		{Score: 0.9, Actual: true},
		{Score: 0.85, Actual: true},
		{Score: 0.2, Actual: false},
		{Score: 0.1, Actual: false},
	}
	th, best := BestF1Threshold(ds)
	if best.F1 != 1 {
		t.Errorf("separable best F1 = %v", best.F1)
	}
	c := ConfusionAt(ds, th)
	if c.F1() != 1 {
		t.Errorf("threshold %v does not reproduce best F1", th)
	}
}

func TestPRSweepMonotoneRecall(t *testing.T) {
	rng := xrand.New(1)
	var ds []DIMMScore
	for i := 0; i < 200; i++ {
		ds = append(ds, DIMMScore{Score: rng.Float64(), Actual: rng.Bool(0.2)})
	}
	sweep := PRSweep(ds)
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Recall < sweep[i-1].Recall {
			t.Fatal("recall must be non-decreasing as threshold drops")
		}
	}
}

func TestAUPRCBounds(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		m := int(n%50) + 2
		var ds []DIMMScore
		hasPos := false
		for i := 0; i < m; i++ {
			a := rng.Bool(0.3)
			hasPos = hasPos || a
			ds = append(ds, DIMMScore{Score: rng.Float64(), Actual: a})
		}
		if !hasPos {
			ds[0].Actual = true
		}
		v := AUPRC(ds)
		return v >= -1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAUPRCPerfectRanker(t *testing.T) {
	var ds []DIMMScore
	for i := 0; i < 50; i++ {
		ds = append(ds, DIMMScore{Score: 0.9 + float64(i)*0.001, Actual: true})
		ds = append(ds, DIMMScore{Score: 0.1 + float64(i)*0.001, Actual: false})
	}
	if v := AUPRC(ds); v < 0.99 {
		t.Errorf("perfect ranker AUPRC %v", v)
	}
}

func TestTuneThresholdTrustsRichValidation(t *testing.T) {
	var ds []DIMMScore
	for i := 0; i < 30; i++ {
		ds = append(ds, DIMMScore{Score: 0.8, Actual: true})
		ds = append(ds, DIMMScore{Score: 0.2, Actual: false})
	}
	th := TuneThreshold(ds, 0.5, []float64{0.9, 0.1})
	c := ConfusionAt(ds, th)
	if c.F1() != 1 {
		t.Errorf("rich validation should use max-F1 threshold, got th=%v", th)
	}
}

func TestTuneThresholdBudgetFallback(t *testing.T) {
	// Sparse positives: budget path. Validation max-F1 sits at 0.5 and
	// would flag half the deploy scores; the budget at 1.6 × the 10% base
	// rate flags ≈16 of 100 and, being higher, wins.
	val := []DIMMScore{
		{Score: 0.5, Actual: true},
		{Score: 0.1, Actual: false},
		{Score: 0.05, Actual: false},
	}
	deploy := make([]float64, 100)
	for i := range deploy {
		deploy[i] = float64(i) / 100
	}
	th := TuneThreshold(val, 0.10, deploy)
	flagged := 0
	for _, s := range deploy {
		if s >= th {
			flagged++
		}
	}
	if flagged < 15 || flagged > 18 {
		t.Errorf("budget threshold flags %d of 100, want ≈16", flagged)
	}
}

func TestPositiveUnitRate(t *testing.T) {
	ds := []DIMMScore{{Actual: true}, {Actual: false}, {Actual: false}, {Actual: true}}
	if r := PositiveUnitRate(ds); r != 0.5 {
		t.Errorf("rate %v", r)
	}
	if r := PositiveUnitRate(nil); r != 0 {
		t.Errorf("empty rate %v", r)
	}
}
