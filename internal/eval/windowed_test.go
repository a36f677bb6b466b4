package eval

import (
	"testing"

	"memfp/internal/trace"
)

// mkSeries builds n samples for DIMM i%k at staggered times (dimm is the
// shared helper from eval_test.go).
func mkSeries(n, k int, base trace.Minutes, score func(i int) float64, label func(i int) int) Series {
	s := Series{}
	for i := 0; i < n; i++ {
		s.DIMMs = append(s.DIMMs, dimm(i%k))
		s.Times = append(s.Times, base+trace.Minutes(i)*trace.Day)
		s.Scores = append(s.Scores, score(i))
		s.Y = append(s.Y, label(i))
	}
	return s
}

// TestEvaluateWindowedMatchesManualSequence pins the helper to the exact
// aggregate → tune → compute sequence it replaced in the experiment and
// transfer paths.
func TestEvaluateWindowedMatchesManualSequence(t *testing.T) {
	train := mkSeries(40, 8, 0,
		func(i int) float64 { return 0 },
		func(i int) int { return i % 13 / 12 })
	val := mkSeries(30, 6, 150*trace.Day,
		func(i int) float64 { return float64(i%10) / 10 },
		func(i int) int { return i % 9 / 8 })
	test := mkSeries(50, 10, 180*trace.Day,
		func(i int) float64 { return float64(i%7) / 7 },
		func(i int) int { return i % 11 / 10 })
	got := EvaluateWindowed(train, val, test)

	valDS := AggregateByDIMMWindow(val.DIMMs, val.Times, val.Scores, val.Y)
	testDS := AggregateByDIMMWindow(test.DIMMs, test.Times, test.Scores, test.Y)
	trainDS := AggregateByDIMMWindow(train.DIMMs, train.Times, make([]float64, len(train.Y)), train.Y)
	baseRate := PositiveUnitRate(append(trainDS, valDS...))
	testScores := make([]float64, len(testDS))
	for i, d := range testDS {
		testScores[i] = d.Score
	}
	th := TuneThreshold(valDS, baseRate, testScores)
	want := Compute(ConfusionAt(testDS, th))

	if got != want {
		t.Fatalf("EvaluateWindowed = %+v, manual sequence = %+v", got, want)
	}
}

// TestEvaluateWindowedNilTrainScores checks the label-only train series
// convention: nil Scores behaves as all-zero scores.
func TestEvaluateWindowedNilTrainScores(t *testing.T) {
	train := mkSeries(20, 4, 0,
		func(i int) float64 { return 0.7 }, // must be ignored
		func(i int) int { return i % 5 / 4 })
	withScores := train
	train.Scores = nil
	val := mkSeries(12, 4, 150*trace.Day,
		func(i int) float64 { return float64(i) / 12 },
		func(i int) int { return i % 4 / 3 })
	test := mkSeries(20, 5, 180*trace.Day,
		func(i int) float64 { return float64(i) / 20 },
		func(i int) int { return i % 6 / 5 })
	got := EvaluateWindowed(train, val, test)

	// The train series only contributes labels (base rate); its scores
	// must not change the result.
	withScores.Scores = make([]float64, len(withScores.Y))
	want := EvaluateWindowed(withScores, val, test)
	if got != want {
		t.Fatalf("nil train scores diverged: %+v vs %+v", got, want)
	}
}

// TestEvaluateWindowedPerfectModel: a model scoring positives 1 and
// negatives 0 must achieve perfect precision/recall through the helper.
func TestEvaluateWindowedPerfectModel(t *testing.T) {
	label := func(i int) int { return i % 3 / 2 }
	score := func(i int) float64 { return float64(label(i)) }
	train := mkSeries(30, 30, 0, func(int) float64 { return 0 }, label)
	val := mkSeries(30, 30, 150*trace.Day, score, label)
	test := mkSeries(30, 30, 180*trace.Day, score, label)
	m := EvaluateWindowed(train, val, test)
	if m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Fatalf("perfect model scored %+v", m)
	}
}
