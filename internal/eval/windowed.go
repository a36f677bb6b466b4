package eval

import "memfp/internal/trace"

// Series is one split partition's per-sample evaluation input: aligned
// DIMM provenance, prediction instants, model scores and labels. A nil
// Scores means "label-only" (used for the pre-deployment base rate,
// where only labels matter).
type Series struct {
	DIMMs  []trace.DIMMID
	Times  []trace.Minutes
	Scores []float64
	Y      []int
}

// EvaluateWindowed is the shared tail of every tuned-threshold
// experiment (Table II cells, transfer-matrix cells): aggregate each
// partition into (DIMM, window) units, tune the decision threshold on
// validation units with the train+val base rate as alarm budget, then
// score the test units at that threshold.
func EvaluateWindowed(train, val, test Series) Metrics {
	valDS := AggregateByDIMMWindow(val.DIMMs, val.Times, val.Scores, val.Y)
	testDS := AggregateByDIMMWindow(test.DIMMs, test.Times, test.Scores, test.Y)

	// Base positive-unit rate from pre-deployment labels (train + val).
	trainScores := train.Scores
	if trainScores == nil {
		trainScores = make([]float64, len(train.Y))
	}
	trainDS := AggregateByDIMMWindow(train.DIMMs, train.Times, trainScores, train.Y)
	baseRate := PositiveUnitRate(append(trainDS, valDS...))

	testScores := make([]float64, len(testDS))
	for i, d := range testDS {
		testScores[i] = d.Score
	}
	th := TuneThreshold(valDS, baseRate, testScores)
	return Compute(ConfusionAt(testDS, th))
}
