package main

import (
	"context"
	"flag"
	"fmt"
	"sort"

	"memfp"
	"memfp/internal/eval"
	"memfp/internal/features"
	"memfp/internal/ml/gbdt"
	"memfp/internal/platform"
)

// cmdDiag prints split statistics, score quality (AUPRC), threshold
// transfer, and feature importances for one platform — a debugging aid
// for calibrating the Table II pipeline.
func cmdDiag(args []string) error {
	fs := flag.NewFlagSet("diag", flag.ExitOnError)
	scale, seed := commonFlags(fs)
	pf := fs.String("platform", "K920", "platform ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id := platform.ID(*pf)
	if _, err := platform.Get(id); err != nil {
		return err
	}
	cfg := memfp.Config{Scale: *scale, Seed: *seed}
	fleet, err := memfp.BuildFleet(context.Background(), cfg, id)
	if err != nil {
		return err
	}
	sp := fleet.Split
	fmt.Printf("samples: train %d (pos %d) | val %d (pos %d) | test %d (pos %d)\n",
		sp.Train.Len(), sp.Train.Positives(), sp.Val.Len(), sp.Val.Positives(),
		sp.Test.Len(), sp.Test.Positives())
	fmt.Printf("downsampled train: %d (pos %d)\n", fleet.TrainDown.Len(), fleet.TrainDown.Positives())

	p := gbdt.DefaultParams()
	p.Seed = cfg.Seed
	model, err := gbdt.Fit(fleet.TrainDown.X, fleet.TrainDown.Y, sp.Val.X, sp.Val.Y, p)
	if err != nil {
		return err
	}
	fmt.Printf("gbdt rounds kept: %d\n", model.Rounds)

	count := func(ds []eval.DIMMScore) (int, int) {
		pos := 0
		for _, d := range ds {
			if d.Actual {
				pos++
			}
		}
		return len(ds), pos
	}
	valDS := eval.AggregateByDIMMWindow(sp.Val.DIMMs, sp.Val.Times, model.PredictBatch(sp.Val.X), sp.Val.Y)
	testDS := eval.AggregateByDIMMWindow(sp.Test.DIMMs, sp.Test.Times, model.PredictBatch(sp.Test.X), sp.Test.Y)
	vn, vpos := count(valDS)
	tn, tpos := count(testDS)
	fmt.Printf("val DIMMs %d (pos %d) AUPRC %.3f | test DIMMs %d (pos %d) AUPRC %.3f\n",
		vn, vpos, eval.AUPRC(valDS), tn, tpos, eval.AUPRC(testDS))

	trainDS := eval.AggregateByDIMMWindow(sp.Train.DIMMs, sp.Train.Times, make([]float64, sp.Train.Len()), sp.Train.Y)
	baseRate := eval.PositiveUnitRate(append(trainDS, valDS...))
	testScores := make([]float64, len(testDS))
	for i, d := range testDS {
		testScores[i] = d.Score
	}
	th := eval.TuneThreshold(valDS, baseRate, testScores)
	_, bestVal := eval.BestF1Threshold(valDS)
	fmt.Printf("tuned threshold %.3f (val max-F1 %.3f)\n", th, bestVal.F1)
	fmt.Printf("test at val threshold: %s\n", eval.Compute(eval.ConfusionAt(testDS, th)))
	_, bestTest := eval.BestF1Threshold(testDS)
	fmt.Printf("test oracle best:     F1=%.3f at threshold %.3f\n", bestTest.F1, bestTest.Threshold)

	imp := model.FeatureImportance()
	names := features.Names()
	type fi struct {
		n string
		v float64
	}
	ranked := make([]fi, len(imp))
	for i := range imp {
		ranked[i] = fi{names[i], imp[i]}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].v > ranked[j].v })
	fmt.Println("top features:")
	for _, f := range ranked[:10] {
		fmt.Printf("  %-22s %.3f\n", f.n, f.v)
	}
	return nil
}
