// Quickstart: simulate a small Intel Purley fleet, train the LightGBM-style
// predictor, and evaluate it with the paper's windowed protocol — the whole
// pipeline in ~40 lines of API use.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"memfp"
	"memfp/internal/features"
	"memfp/internal/ml/gbdt"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
)

func main() {
	scale := flag.Float64("scale", 0.05, "fleet scale")
	seed := flag.Uint64("seed", 7, "seed")
	flag.Parse()
	ctx := context.Background()
	cfg := memfp.Config{Scale: *scale, Seed: *seed}

	// 1. Generate a fleet (the stand-in for production BMC logs) and
	//    build labeled samples with the §IV windows.
	fleet, err := memfp.BuildFleet(ctx, cfg, platform.Purley)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d DIMMs, %d labeled samples (train %d / val %d / test %d)\n",
		fleet.Result.Store.Len(), len(fleet.Samples),
		fleet.Split.Train.Len(), fleet.Split.Val.Len(), fleet.Split.Test.Len())

	// 2. Train + evaluate the paper's strongest algorithm.
	cell, err := memfp.EvaluateAlgo(ctx, cfg, fleet, model.NameGBDT)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LightGBM on %s: %s\n", platform.Purley, cell.Metrics)

	// 3. Inspect what the model learned: top feature importances.
	p := gbdt.DefaultParams()
	p.Seed = cfg.Seed
	model, err := gbdt.Fit(fleet.TrainDown.X, fleet.TrainDown.Y,
		fleet.Split.Val.X, fleet.Split.Val.Y, p)
	if err != nil {
		log.Fatal(err)
	}
	imp := model.FeatureImportance()
	names := features.Names()
	type fi struct {
		name string
		v    float64
	}
	ranked := make([]fi, len(imp))
	for i := range imp {
		ranked[i] = fi{names[i], imp[i]}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].v > ranked[j].v })
	fmt.Println("top-8 features:")
	for _, f := range ranked[:8] {
		fmt.Printf("  %-22s %.3f\n", f.name, f.v)
	}
}
