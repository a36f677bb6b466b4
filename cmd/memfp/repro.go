package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"memfp"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
)

// experiments is what repro runs: the root package's tables and figures,
// with fig6 (the MLOps walkthrough, whose report is the serve command
// itself) before transfer.
func experiments() []memfp.Experiment {
	var out []memfp.Experiment
	for _, e := range memfp.Experiments() {
		if e.Name == "transfer" {
			out = append(out, memfp.Experiment{Name: "fig6", Run: runFig6})
		}
		out = append(out, e)
	}
	return out
}

// runFig6 serves the Purley fleet at 40% of the run's scale.
func runFig6(ctx context.Context, cfg memfp.Config, w io.Writer) error {
	fmt.Fprintf(w, "Figure 6 — MLOps framework walkthrough (Purley fleet)\n")
	return runServe(ctx, w, cfg.FleetCache(), platform.Purley, model.NameGBDT, cfg.Scale*0.4, cfg.Seed, 0, 0)
}

// cmdRepro regenerates the paper's tables and figures.
func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	scale, seed := commonFlags(fs)
	workers := fs.Int("workers", 0, "experiment-cell concurrency (0 = one per CPU)")
	exps := experiments()
	var names []string
	for _, e := range exps {
		names = append(names, e.Name)
	}
	exp := fs.String("exp", "all", "experiment: all|"+strings.Join(names, "|"))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp != "all" && !slices.Contains(names, *exp) {
		return fmt.Errorf("repro: unknown experiment %q (want all|%s)", *exp, strings.Join(names, "|"))
	}
	cfg := memfp.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	ctx := context.Background()
	for _, e := range exps {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		fmt.Printf("\n───────────────────────── %s ─────────────────────────\n", strings.ToUpper(e.Name))
		if err := e.Run(ctx, cfg, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
