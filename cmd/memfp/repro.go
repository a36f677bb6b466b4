package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"memfp"
)

// cmdRepro regenerates the paper's tables and figures.
func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	scale, seed := commonFlags(fs)
	exps := memfp.Experiments()
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
	cfg := memfp.Config{Scale: *scale, Seed: *seed}
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
