// Crossplatform reproduces a reduced-scale Table II: all four algorithms
// (rule baseline, Random Forest, LightGBM-style GBDT, FT-Transformer)
// trained and evaluated per platform, demonstrating the paper's central
// point that prediction must be designed per CPU architecture.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"memfp"
	"memfp/internal/platform"
)

func main() {
	cfg := memfp.Config{Scale: 0.06, Seed: 33}
	start := time.Now()
	t2, err := memfp.RunTableII(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table II at scale %.2f (seed %d), computed in %v\n\n",
		cfg.Scale, cfg.Seed, time.Since(start).Round(time.Second))
	fmt.Print(t2.Format())

	fmt.Println("\nFinding 4 check — best F1 per platform:")
	for _, id := range platform.All() {
		best, bestAlgo := 0.0, memfp.Algo("-")
		for _, a := range memfp.Algos() {
			c := t2.Cells[id][a]
			if c.Applicable && c.Metrics.F1 > best {
				best, bestAlgo = c.Metrics.F1, a
			}
		}
		fmt.Printf("  %-14s %.2f (%s)\n", id, best, bestAlgo)
	}
	best := memfp.Paper.Best()
	sort.SliceStable(best, func(i, j int) bool { return best[i].F1 > best[j].F1 })
	var ranked []string
	for _, c := range best {
		ranked = append(ranked, fmt.Sprintf("%s %.2f (%s)", c.Platform.Short(), c.F1, c.Algo))
	}
	fmt.Println("\npaper: " + strings.Join(ranked, " > "))
}
