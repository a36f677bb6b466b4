// Virr explores the paper's §IV cost model (Figure 2): how the VM
// Interruption Reduction Rate responds to the cold-migration fraction yc
// and the model's operating point, including the precision < yc regime
// where prediction makes things worse.
package main

import (
	"fmt"

	"memfp"
	"memfp/internal/eval"
	"memfp/internal/ml/model"
)

func main() {
	fmt.Printf("VIRR = (1 − yc/precision) · recall   (paper §IV, yc=%.1f default)\n", eval.YC)
	fmt.Println()

	// The paper's best Table II cell per platform, then its rule baseline.
	type point struct {
		name              string
		precision, recall float64
	}
	var points []point
	for _, c := range memfp.Paper.Best() {
		points = append(points, point{fmt.Sprintf("%s %s (paper)", c.Platform.Short(), c.Algo), c.Precision, c.Recall})
	}
	for _, c := range memfp.Paper.TableII {
		if c.Algo == model.NameRiskyCE {
			points = append(points, point{fmt.Sprintf("Rule baseline %s (paper)", c.Platform.Short()), c.Precision, c.Recall})
		}
	}
	points = append(points, point{"High-recall/low-precision", 0.08, 0.95})
	ycs := []float64{0.05, 0.10, 0.15, 0.20, 0.30, 0.50}

	fmt.Printf("%-32s", "operating point")
	for _, yc := range ycs {
		fmt.Printf("  yc=%.2f", yc)
	}
	fmt.Println()
	for _, p := range points {
		fmt.Printf("%-32s", p.name)
		for _, yc := range ycs {
			fmt.Printf("  %+.3f", eval.VIRR(p.precision, p.recall, yc))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("note the sign flip when precision < yc: every prediction then triggers")
	fmt.Println("more cold migrations than the failures it avoids (paper's argument for")
	fmt.Println("precision floors in the CI/CD promotion gate)")

	// Break-even precision for each yc: VIRR > 0 ⇔ precision > yc.
	fmt.Println("\nbreak-even precision equals yc itself:")
	for _, yc := range ycs {
		fmt.Printf("  yc=%.2f → any model with precision > %.2f reduces interruptions\n", yc, yc)
	}
}
