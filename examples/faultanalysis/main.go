// Faultanalysis reproduces the paper's §V analysis on a synthetic fleet:
// Table I dataset statistics, Figure 4 fault-mode/UE attribution, and
// Figure 5 bit-level signatures — then round-trips the fleet through the
// BMC text-log codec to show the data-pipeline path.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"memfp/internal/analysis"
	"memfp/internal/faultsim"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

func main() {
	for _, id := range platform.All() {
		res, err := pipeline.Generate(context.Background(),
			faultsim.Config{Platform: id, Scale: 0.05, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		st := analysis.TableI(res.Store)
		fmt.Print(analysis.FormatTableI([]analysis.DatasetStats{st}))
		fmt.Print(analysis.FormatFigure4(string(id), analysis.Figure4(res.Store)))
		if id != platform.K920 { // Figure 5 is Intel-only in the paper
			fmt.Print(analysis.FormatFigure5(string(id), analysis.Figure5(res.Store)))
		}
		fmt.Println()
	}

	// Round-trip through the BMC log format: serialize, re-parse, verify
	// the analysis is identical — the "Data Pipeline" stage of Figure 6.
	res, err := pipeline.Generate(context.Background(),
		faultsim.Config{Platform: platform.Purley, Scale: 0.01, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteStore(&buf, res.Store); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BMC log round-trip: %d bytes serialized\n", buf.Len())
	back, err := trace.ReadStore(&buf)
	if err != nil {
		log.Fatal(err)
	}
	a := analysis.TableI(res.Store)
	b := analysis.TableI(back)
	if a != b {
		log.Fatalf("round-trip mismatch:\n  orig  %+v\n  back  %+v", a, b)
	}
	fmt.Println("parsed log reproduces identical Table I statistics ✓")
}
