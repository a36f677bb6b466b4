package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"memfp"
	"memfp/internal/analysis"
	"memfp/internal/faultsim"
	"memfp/internal/ml/model"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// cmdGenerate simulates one fleet and writes its BMC log.
func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	scale, seed := commonFlags(fs)
	pf := fs.String("platform", string(platform.Purley), "platform ID")
	out := fs.String("out", "", "output log path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id := platform.ID(*pf)
	if _, err := platform.Get(id); err != nil {
		return err
	}
	res, err := pipeline.Generate(context.Background(),
		faultsim.Config{Platform: id, Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteStore(w, res.Store); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d DIMMs, %d CE events, %d UE events\n",
		res.Store.Len(), res.Store.CountEvents(trace.TypeCE), res.Store.CountEvents(trace.TypeUE))
	return nil
}

// cmdAnalyze runs Table I + Figure 4/5 analysis over a log file.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "", "input log path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("analyze: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	store, err := trace.ReadStore(f)
	if err != nil {
		return err
	}
	st := analysis.TableI(store)
	fmt.Print(analysis.FormatTableI([]analysis.DatasetStats{st}))
	fmt.Println()
	fmt.Print(analysis.FormatFigure4(st.Platform, analysis.Figure4(store)))
	fmt.Println()
	fmt.Print(analysis.FormatFigure5(st.Platform, analysis.Figure5(store)))
	return nil
}

// cmdAlgos lists the predictor registry: every trainer that appears in
// Table II, `train -algo`, the transfer matrix, and the MLOps loop.
func cmdAlgos(args []string) error {
	fs := flag.NewFlagSet("algos", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-22s %s\n", "algorithm", "platforms")
	for _, t := range model.All() {
		var pfs []string
		for _, id := range platform.All() {
			if t.Applicable(id) {
				pfs = append(pfs, string(id))
			}
		}
		fmt.Printf("%-22s %s\n", t.Name(), strings.Join(pfs, ", "))
	}
	return nil
}

// resolveAlgo accepts a registry name (exact or case-insensitive) or a
// legacy shorthand, shared with every other entry point via
// model.Resolve.
func resolveAlgo(s string) (string, error) {
	t, err := model.Resolve(s)
	if err != nil {
		return "", err
	}
	return t.Name(), nil
}

// cmdTrain trains one algorithm on one platform and reports metrics.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	scale, seed := commonFlags(fs)
	pf := fs.String("platform", string(platform.Purley), "platform ID")
	algo := fs.String("algo", "lightgbm", `algorithm registry name (see "memfp algos") or legacy shorthand`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	id := platform.ID(*pf)
	if _, err := platform.Get(id); err != nil {
		return err
	}
	name, err := resolveAlgo(*algo)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	a := memfp.Algo(name)
	ctx := context.Background()
	cfg := memfp.Config{Scale: *scale, Seed: *seed}
	fleet, err := memfp.BuildFleet(ctx, cfg, id)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d DIMMs, %d samples (%d train / %d val / %d test)\n",
		fleet.Result.Store.Len(), len(fleet.Samples),
		fleet.Split.Train.Len(), fleet.Split.Val.Len(), fleet.Split.Test.Len())
	cell, err := memfp.EvaluateAlgo(ctx, cfg, fleet, a)
	if err != nil {
		return err
	}
	if !cell.Applicable {
		fmt.Printf("%s on %s: not applicable (X)\n", a, id)
		return nil
	}
	fmt.Printf("%s on %s: %s\n", a, id, cell.Metrics)
	return nil
}

// cmdServe runs the paper's Figure 6 loop on a simulated stream, served
// whole.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	scale, seed := commonFlags(fs)
	pf := fs.String("platform", string(platform.Purley), "platform ID")
	trainer := fs.String("trainer", model.NameGBDT, "registry trainer the mlops loop ships")
	shards := fs.Int("shards", 0, "serving engine shards (0 = one per CPU); any value emits the same alarms")
	membudget := fs.Int64("membudget", 0, "serving-state memory budget in MiB (0 = unbounded); alarms unchanged")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// BootFigure6 checks the platform through platform.Get.
	return memfp.RunFigure6(context.Background(), memfp.Config{Scale: *scale, Seed: *seed},
		memfp.Figure6{Platform: platform.ID(*pf), Trainer: *trainer, Shards: *shards, MemoryBudgetMiB: *membudget}, os.Stdout)
}
