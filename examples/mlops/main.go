// Mlops walks the paper's Figure 6 framework end to end on one platform
// through memfp's Figure 6 loop, the one mlopsd serves with: batch
// training through the feature store, CI/CD-gated promotion into the
// model registry, online prediction over the replayed event stream served
// through the control plane (no node daemons: one in-process node),
// monthly alarm feedback, drift monitoring and gated retraining. It then
// shows what no other program does: the registry's serialized model
// artifacts surviving a save/load round-trip. The -trainer flag ships any
// registered algorithm through the same loop.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"memfp"
	"memfp/internal/ml/model"
	"memfp/internal/mlops"
	"memfp/internal/platform"
)

func main() {
	pf := flag.String("platform", string(platform.K920), "platform ID")
	scale := flag.Float64("scale", 0.08, "fleet scale")
	seed := flag.Uint64("seed", 21, "seed")
	trainer := flag.String("trainer", model.NameGBDT, "registry trainer to ship")
	shards := flag.Int("shards", 0, "serving engine shards (0 = one per CPU); any value emits the same alarms")
	flag.Parse()
	ctx := context.Background()
	loop, err := memfp.BootFigure6(ctx, memfp.Config{Scale: *scale, Seed: *seed},
		memfp.Figure6{Platform: platform.ID(*pf), Trainer: *trainer, Shards: *shards, Cycles: true}, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	defer loop.Close()
	if err := loop.Serve(ctx); err != nil {
		log.Fatal(err)
	}

	// Persistence: the registry serializes its model artifacts, so a
	// fresh process (here: a fresh Registry value) serves the same
	// production model at the same threshold.
	pipe := loop.Pipeline
	var buf bytes.Buffer
	if err := pipe.Registry.Save(&buf); err != nil {
		log.Fatal(err)
	}
	reloaded, err := mlops.LoadRegistry(&buf)
	if err != nil {
		log.Fatal(err)
	}
	prod, err := reloaded.Production(pipe.ModelName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded registry: production %s v%d [%s] threshold=%.2f survives the round-trip\n",
		prod.Name, prod.Version, prod.Algorithm, prod.Threshold)
}
