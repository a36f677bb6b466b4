// Mlops walks the paper's Figure 6 framework end to end on one platform:
// batch training through the feature store, CI/CD-gated promotion into the
// model registry, online prediction over a replayed event stream served
// through the control plane (controlplane.New with no node daemons: one
// in-process node, the way mlopsd serves without -nodes), alarm feedback,
// drift monitoring, a gated retraining cycle, and registry persistence
// (serialized model artifacts surviving a save/load round-trip). The
// -trainer flag ships any registered algorithm through the same loop.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"

	"memfp/internal/controlplane"
	"memfp/internal/dataset"
	"memfp/internal/faultsim"
	"memfp/internal/ml/model"
	"memfp/internal/mlops"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

func main() {
	pf := flag.String("platform", string(platform.K920), "platform ID")
	scale := flag.Float64("scale", 0.08, "fleet scale")
	seed := flag.Uint64("seed", 21, "seed")
	trainer := flag.String("trainer", model.NameGBDT, "registry trainer to ship")
	shards := flag.Int("shards", 0, "serving engine shards (0 = one per CPU); any value emits the same alarms")
	flag.Parse()
	id := platform.ID(*pf)
	if _, err := platform.Get(id); err != nil {
		log.Fatal(err)
	}
	res, err := pipeline.Generate(context.Background(),
		faultsim.Config{Platform: id, Scale: *scale, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	pipe := mlops.NewPipeline(id)
	pipe.Seed = *seed
	pipe.TrainerName = *trainer
	pipe.Shards = *shards

	// Feature store catalog, as Data Scientists would browse it.
	fs := pipe.Features
	fmt.Printf("feature store: %d features (%d temporal, %d spatial, %d bit-level, %d static)\n",
		len(fs.Definitions()),
		len(fs.ByKind(mlops.KindTemporal)), len(fs.ByKind(mlops.KindSpatial)),
		len(fs.ByKind(mlops.KindBitLevel)), len(fs.ByKind(mlops.KindStatic)))

	// CI/CD cycle 1: train on the first five months, benchmark, promote.
	tr, err := pipe.TrainAndMaybePromote(res.Store, dataset.TrainEndDay*trace.Day, dataset.ValEndDay*trace.Day)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycle 1: %s v%d promoted=%v (%s) benchmark[%s]\n",
		tr.Version.Name, tr.Version.Version, tr.Promoted, tr.Reason, tr.Benchmark)

	// Online serving: the control plane journals the fleet's time-ordered
	// stream tick by tick and serves it through its in-process node — the
	// same journal, wire and sharded engine a node daemon runs — whose
	// shards score each tick's due predictions as one micro-batch; the
	// alarm stream is identical for any -shards value.
	cp, err := controlplane.New(controlplane.Config{Pipeline: pipe})
	if err != nil {
		log.Fatal(err)
	}
	defer cp.Close()
	for _, l := range res.Store.DIMMs() {
		cp.RegisterDIMM(l.ID, l.Part)
	}
	all, failed := res.Store.Stream()
	alarms, err := cp.ServeStream(context.Background(), all)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range alarms[:min(3, len(alarms))] {
		fmt.Printf("  ALARM %s score=%.2f at %v → dispatching VM live-migration\n",
			a.DIMM, a.Score, a.Time)
	}
	fl := cp.Fleet()
	fmt.Printf("serving engine: %d shards\n", len(fl.Shards))
	fmt.Printf("online serving: %d alarms over the stream\n", len(alarms))

	// Feedback: resolve alarms against actual failures.
	pipe.ResolveAlarms(alarms, failed, 30*trace.Day)
	fmt.Print(pipe.Monitor.DashboardOf(fl.Predictions, fl.Shards))

	// Monitoring decides whether to retrain; a second CI/CD cycle runs
	// the promotion gate against the incumbent.
	dec := pipe.Monitor.ShouldRetrain(fl.PSI, 0.25, 0.15)
	fmt.Printf("retrain decision: %v (%s, PSI=%.3f)\n", dec.Retrain, dec.Reason, dec.PSI)

	tr2, err := pipe.TrainAndMaybePromote(res.Store, 180*trace.Day, 210*trace.Day)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycle 2: v%d promoted=%v (%s)\n", tr2.Version.Version, tr2.Promoted, tr2.Reason)
	for _, v := range pipe.Registry.List() {
		fmt.Printf("registry: %s v%d [%s] stage=%s F1=%.2f\n",
			v.Name, v.Version, v.Algorithm, v.Stage, v.Metrics.F1)
	}

	// Persistence: the registry serializes its model artifacts, so a
	// fresh process (here: a fresh Registry value) serves the same
	// production model at the same threshold.
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
