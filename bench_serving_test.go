package memfp

// Serving-throughput benchmarks: events/sec replayed through the online
// engine at the bench scale, per production algorithm and shard count.
// (The pre-sharding sequential server these rows were once compared
// against is now the test-only equivalence oracle in internal/mlops.)
//
// The FT-Transformer joins the grid as of PR 6: the grad-free inference
// path in internal/ml/ftt (arena scratch, CLS-only last layer, SIMD
// matmul) brought its per-row cost from ~200µs to ~17µs, so a replay is
// no longer all model time and its serving throughput is worth
// tracking alongside the tree models.

import (
	"context"
	"testing"

	"memfp/internal/faultsim"
	"memfp/internal/ml/model"
	"memfp/internal/mlops"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// servingFixture boots a promoted production model for one trainer over
// the shared bench fleet and returns the pipeline, the fleet, and the
// fleet's total event count.
func servingFixture(b *testing.B, trainer string) (*mlops.Pipeline, *faultsim.Result, int) {
	b.Helper()
	res, err := pipeline.Shared.Get(context.Background(),
		faultsim.Config{Platform: platform.Purley, Scale: benchScale, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pipe := mlops.NewPipeline(platform.Purley)
	pipe.Seed = 42
	pipe.TrainerName = trainer
	if _, err := pipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day); err != nil {
		b.Fatal(err)
	}
	events := 0
	for _, l := range res.Store.DIMMs() {
		events += len(l.Events)
	}
	return pipe, res, events
}

// benchReplay replays the fleet through a fresh engine per iteration and
// reports events/sec.
func benchReplay(b *testing.B, trainer string, shards int) {
	pipe, res, events := servingFixture(b, trainer)
	b.ResetTimer()
	alarms := 0
	for i := 0; i < b.N; i++ {
		s := mlops.NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, shards)
		n, err := s.Replay(context.Background(), res.Store, nil)
		if err != nil {
			b.Fatal(err)
		}
		alarms = n
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(alarms), "alarms")
}

// LightGBM — the paper's best performer.
func BenchmarkServeLightGBMShards1(b *testing.B) { benchReplay(b, model.NameGBDT, 1) }
func BenchmarkServeLightGBMShardsN(b *testing.B) { benchReplay(b, model.NameGBDT, 0) }

// The remaining fast production algorithms, single shard.
func BenchmarkServeRiskyCEShards1(b *testing.B)  { benchReplay(b, model.NameRiskyCE, 1) }
func BenchmarkServeForestShards1(b *testing.B)   { benchReplay(b, model.NameForest, 1) }
func BenchmarkServeLogisticShards1(b *testing.B) { benchReplay(b, model.NameLogistic, 1) }

// FT-Transformer through the single-shard engine with micro-batching:
// the batched ScoreBatch is exactly what the grad-free inference path
// accelerates, so this row is the serving-side view of the PR 6 tensor
// rebuild.
func BenchmarkServeFTTShards1(b *testing.B) { benchReplay(b, model.NameFTT, 1) }
