package mlops

import (
	"testing"

	"memfp/internal/eval"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// TestTransientRegistryErrorPreservesThrottle pins the throttle-advance
// ordering: a prediction opportunity that dies on a registry/rehydration
// error must stay available — the next event retries instead of finding
// the throttle already advanced by the failed attempt.
func TestTransientRegistryErrorPreservesThrottle(t *testing.T) {
	reg := NewRegistry()
	s := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	id := trace.DIMMID{Platform: platform.Purley, Server: 2, Slot: 3}
	s.RegisterDIMM(id, part)
	mk := func(tm trace.Minutes) trace.Event {
		return trace.Event{Time: tm, Type: trace.TypeCE, DIMM: id}
	}
	// Prediction due at minute 10, but no production version exists yet —
	// the transient failure mode of a registry mid-promotion.
	if _, err := ingestOne(s, mk(10)); err == nil {
		t.Fatal("expected a registry error while no production version exists")
	}
	// The registry recovers.
	always := func(x []float64) float64 { return 1.0 }
	registerFunc(t, reg, "m", always, eval.Metrics{Precision: 1, F1: 1}, 0.5)
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	// Minute 12 is within PredictEvery of the failed attempt: only an
	// unconsumed throttle lets it predict (and alarm).
	a, err := ingestOne(s, mk(12))
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("failed prediction attempt consumed the throttle (lastPred advanced before production())")
	}
}

// TestRegistryRollback walks a promote → promote → rollback cycle and
// checks the epoch advances so serving caches re-resolve.
func TestRegistryRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	_, res := trainedPipeline(t)
	pipe := NewPipeline(fixturePipe.Platform)
	pipe.Seed = 31
	if _, err := pipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day); err != nil {
		t.Fatal(err)
	}
	reg := pipe.Registry
	if _, err := reg.Rollback(pipe.ModelName); err == nil {
		t.Fatal("Rollback with a single version should error")
	}
	v1, err := reg.Production(pipe.ModelName)
	if err != nil {
		t.Fatal(err)
	}
	// Force a second promotion regardless of the gate.
	pipe.Seed = 32
	tr, err := pipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Promoted {
		if err := reg.Promote(pipe.ModelName, tr.Version.Version); err != nil {
			t.Fatal(err)
		}
	}
	before := reg.Epoch()
	back, err := reg.Rollback(pipe.ModelName)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != v1.Version {
		t.Fatalf("rolled back to v%d, want v%d", back.Version, v1.Version)
	}
	cur, err := reg.Production(pipe.ModelName)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != v1.Version || reg.Epoch() == before {
		t.Fatalf("production v%d epoch-moved=%v, want v%d with epoch bump",
			cur.Version, reg.Epoch() != before, v1.Version)
	}
}
