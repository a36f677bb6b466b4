package mlops

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"memfp/internal/eval"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
	"memfp/internal/xrand"
)

// fitSmallModel trains a fast registered model on a synthetic problem.
func fitSmallModel(t *testing.T, algo string) model.Model {
	t.Helper()
	rng := xrand.New(77)
	n, dim := 400, 6
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		X[i] = x
		if x[0]+x[1] > 0.3 {
			y[i] = 1
		}
	}
	tr, ok := model.Get(algo)
	if !ok {
		t.Fatalf("trainer %q not registered", algo)
	}
	m, err := tr.Fit(context.Background(), model.TrainSet{
		X: X, Y: y, XVal: X[:80], YVal: y[:80], Platform: platform.Purley, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func probeBatch() model.Batch {
	rng := xrand.New(123)
	X := make([][]float64, 50)
	for i := range X {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		X[i] = x
	}
	return model.Batch{X: X}
}

// TestRegistrySaveLoadIdenticalScores: a registry round-trip must serve
// byte-identical scores on a fixed feature batch.
func TestRegistrySaveLoadIdenticalScores(t *testing.T) {
	m := fitSmallModel(t, model.NameGBDT)
	r := NewRegistry()
	v, err := r.Register("purley-pred", platform.Purley, m, eval.Metrics{F1: 0.7, Precision: 0.6}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Algorithm != model.NameGBDT {
		t.Errorf("registered algorithm %q", v.Algorithm)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadRegistry(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lv, err := re.Latest("purley-pred")
	if err != nil {
		t.Fatal(err)
	}
	if lv.Threshold != 0.4 || lv.Metrics.F1 != 0.7 || lv.Platform != platform.Purley {
		t.Errorf("metadata lost in round-trip: %+v", lv)
	}

	batch := probeBatch()
	want := m.ScoreBatch(batch)
	rm, err := lv.Model()
	if err != nil {
		t.Fatal(err)
	}
	got := rm.ScoreBatch(batch)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d diverged after registry round-trip: %.17g vs %.17g", i, got[i], want[i])
		}
	}

	// The serving-layer path (cached model, one row at a time) must agree
	// too.
	sm, err := lv.ServingModel()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range batch.X {
		if s := sm.ScoreBatch(model.Batch{X: [][]float64{x}})[0]; s != want[i] {
			t.Fatalf("served score %d = %v, want %v", i, s, want[i])
		}
	}
}

// TestRegistryPromotionSurvivesRoundTrip: stages — including the
// archived-vs-production distinction — persist.
func TestRegistryPromotionSurvivesRoundTrip(t *testing.T) {
	m := fitSmallModel(t, model.NameLogistic)
	r := NewRegistry()
	if _, err := r.Register("m", platform.K920, m, eval.Metrics{F1: 0.5, Precision: 0.5}, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("m", platform.K920, m, eval.Metrics{F1: 0.6, Precision: 0.5}, 0.45); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote("m", 2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadRegistry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := re.Production("m")
	if err != nil {
		t.Fatal(err)
	}
	if prod.Version != 2 {
		t.Errorf("production is v%d after reload, want v2", prod.Version)
	}
	vs := re.List()
	if len(vs) != 2 {
		t.Fatalf("reloaded registry has %d versions", len(vs))
	}
	if vs[0].Stage != StageArchived {
		t.Errorf("v1 stage %s after reload, want archived", vs[0].Stage)
	}
	// Promotion machinery still works on the reloaded registry.
	if err := re.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	prod, _ = re.Production("m")
	if prod.Version != 1 {
		t.Errorf("re-promotion on reloaded registry failed: production v%d", prod.Version)
	}
}

// TestCorruptArtifactErrors: corrupt or unknown-algorithm envelopes must
// fail rehydration with a descriptive error, not a zero scorer.
func TestCorruptArtifactErrors(t *testing.T) {
	v := &ModelVersion{Name: "m", Version: 1, Artifact: []byte("not an envelope")}
	if _, err := v.ServingModel(); err == nil || !strings.Contains(err.Error(), "corrupt envelope") {
		t.Errorf("corrupt artifact: %v", err)
	}
	// The error is sticky (cached with the rehydration).
	if _, err := v.ServingModel(); err == nil {
		t.Error("second ServingModel call should repeat the error")
	}

	unknown := &ModelVersion{Name: "m", Version: 1,
		Artifact: []byte(`{"format":"memfp-model","version":1,"algo":"NoSuchAlgo","payload":"eyJ9"}`)}
	if _, err := unknown.ServingModel(); err == nil || !strings.Contains(err.Error(), `unknown algorithm "NoSuchAlgo"`) {
		t.Errorf("unknown algorithm: %v", err)
	}

	empty := &ModelVersion{Name: "m", Version: 2}
	if _, err := empty.Model(); err == nil || !strings.Contains(err.Error(), "no serialized artifact") {
		t.Errorf("artifact-less version: %v", err)
	}

	if _, err := LoadRegistry(strings.NewReader("junk")); err == nil {
		t.Error("corrupt registry bytes should error")
	}
	if _, err := LoadRegistry(strings.NewReader(`{"format":"other"}`)); err == nil {
		t.Error("foreign registry format should error")
	}
}
