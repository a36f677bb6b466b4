package model

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"memfp/internal/faultsim"
	"memfp/internal/platform"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// synthTrainSet builds a deterministic, learnable binary problem: the
// label correlates with the first two features plus noise.
func synthTrainSet(n, dim int, seed uint64) TrainSet {
	rng := xrand.New(seed)
	mk := func(rows int) ([][]float64, []int) {
		X := make([][]float64, rows)
		y := make([]int, rows)
		for i := range X {
			x := make([]float64, dim)
			for j := range x {
				x[j] = rng.Float64()*4 - 2
			}
			X[i] = x
			if x[0]+0.5*x[1]+0.3*(rng.Float64()-0.5) > 0.4 {
				y[i] = 1
			}
		}
		return X, y
	}
	X, y := mk(n)
	Xv, yv := mk(n / 4)
	return TrainSet{X: X, Y: y, XVal: Xv, YVal: yv, Platform: platform.Purley, Seed: seed}
}

// fitAll fits every registered trainer on the synthetic set.
func fitAll(t *testing.T) map[string]Model {
	t.Helper()
	ts := synthTrainSet(300, 8, 11)
	out := map[string]Model{}
	for _, tr := range All() {
		m, err := tr.Fit(context.Background(), ts)
		if err != nil {
			t.Fatalf("%s: fit: %v", tr.Name(), err)
		}
		if m.Algo() != tr.Name() {
			t.Fatalf("%s: model reports algo %q", tr.Name(), m.Algo())
		}
		out[tr.Name()] = m
	}
	return out
}

func TestRegistryOrderAndLookup(t *testing.T) {
	want := []string{NameRiskyCE, NameForest, NameGBDT, NameFTT, NameLogistic}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order %v, want %v", got, want)
		}
	}
	for _, n := range want {
		tr, ok := Get(n)
		if !ok || tr.Name() != n {
			t.Errorf("Get(%q) = %v, %v", n, tr, ok)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get of unregistered name should fail")
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	mustPanic := func(name string, r Registration) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register should panic", name)
			}
		}()
		Register(r)
	}
	mustPanic("duplicate", Registration{Trainer: gbdtTrainer{}, Unmarshal: unmarshalGBDT})
	mustPanic("nil trainer", Registration{Unmarshal: unmarshalGBDT})
	mustPanic("nil unmarshal", Registration{Trainer: gbdtTrainer{}})
}

// TestRoundTripByteIdenticalScores is the serialization contract: every
// registered model reloads through Load and scores a fixed batch exactly
// as the in-memory original.
func TestRoundTripByteIdenticalScores(t *testing.T) {
	models := fitAll(t)
	probe := synthTrainSet(64, 8, 99)
	batch := Batch{X: probe.X}
	for name, m := range models {
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		re, err := Load(blob)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if re.Algo() != name {
			t.Fatalf("%s: reloaded model reports algo %q", name, re.Algo())
		}
		a, b := m.ScoreBatch(batch), re.ScoreBatch(batch)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: score %d diverged after round-trip: %.17g vs %.17g", name, i, a[i], b[i])
			}
		}
	}
}

// TestRiskyRoundTripOnStore exercises the rule model's store-backed
// scoring path across a round-trip (the feature-matrix path above scores
// zeros for it).
func TestRiskyRoundTripOnStore(t *testing.T) {
	res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.Purley, Scale: 0.005, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := Get(NameRiskyCE)
	m, err := tr.Fit(context.Background(), TrainSet{Platform: platform.Purley})
	if err != nil {
		t.Fatal(err)
	}
	var dimms []trace.DIMMID
	var times []trace.Minutes
	for _, l := range res.Store.DIMMs() {
		dimms = append(dimms, l.ID)
		times = append(times, trace.ObservationSpan/2)
	}
	batch := Batch{DIMMs: dimms, Times: times, Store: res.Store}
	before := m.ScoreBatch(batch)
	nonzero := 0
	for _, s := range before {
		if s != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("rule model never fired on a Purley fleet — store path broken")
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	after := re.ScoreBatch(batch)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rule score %d diverged: %v vs %v", i, before[i], after[i])
		}
	}
	if _, ok := re.(FixedThresholder); !ok {
		t.Error("reloaded rule model lost its fixed threshold")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load([]byte("not json")); err == nil || !strings.Contains(err.Error(), "corrupt envelope") {
		t.Errorf("corrupt bytes: %v", err)
	}
	if _, err := Load([]byte(`{"format":"something-else","version":1}`)); err == nil || !strings.Contains(err.Error(), "not a model envelope") {
		t.Errorf("foreign format: %v", err)
	}
	if _, err := Load([]byte(`{"format":"memfp-model","version":99,"algo":"LightGBM"}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: %v", err)
	}
	blob, _ := json.Marshal(map[string]any{"format": "memfp-model", "version": 1, "algo": "NoSuchAlgo"})
	if _, err := Load(blob); err == nil || !strings.Contains(err.Error(), `unknown algorithm "NoSuchAlgo"`) {
		t.Errorf("unknown algo: %v", err)
	}
	// A registered algo with a garbage payload must fail in its decoder,
	// not succeed silently.
	blob, _ = json.Marshal(map[string]any{"format": "memfp-model", "version": 1, "algo": NameGBDT, "payload": []byte("junk")})
	if _, err := Load(blob); err == nil || !strings.Contains(err.Error(), "decode LightGBM payload") {
		t.Errorf("bad payload: %v", err)
	}
}

func TestNoPositivesErrors(t *testing.T) {
	ts := synthTrainSet(50, 4, 3)
	for i := range ts.Y {
		ts.Y[i] = 0
	}
	for _, tr := range All() {
		if tr.Name() == NameRiskyCE {
			continue // rule-based, fits regardless
		}
		if _, err := tr.Fit(context.Background(), ts); err == nil {
			t.Errorf("%s: fit on all-negative labels should error", tr.Name())
		}
	}
}

// TestSingleRowBatchMatchesBatch: a row scores the same alone as inside a
// batch — what lets the serving engine cut a tick's predictions into
// batches any way it likes.
func TestSingleRowBatchMatchesBatch(t *testing.T) {
	ts := synthTrainSet(200, 6, 21)
	tr, _ := Get(NameGBDT)
	m, err := tr.Fit(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.ScoreBatch(Batch{X: ts.XVal})
	for i, x := range ts.XVal {
		if got := m.ScoreBatch(Batch{X: [][]float64{x}})[0]; got != batch[i] {
			t.Fatalf("single-row score %d = %v, batch = %v", i, got, batch[i])
		}
	}
}

func TestFitDeterminism(t *testing.T) {
	ts := synthTrainSet(200, 6, 7)
	probe := Batch{X: ts.XVal}
	for _, tr := range All() {
		m1, err1 := tr.Fit(context.Background(), ts)
		m2, err2 := tr.Fit(context.Background(), ts)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", tr.Name(), err1, err2)
		}
		a, b := m1.ScoreBatch(probe), m2.ScoreBatch(probe)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same-seed fits diverge at %d: %v vs %v", tr.Name(), i, a[i], b[i])
			}
		}
	}
}
