package mlops

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"memfp/internal/eval"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
)

// funcAlgo is the tests' own algorithm, registered through the predictor
// registry's public extension point (model.Register): a model whose
// artifact names an entry of a process-local table of score functions.
// A test can thereby serve any func([]float64) float64 — a constant, a
// spy — as a real artifact-backed version, through the engine's one
// scoring path. Such an artifact means nothing outside this process.
const funcAlgo = "test-func"

var funcTable struct {
	sync.Mutex
	fns []func(x []float64) float64
}

func init() {
	model.Register(model.Registration{Order: 1000, Trainer: funcTrainer{}, Unmarshal: unmarshalFunc})
}

type funcTrainer struct{}

func (funcTrainer) Name() string                { return funcAlgo }
func (funcTrainer) Applicable(platform.ID) bool { return false }
func (funcTrainer) Fit(context.Context, model.TrainSet) (model.Model, error) {
	return nil, errors.New("test-func models are built by registerFunc, not fitted")
}

type funcModel struct {
	id int
	f  func(x []float64) float64
}

func (m funcModel) Algo() string { return funcAlgo }

func (m funcModel) ScoreBatch(b model.Batch) []float64 {
	out := make([]float64, len(b.X))
	for i, x := range b.X {
		out[i] = m.f(x)
	}
	return out
}

// MarshalBinary writes the model package's envelope around the table
// index.
func (m funcModel) MarshalBinary() ([]byte, error) {
	return json.Marshal(map[string]any{
		"format": "memfp-model", "version": 1, "algo": funcAlgo,
		"payload": []byte(strconv.Itoa(m.id)),
	})
}

func unmarshalFunc(payload []byte) (model.Model, error) {
	id, err := strconv.Atoi(string(payload))
	funcTable.Lock()
	defer funcTable.Unlock()
	if err != nil || id < 0 || id >= len(funcTable.fns) {
		return nil, fmt.Errorf("no score function %q in this process", payload)
	}
	return funcModel{id: id, f: funcTable.fns[id]}, nil
}

// registerFunc registers f as the next staged version of name.
func registerFunc(tb testing.TB, reg *Registry, name string, f func(x []float64) float64,
	metrics eval.Metrics, threshold float64) *ModelVersion {
	tb.Helper()
	funcTable.Lock()
	m := funcModel{id: len(funcTable.fns), f: f}
	funcTable.fns = append(funcTable.fns, f)
	funcTable.Unlock()
	v, err := reg.Register(name, platform.Purley, m, metrics, threshold)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}
