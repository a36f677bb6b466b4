package main

import (
	"bytes"
	"context"
	"regexp"
	"slices"
	"strings"
	"testing"

	"memfp"
	"memfp/internal/ml/model"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
)

// TestRunServeSmoke runs serve's Figure 6 loop (train → gate → serve the
// whole stream through the control plane's in-process node → dashboard)
// at the examples-smoke scale, requires the same report at one shard and
// at four, and pins the fleet's alarm, prediction and feedback lines, so a
// change to how the stream reaches the engine cannot move the alarm
// stream unnoticed. The dashboard's shard lines are wall-clock and are
// not compared. A one-shard run under a 1 MiB memory budget must emit the
// same alarms and pins the eviction counts the budget produces.
func TestRunServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pinned := []string{
		"replayed stream: 2151 alarms emitted",
		"predictions: 65378, alarms: 2151",
		"feedback: TP=27 FP=65 FN=33 (live P=0.29 R=0.45)",
	}
	shardLine := regexp.MustCompile(`(?m)^shard \d+: .*\n`)
	cfg := memfp.Config{Scale: 0.03, Seed: 31, Fleets: pipeline.NewFleetCache()}
	var want string
	for _, shards := range []int{1, 4} {
		var out bytes.Buffer
		set := memfp.Figure6{Platform: platform.Purley, Trainer: model.NameGBDT, Shards: shards}
		if err := memfp.RunFigure6(context.Background(), cfg, set, &out); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := shardLine.ReplaceAllString(out.String(), "")
		lines := strings.Split(got, "\n")
		for _, p := range pinned {
			if !slices.Contains(lines, p) {
				t.Errorf("shards=%d: no line %q in:\n%s", shards, p, got)
			}
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("shards=%d report:\n%s\nwant (shards=1):\n%s", shards, got, want)
		}
	}

	var out bytes.Buffer
	set := memfp.Figure6{Platform: platform.Purley, Trainer: model.NameGBDT, Shards: 1, MemoryBudgetMiB: 1}
	if err := memfp.RunFigure6(context.Background(), cfg, set, &out); err != nil {
		t.Fatalf("memory budget 1 MiB: %v", err)
	}
	lines := strings.Split(out.String(), "\n")
	for _, p := range append(pinned,
		"memory budget 1 MiB: resident=11844960B (1 DIMMs live, 1522 frozen), evictions=11673 rehydrations=10151 compactions=13888") {
		if !slices.Contains(lines, p) {
			t.Errorf("memory budget 1 MiB: no line %q in:\n%s", p, out.String())
		}
	}
}

// TestReproKnowsEveryExperiment requires `memfp repro -exp` to offer
// exactly the root package's experiment list, in report order.
func TestReproKnowsEveryExperiment(t *testing.T) {
	var names []string
	for _, e := range memfp.Experiments() {
		names = append(names, e.Name)
	}
	want := "(want all|" + strings.Join(names, "|") + ")"
	if err := cmdRepro([]string{"-exp", "no-such-experiment"}); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("repro -exp no-such-experiment: %v, want an error ending %q", err, want)
	}
}
