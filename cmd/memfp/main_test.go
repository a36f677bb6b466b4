package main

import (
	"bytes"
	"context"
	"regexp"
	"slices"
	"strings"
	"testing"

	"memfp/internal/ml/model"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
)

// TestRunServeSmoke runs the serve flow (train → gate → serve through the
// control plane's in-process node → dashboard) at the examples-smoke
// scale, requires the same report at one shard and at four, and pins the
// fleet's alarm, prediction and feedback lines, so a change to how the
// stream reaches the engine cannot move the alarm stream unnoticed. The
// dashboard's shard lines are wall-clock and are not compared.
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
	cache := pipeline.NewFleetCache()
	var want string
	for _, shards := range []int{1, 4} {
		var out bytes.Buffer
		if err := runServe(context.Background(), &out, cache, platform.Purley, model.NameGBDT, 0.03, 31, shards, 0); err != nil {
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
}

// TestReproKnowsEveryExperiment pins the list `memfp repro` runs: the
// root package's tables and figures plus fig6, in report order.
func TestReproKnowsEveryExperiment(t *testing.T) {
	var got []string
	for _, e := range experiments() {
		got = append(got, e.Name)
	}
	want := []string{"table1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6", "transfer"}
	if !slices.Equal(got, want) {
		t.Errorf("repro experiments %v, want %v", got, want)
	}
}
