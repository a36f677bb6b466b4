package main

import (
	"bytes"
	"context"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"memfp/internal/ml/model"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
)

// TestRunServeSmoke runs the serve flow (train → gate → replay →
// dashboard) at the examples-smoke scale and requires the same non-zero
// alarm count at one shard and at four. The dashboard's latency lines are
// wall-clock and are not compared.
func TestRunServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	line := regexp.MustCompile(`(?m)^replayed stream: (\d+) alarms emitted$`)
	cache := pipeline.NewFleetCache()
	var want string
	for _, shards := range []int{1, 4} {
		var out bytes.Buffer
		if err := runServe(context.Background(), &out, cache, platform.Purley, model.NameGBDT, 0.03, 31, shards, 0); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		m := line.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("shards=%d: no replay line in:\n%s", shards, out.String())
		}
		if n, _ := strconv.Atoi(m[1]); n == 0 {
			t.Fatalf("shards=%d: no alarms emitted; the smoke scale proves nothing", shards)
		}
		if want == "" {
			want = m[0]
		} else if m[0] != want {
			t.Errorf("shards=%d: %q, want %q", shards, m[0], want)
		}
	}
}

// TestReproKnowsEveryExperiment pins the registry `memfp repro` iterates:
// the root package's tables and figures plus fig6, in report order.
func TestReproKnowsEveryExperiment(t *testing.T) {
	var got []string
	for _, s := range pipeline.All() {
		got = append(got, s.Name)
	}
	want := []string{"table1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6", "transfer"}
	if !slices.Equal(got, want) {
		t.Errorf("registered experiments %v, want %v", got, want)
	}
}
