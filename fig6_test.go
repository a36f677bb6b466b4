package memfp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"memfp/internal/ml/model"
	"memfp/internal/mlops"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
)

// TestFigure6Cycles runs the loop's monthly path, the one mlopsd serves,
// in-process at the daemon smoke's fleet: the silent history replay, four
// served months with their feedback and retrain decisions, four gated
// retraining cycles, and every alarm through the callback. The month and
// cycle lines are pinned as the daemon prints them; a month's live P/R
// resolve each alarm served since ValEndDay once, against the DIMMs that
// failed from ValEndDay to the month's end.
func TestFigure6Cycles(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five models on a generated fleet")
	}
	var called int
	set := Figure6{
		Platform: platform.Purley, Trainer: model.NameGBDT, Cycles: true,
		Alarms: func(as []mlops.Alarm) { called += len(as) },
	}
	var out bytes.Buffer
	cfg := Config{Scale: 0.03, Seed: 31, Fleets: pipeline.NewFleetCache()}
	if err := RunFigure6(context.Background(), cfg, set, &out); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"[month 6] alarms=195  live P=0.28 R=0.56",
		"[cycle 1] candidate v2  promoted=true",
		"[month 7] alarms=46  live P=0.26 R=0.33",
		"[cycle 2] candidate v3  promoted=false",
		"[month 8] alarms=16  live P=0.30 R=0.25",
		"[cycle 3] candidate v4  promoted=false",
		"[month 9] alarms=0  live P=0.30 R=0.25",
		"[cycle 4] candidate v5  promoted=false",
	}
	var got []string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "[") {
			got = append(got, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("month and cycle lines:\n%s\nwant %d lines starting:\n%s",
			strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("line %d: %q, want prefix %q", i, got[i], w)
		}
	}
	if called != 1865 {
		t.Errorf("%d alarms through the callback, want 1865 (history and months)", called)
	}
}

// TestFigure6BootstrapBelowFloor: the first model is served even when its
// benchmark misses the gate's precision floor — there is no other model to
// serve. Whitley at scale 0.03, seed 1 trains such a model.
func TestFigure6BootstrapBelowFloor(t *testing.T) {
	var out bytes.Buffer
	cfg := Config{Scale: 0.03, Seed: 1, Fleets: pipeline.NewFleetCache()}
	set := Figure6{Platform: platform.Whitley, Trainer: model.NameGBDT, Shards: 1}
	if err := RunFigure6(context.Background(), cfg, set, &out); err != nil {
		t.Fatalf("%v after:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "promoted=true (no production model; bootstrapping despite precision") ||
		!strings.Contains(out.String(), "replayed stream: ") {
		t.Errorf("bootstrap below the floor not served:\n%s", out.String())
	}
}
