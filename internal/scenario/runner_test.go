package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// chaosDoc is the regression workhorse: a small Purley fleet hit with
// every injector family plus a maintenance window and a hot-swap wave.
const chaosDoc = `
name: chaos-regression
seed: 7
fleet:
  scale: 0.02
  templates:
    - platform: Intel_Purley
      weight: 1
chaos:
  - at_day: 60
    action: maintenance
    duration_days: 3
  - at_day: 120
    action: ce_storm
    duration_days: 4
    fraction: 0.1
    rate_per_day: 30
    mode: sporadic
  - at_day: 170
    action: hotswap
    selector: alarmed
    max_targets: 10
  - at_day: 190
    action: log_lag
    duration_days: 3
    fraction: 0.5
assertions:
  - type: alarm_count
    min: 1
`

// cleanDoc is the same fleet (scale and seed) with no chaos.
const cleanDoc = `
name: clean-regression
seed: 7
fleet:
  scale: 0.02
  templates:
    - platform: Intel_Purley
      weight: 1
`

func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	s, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runDoc(t *testing.T, doc string, opt Options) (*Report, []byte) {
	t.Helper()
	rep, err := Run(context.Background(), mustParse(t, doc), opt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return rep, blob
}

// TestRunDeterministicAcrossShards is the tentpole guarantee: the same
// scenario and seed produce a byte-identical report — alarm digest
// included — at every serving shard count, and across repeated runs.
func TestRunDeterministicAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	ref, refBlob := runDoc(t, chaosDoc, Options{Shards: 1})
	if ref.Counters.Alarms == 0 || ref.Counters.EventsInjected == 0 {
		t.Fatalf("reference run proves nothing: %+v", ref.Counters)
	}
	for _, shards := range []int{4, 16} {
		rep, blob := runDoc(t, chaosDoc, Options{Shards: shards, Workers: shards})
		if rep.AlarmDigest != ref.AlarmDigest {
			t.Fatalf("alarm digest diverges at %d shards: %s vs %s",
				shards, rep.AlarmDigest, ref.AlarmDigest)
		}
		if !bytes.Equal(blob, refBlob) {
			t.Fatalf("canonical report diverges at %d shards", shards)
		}
	}
	_, again := runDoc(t, chaosDoc, Options{Shards: 1})
	if !bytes.Equal(again, refBlob) {
		t.Fatal("repeated run with identical options diverges")
	}
}

// TestChaosDivergesFromClean pins that injection actually reaches the
// serving stack: the chaos run of the same fleet delivers strictly more
// events, drops the hot-swapped modules' tails, and holds telemetry
// through the maintenance window.
func TestChaosDivergesFromClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full scenarios")
	}
	clean, _ := runDoc(t, cleanDoc, Options{Shards: 4})
	chaos, _ := runDoc(t, chaosDoc, Options{Shards: 4})
	if chaos.Counters.EventsInjected == 0 || chaos.Counters.EventsDropped == 0 ||
		chaos.Counters.EventsHeld == 0 || chaos.Counters.EventsLagged == 0 ||
		chaos.Counters.Hotswaps == 0 {
		t.Fatalf("chaos counters flat: %+v", chaos.Counters)
	}
	if clean.Counters.EventsInjected != 0 || clean.Counters.EventsDropped != 0 {
		t.Fatalf("clean run shows injection: %+v", clean.Counters)
	}
	if chaos.Counters.EventsDelivered <= clean.Counters.EventsDelivered-chaos.Counters.EventsDropped {
		t.Fatalf("chaos delivered %d, clean %d (dropped %d): storm not delivered",
			chaos.Counters.EventsDelivered, clean.Counters.EventsDelivered,
			chaos.Counters.EventsDropped)
	}
	if chaos.AlarmDigest == clean.AlarmDigest {
		t.Fatal("chaos and clean runs alarmed identically")
	}
}

// TestRunCancellation cancels mid-scenario through the tick hook and
// expects Run to exit promptly with the context error, not to finish the
// stream.
func TestRunCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a partial scenario")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lastTick := -1
	s := mustParse(t, cleanDoc)
	rep, err := Run(ctx, s, Options{Shards: 2, TickHook: func(tick int) {
		lastTick = tick
		if tick == 5 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = (%v, %v), want context.Canceled", rep, err)
	}
	if lastTick > 6 {
		t.Fatalf("runner kept ticking after cancel (last tick %d)", lastTick)
	}
}

// TestShippedScenariosValidate parses every scenario the repo ships, so
// a schema change cannot silently strand them.
func TestShippedScenariosValidate(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("expected at least 4 shipped scenarios, found %d", len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(string(src)); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestMaintenanceHoldsAndResumes pins the runner's maintenance hold: held
// events are counted, and every one of them is served by the end of the
// scenario.
func TestMaintenanceHoldsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	chaos, _ := runDoc(t, chaosDoc, Options{Shards: 2})
	if chaos.Counters.EventsHeld == 0 {
		t.Fatal("maintenance window held nothing")
	}
	// Held events are delivered on resume, not dropped: delivered covers
	// the generated stream minus only the hot-swap drops, plus storms.
	want := chaos.Fleet.Generated + chaos.Counters.EventsInjected - chaos.Counters.EventsDropped
	if chaos.Counters.EventsDelivered != want {
		t.Fatalf("delivered %d, want generated+injected-dropped = %d",
			chaos.Counters.EventsDelivered, want)
	}
}
