package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"memfp/internal/trace"
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
		rep, blob := runDoc(t, chaosDoc, Options{Shards: shards})
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
// stream, and to leave no control-plane sender goroutine behind.
func TestRunCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a partial scenario")
	}
	before := runtime.NumGoroutine()
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
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines outlive the cancelled run (%d before it)", n-before, before)
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

// TestMaintenanceHoldsAndResumes pins the maintenance window: the events
// the paused control plane journals are counted, and every one of them is
// served by the end of the scenario.
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

// shippedDigests pins the alarm_digest of every shipped scenario, and of
// chaosDoc, so a serving change that moves any alarm shows up here rather
// than only in a scenario's assertion bounds.
var shippedDigests = []struct{ name, digest string }{
	{"baseline-clean", "49019224812a6f25abb3b42cad074ce6614d11700d3bbc59878fc4fc831738df"},
	{"ce-storm", "b57de7514b9abeb9a1745996c1361a15dd50391f78cbd27ade8743fdfad6b6d6"},
	{"firmware-wave", "ae6df570e7242f88ae15fa53fbd3ad5bec2cf2e07c0a6ade1b6ddd1aa0bbb10a"},
	{"hotswap-maintenance", "a6d015fba2cd098c4b92b87883087e237e774fed73dbeaf7ffae26bc7da9b607"},
	{"multiplatform-lag", "8f5ace20c1d0ccfcb02b5c5c86dafa59f8f98f787cbd2e619cc1d26f7e758ad6"},
	{"chaos-regression", "bb73016956315fde571e24f3665304c81167fb1cdd9cc2fa6c1d8d964f4fd2de"},
}

func TestShippedScenarioDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every shipped scenario")
	}
	for _, tc := range shippedDigests {
		t.Run(tc.name, func(t *testing.T) {
			doc := chaosDoc
			if tc.name != "chaos-regression" {
				src, err := os.ReadFile(filepath.Join("..", "..", "scenarios", tc.name+".yaml"))
				if err != nil {
					t.Fatal(err)
				}
				doc = string(src)
			}
			rep, _ := runDoc(t, doc, Options{})
			if rep.AlarmDigest != tc.digest {
				t.Fatalf("alarm_digest %s, pinned %s", rep.AlarmDigest, tc.digest)
			}
		})
	}
}

// swapDoc holds every event from day 160 to 180 in a maintenance window
// and hot-swaps the alarmed modules at day 170, inside it: the old
// modules' telemetry from days 160–170 reaches the engine after the swap.
const swapDoc = `
name: hotswap-pre-swap
seed: 7
record_alarms: true
fleet:
  scale: 0.02
  templates:
    - platform: Intel_Purley
      weight: 1
chaos:
  - at_day: 160
    action: maintenance
    duration_days: 20
  - at_day: 170
    action: hotswap
    selector: alarmed
`

// TestHotswapKeepsPreSwapAlarms pins that a swap never rewrites alarms
// from before it: the alarms timed before the swap equal those of the
// same file without the hotswap action, even for the telemetry the
// maintenance window delivered only after it.
func TestHotswapKeepsPreSwapAlarms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full scenarios")
	}
	cut := strings.Index(swapDoc, "  - at_day: 170")
	swapped, _ := runDoc(t, swapDoc, Options{})
	kept, _ := runDoc(t, swapDoc[:cut], Options{})
	if swapped.Counters.Hotswaps == 0 || swapped.Counters.EventsHeld == 0 {
		t.Fatalf("the swap or the window did nothing: %+v", swapped.Counters)
	}
	before := func(r *Report) []AlarmRecord {
		var out []AlarmRecord
		for _, a := range r.Alarms {
			if a.Time < int64(170*trace.Day) {
				out = append(out, a)
			}
		}
		return out
	}
	got, want := before(swapped), before(kept)
	if len(want) == 0 {
		t.Fatal("no alarms before the swap; the test proves nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d alarms before the swap, %d without it", len(got), len(want))
	}
}
