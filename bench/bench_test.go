package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"memfp/internal/platform"
)

// small shrinks a workload to about the smallest fleet on which its
// model still trains and promotes and its mechanism still engages: enough
// replay ticks for a checkpoint before the kill, a budget tight enough to
// evict.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	switch w.Platform {
	case platform.Purley:
		w.Scale, w.TrainScale = 0.03, 0.02
	case platform.Whitley:
		w.Scale, w.TrainScale = 0.12, 0.1
	case platform.K920:
		w.Scale, w.TrainScale = 0.03, 0.02
	}
	w.ReplayTicks, w.ReplayTick, w.LiveTicks = 40, 256, 150
	if w.BudgetMiB > 0 {
		w.BudgetMiB = 2
	}
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts the report holds exactly the declared metrics,
// each finite and well named.
func checkMetrics(t *testing.T, r *workloadReport, defs []metricDef) {
	t.Helper()
	if r.Error != "" || !r.Correct || r.OpsFailed != 0 || r.OpsAttempted == 0 {
		t.Fatalf("%s: correct=%v ops %d/%d failed, error %q", r.Name, r.Correct, r.OpsFailed, r.OpsAttempted, r.Error)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", r.Name, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s is missing", r.Name, d.Name)
			continue
		}
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("%s: metric name %q is not a contract name", r.Name, d.Name)
		}
		for _, v := range []float64{m.Median, m.Min, m.Max} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v is not finite", r.Name, d.Name, v)
			}
		}
		if m.Unit != d.Unit || m.N == 0 {
			t.Errorf("%s: %s has unit %q (want %q) over %d samples", r.Name, d.Name, m.Unit, d.Unit, m.N)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload's untraced pass — boot,
// replay, live and the byte-for-byte alarm check included — and requires
// all seven end-to-end metrics, none of them zero.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, full := range workloads {
		t.Run(full.Name, func(t *testing.T) {
			w := small(t, full.Name)
			r := runWorkload(w, options{seed: 42, seconds: 1, log: io.Discard})
			checkMetrics(t, r, endToEnd)
			for _, d := range endToEnd {
				if r.Metrics[d.Name].Median <= 0 {
					t.Errorf("%s: %s = %v, want positive", w.Name, d.Name, r.Metrics[d.Name].Median)
				}
			}
			if r.Repetitions < minReps || r.Metrics["setup_s"].N != setupReps {
				t.Errorf("%s: %d repetitions, setup_s over %d set-ups", w.Name, r.Repetitions, r.Metrics["setup_s"].N)
			}
		})
	}
}

// TestWorkloadsTraced runs every workload's traced pass and checks the
// layer invariants: the walk agrees with the engine, each mechanism's
// counters are zero where the workload bypasses it and non-zero where it
// is the point, and the span tree is what the README says it is.
func TestWorkloadsTraced(t *testing.T) {
	for _, full := range workloads {
		t.Run(full.Name, func(t *testing.T) {
			w := small(t, full.Name)
			r := runWorkload(w, options{seed: 42, seconds: 1, trace: true, log: io.Discard})
			checkMetrics(t, r, perLayer)
			val := func(name string) float64 { return r.Metrics[name].Median }
			if val("features.extract.calls") != val("mlops.predictions") || val("mlops.predictions") == 0 {
				t.Errorf("walk made %v extractions, engine %v predictions", val("features.extract.calls"), val("mlops.predictions"))
			}
			if val("model.score.rows") != val("mlops.predictions") {
				t.Errorf("walk scored %v rows for %v predictions", val("model.score.rows"), val("mlops.predictions"))
			}
			nonZero := map[string]bool{
				"node.checkpoint.requests":         w.Lifecycle,
				"node.rejoin.s":                    w.Lifecycle,
				"controlplane.journal.truncations": w.Lifecycle,
				"mlops.mem.evictions":              w.BudgetMiB > 0,
				"mlops.mem.compactions":            w.BudgetMiB > 0,
				"node.ingest2.requests.live":       w.Nodes > 0,
				"controlplane.artifact.bytes":      w.Nodes > 0,
			}
			for name, want := range nonZero {
				if got := val(name); (got != 0) != want {
					t.Errorf("%s = %v, want non-zero: %v", name, got, want)
				}
			}
			if got := val("controlplane.ingest.requests.live"); got != float64(w.LiveTicks) {
				t.Errorf("controlplane.ingest.requests.live = %v, want one per live tick (%d)", got, w.LiveTicks)
			}
			if w.Nodes > 0 && val("node.ingest2.ticks_per_request.live") != 1 {
				t.Errorf("live ticks_per_request = %v, want 1 with one tick in flight", val("node.ingest2.ticks_per_request.live"))
			}

			names := map[string]int{}
			byID := map[int]span{}
			for _, s := range r.spans {
				names[s.Name]++
				byID[s.ID] = s
			}
			for _, s := range r.spans {
				switch s.Name {
				case spanTick:
					if s.Parent != -1 {
						t.Fatalf("root span %d has parent %d", s.ID, s.Parent)
					}
				case spanCPIngest, spanCPFlush:
					if byID[s.Parent].Name != spanTick {
						t.Fatalf("%s span %d is not under a driver tick", s.Name, s.ID)
					}
				default:
					if p := byID[s.Parent].Name; p != spanTick && p != spanCPIngest && p != spanCPFlush {
						t.Fatalf("%s span %d has parent %q", s.Name, s.ID, p)
					}
				}
			}
			if names[spanTick] != w.ReplayTicks+w.LiveTicks+1 { // one per POST plus the replay drain
				t.Errorf("%d root spans for %d ticks", names[spanTick], w.ReplayTicks+w.LiveTicks)
			}
			if (names[spanNodeIngest] > 0) != (w.Nodes > 0) || (names[spanNodeCkpt] > 0) != w.Lifecycle {
				t.Errorf("span counts %v do not match the topology", names)
			}
		})
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesBinary keeps BENCHMARK.json and the binary's
// own tables equal: same workloads and reasons, same metric names, units,
// directions and bounds, in the same order.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the binary %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d emitted", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the binary %+v", i, got, d)
		}
		if seen[d.Name] || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer %s: duplicate name or bad direction %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// TestCommandLine drives main's run function the way the benchmark
// driver does: the last line of standard output is the contract's result
// object, the report lands where -out says, and -against compares a
// second run with it.
func TestCommandLine(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{small(t, "whitley-gbdt-lifecycle")}
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")

	var stdout bytes.Buffer
	args := []string{"--workload", "whitley-gbdt-lifecycle", "--seed", "7", "--seconds", "1", "--trace", "0"}
	if code := run(append(args, "-out", first), &stdout, io.Discard); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Errorf("result %s", lines[len(lines)-1])
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the result line, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Value == nil || m.Unit == nil || *m.Unit != d.Unit {
			t.Errorf("result line lacks %s with unit %s", d.Name, d.Unit)
		}
	}
	for _, want := range []string{"commit", "GOMAXPROCS", "NumCPU", "GOGC", "seed 7", "ops_attempted", "ops_failed 0", "checkpoint every 8"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}

	stdout.Reset()
	code := run(append(args, "-out", filepath.Join(dir, "second.json"), "-against", first), &stdout, io.Discard)
	table := stdout.String()
	if !strings.Contains(table, "verdict") || strings.Count(table, "whitley-gbdt-lifecycle  ") < len(endToEnd) {
		t.Errorf("-against printed no row per end-to-end metric:\n%s", table)
	}
	if (code != 0) != strings.Contains(table, verdictWorse) {
		t.Errorf("exit code %d does not follow the verdicts:\n%s", code, table)
	}

	if code := run([]string{"-workload", "no-such-workload"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if code := run([]string{"-trace", "2"}, io.Discard, io.Discard); code == 0 {
		t.Error("-trace 2 exited 0")
	}
}

// TestAgainstFlagsFailedOps pins the second half of the -against gate: a
// rise in failed ÷ attempted ops regresses a run whatever its metrics say.
func TestAgainstFlagsFailedOps(t *testing.T) {
	mk := func(failed int) *report {
		return &report{Workloads: []*workloadReport{{Name: "w", OpsAttempted: 100, OpsFailed: failed,
			Metrics: map[string]metric{"tick_p50_ms": {summary: summary{Median: 1, Min: 1, Max: 1, N: 3}}}}}}
	}
	if compare(io.Discard, mk(0), mk(0)) {
		t.Error("identical reports regressed")
	}
	if !compare(io.Discard, mk(0), mk(1)) {
		t.Error("a new failed op did not regress the run")
	}
}
