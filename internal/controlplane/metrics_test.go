package controlplane

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"memfp/internal/trace"
)

// metricSample is one parsed exposition line.
type metricSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (.+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"`)
)

// parseProm parses Prometheus text exposition, failing the test on any
// malformed line or any sample whose family lacks a preceding # TYPE.
func parseProm(t *testing.T, text string) (samples []metricSample, types map[string]string) {
	t.Helper()
	types = map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, m[3], err)
		}
		labels := map[string]string{}
		for _, lm := range labelRe.FindAllStringSubmatch(m[2], -1) {
			labels[lm[1]] = lm[2]
		}
		family := m[1]
		for _, suffix := range []string{"_sum", "_count"} {
			if base := strings.TrimSuffix(family, suffix); base != family {
				if _, ok := types[base]; ok {
					family = base
					break
				}
			}
		}
		if _, ok := types[family]; !ok {
			t.Errorf("line %d: sample %s has no preceding # TYPE", ln+1, m[1])
		}
		samples = append(samples, metricSample{name: m[1], labels: labels, value: v})
	}
	return samples, types
}

func findSamples(samples []metricSample, name string) []metricSample {
	var out []metricSample
	for _, s := range samples {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestMetricsExposition(t *testing.T) {
	f := fleet(t)
	pipe := alwaysFirePipeline(t)
	fl := bootFleet(t, Config{Pipeline: pipe})
	cp := fl.cp
	for id, part := range f.parts {
		cp.RegisterDIMM(id, part)
	}
	pipe.Monitor.SetReferenceScores([]float64{0.1, 0.2, 0.8, 0.9})
	pipe.Monitor.Feedback(2, 1, 1)

	n := min(4000, len(f.all))
	ticks := (n + streamTick - 1) / streamTick
	if _, err := cp.ServeStream(context.Background(), f.all[:n]); err != nil {
		t.Fatal(err)
	}
	alarms, _ := cp.AlarmsSince(0)
	if len(alarms) == 0 {
		t.Fatal("fixture ingest raised no alarms")
	}

	text, err := fl.cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, text)

	for _, family := range []string{
		"memfp_events_ingested_total", "memfp_predictions_total", "memfp_alarms_total",
		"memfp_drift_psi", "memfp_feedback_total", "memfp_live_precision", "memfp_live_recall",
		"memfp_memory_resident_bytes", "memfp_memory_evictions_total",
		"memfp_memory_rehydrations_total", "memfp_memory_compactions_total",
		"memfp_memory_compacted_events_total",
		"memfp_memory_spilled_bytes", "memfp_memory_spills_total",
		"memfp_snapshot_records_total", "memfp_snapshot_records_reencoded_total",
		"memfp_shard_queue_depth", "memfp_shard_ingest_latency_seconds",
		"memfp_registry_epoch", "memfp_model_production_version",
		"memfp_ticks_total", "memfp_ticks_pending", "memfp_paused",
		"memfp_journal_depth", "memfp_journal_depth_highwater",
		"memfp_journal_truncations_total", "memfp_journal_truncated_ticks_total", "memfp_journal_bytes",
		"memfp_spill_bytes_total",
		"memfp_nodes_expected", "memfp_nodes_joined",
	} {
		if _, ok := types[family]; !ok {
			t.Errorf("family %s missing from exposition", family)
		}
	}

	// Counters agree with the monitor.
	var evTotal float64
	evTypes := map[string]bool{}
	for _, s := range findSamples(samples, "memfp_events_ingested_total") {
		evTotal += s.value
		evTypes[s.labels["type"]] = true
	}
	mon := pipe.Monitor
	wantEv := float64(mon.EventCount(trace.TypeCE) + mon.EventCount(trace.TypeUE) + mon.EventCount(trace.TypeStorm))
	if evTotal != wantEv || !evTypes["CE"] || !evTypes["UE"] {
		t.Errorf("events exposition = %v over %v, want %v with CE and UE series", evTotal, evTypes, wantEv)
	}
	if s := findSamples(samples, "memfp_alarms_total"); len(s) != 1 || s[0].value != float64(len(alarms)) {
		t.Errorf("alarms_total = %+v, want %d", s, len(alarms))
	}
	if s := findSamples(samples, "memfp_ticks_total"); len(s) != 1 || s[0].value != float64(ticks) {
		t.Errorf("ticks_total = %+v, want %d", s, ticks)
	}
	if s := findSamples(samples, "memfp_registry_epoch"); len(s) != 1 || s[0].value < 1 {
		t.Errorf("registry_epoch = %+v, want >= 1", s)
	}

	// The latency summary carries the three quantiles plus _sum/_count
	// for every engine shard.
	quantiles := map[string]map[string]bool{}
	for _, s := range findSamples(samples, "memfp_shard_ingest_latency_seconds") {
		sh := s.labels["shard"]
		if quantiles[sh] == nil {
			quantiles[sh] = map[string]bool{}
		}
		quantiles[sh][s.labels["quantile"]] = true
	}
	if len(quantiles) != 2 {
		t.Fatalf("latency summary covers shards %v, want the engine's 2", quantiles)
	}
	for sh, qs := range quantiles {
		for _, q := range []string{"0.5", "0.9", "0.99"} {
			if !qs[q] {
				t.Errorf("shard %s missing quantile %s", sh, q)
			}
		}
	}
	var sums, counts int
	for _, s := range samples {
		switch s.name {
		case "memfp_shard_ingest_latency_seconds_sum":
			sums++
		case "memfp_shard_ingest_latency_seconds_count":
			counts++
			if s.value != float64(ticks) {
				t.Errorf("shard %s latency count = %v, want %d ticks", s.labels["shard"], s.value, ticks)
			}
		}
	}
	if sums != 2 || counts != 2 {
		t.Errorf("latency _sum/_count samples = %d/%d, want 2/2", sums, counts)
	}
	if s := findSamples(samples, "memfp_shard_queue_depth"); len(s) != 2 {
		t.Errorf("queue depth samples = %d, want one per shard", len(s))
	}
	if s := findSamples(samples, "memfp_feedback_total"); len(s) != 3 {
		t.Errorf("feedback samples = %d, want tp/fp/fn", len(s))
	}
}

// TestMetricsNodeExposition covers the node daemon's /metrics surface:
// a node reports its slice of the fleet's ingest, predictions and memory,
// and leaves score drift and alarm feedback to the control plane — its
// monitor has no training reference and resolves no alarm, so those
// families would read 0 on every node whatever the fleet did.
func TestMetricsNodeExposition(t *testing.T) {
	// Before joining the node has no engine: 503.
	rec := httptest.NewRecorder()
	NewNode("n0", "http://unused").Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("unjoined node's /metrics = %d, want 503", rec.Code)
	}

	fl := bootFleet(t, Config{Pipeline: mirror(t), ExpectNodes: 1})
	fl.join(t, "n1")
	// The node's own surface, reached through the control plane's router.
	text, err := (&Client{base: "http://" + fl.hosts["n1"], HTTP: fl.cp.client}).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	_, types := parseProm(t, text)
	for _, family := range []string{
		"memfp_events_ingested_total", "memfp_predictions_total",
		"memfp_memory_resident_bytes", "memfp_memory_spilled_bytes", "memfp_memory_spills_total",
		"memfp_snapshot_records_total", "memfp_snapshot_records_reencoded_total",
	} {
		if _, ok := types[family]; !ok {
			t.Errorf("node exposition missing %s", family)
		}
	}
	for _, family := range []string{
		"memfp_drift_psi", "memfp_feedback_total", "memfp_live_precision", "memfp_live_recall",
	} {
		if _, ok := types[family]; ok {
			t.Errorf("node exposition carries %s, which only the control plane knows", family)
		}
	}
}
