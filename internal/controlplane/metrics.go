package controlplane

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"memfp/internal/mlops"
	"memfp/internal/trace"
)

// Hand-rolled Prometheus text exposition (format 0.0.4) — the repo is
// stdlib-only, and the format is simple enough that a writer beats a
// dependency.

type promWriter struct{ sb strings.Builder }

// family emits the # HELP / # TYPE preamble for a metric family. Callers
// group all samples of a family immediately after its preamble.
func (p *promWriter) family(name, typ, help string) {
	fmt.Fprintf(&p.sb, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&p.sb, "# TYPE %s %s\n", name, typ)
}

// value emits a family that has one unlabeled sample.
func (p *promWriter) value(name, typ, help string, v float64) {
	p.family(name, typ, help)
	p.sample(name, nil, v)
}

// sample emits one sample line. Labels are ordered pairs.
func (p *promWriter) sample(name string, labels [][2]string, v float64) {
	p.sb.WriteString(name)
	if len(labels) > 0 {
		p.sb.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				p.sb.WriteByte(',')
			}
			fmt.Fprintf(&p.sb, "%s=%q", kv[0], escapeLabel(kv[1]))
		}
		p.sb.WriteByte('}')
	}
	p.sb.WriteByte(' ')
	p.sb.WriteString(promVal(v))
	p.sb.WriteByte('\n')
}

// escapeLabel applies the exposition format's label-value escapes. %q in
// sample adds the surrounding quotes and escapes \ and " already, so only
// newlines need mapping to the two-character sequence.
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promVal renders a sample value: shortest float representation, with
// the spec's spellings for the non-finite values.
func promVal(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeCommonMetrics emits the families shared by the control plane and
// the node daemons: ingest counters from mon, and from fl the engines'
// predictions, serving-memory telemetry and per-shard queue/latency
// series. fl and alarms are passed in because the control plane reads
// them from its fleet view and its emitted stream.
func writeCommonMetrics(p *promWriter, mon *mlops.Monitor, fl Fleet, alarms int64) {
	p.family("memfp_events_ingested_total", "counter", "Memory events ingested, by event type.")
	for _, t := range []trace.EventType{trace.TypeCE, trace.TypeUE, trace.TypeStorm} {
		p.sample("memfp_events_ingested_total", [][2]string{{"type", t.String()}}, float64(mon.EventCount(t)))
	}

	p.value("memfp_predictions_total", "counter", "Model invocations across the fleet.", float64(fl.Predictions))

	p.value("memfp_alarms_total", "counter", "Alarms emitted on the merged stream.", float64(alarms))

	ms := fl.Memory
	p.value("memfp_memory_resident_bytes", "gauge", "Resident serving-state footprint.", float64(ms.ResidentBytes))
	p.value("memfp_memory_evictions_total", "counter", "Idle-DIMM serving-state evictions.", float64(ms.Evictions))
	p.value("memfp_memory_rehydrations_total", "counter", "Frozen-DIMM serving-state rehydrations.", float64(ms.Rehydrations))
	p.value("memfp_memory_compactions_total", "counter", "Serving-log compactions.", float64(ms.Compactions))
	p.value("memfp_memory_compacted_events_total", "counter", "Events dropped by serving-log compaction.", float64(ms.CompactedEvents))
	p.value("memfp_memory_spilled_bytes", "gauge", "Frozen serving-state bytes resident in the spill store.", float64(ms.SpilledBytes))
	p.value("memfp_memory_spills_total", "counter", "Frozen-DIMM records written to the spill store.", float64(ms.Spills))
	p.value("memfp_snapshot_records_total", "counter", "DIMM records written into engine snapshots.", float64(ms.SnapshotRecords))
	p.value("memfp_snapshot_records_reencoded_total", "counter", "Snapshot records re-encoded from live DIMM state rather than copied from a kept one.", float64(ms.SnapshotReencoded))

	shards := fl.Shards
	p.family("memfp_shard_queue_depth", "gauge", "Events queued on a serving shard at tick start.")
	for _, ss := range shards {
		p.sample("memfp_shard_queue_depth", [][2]string{{"shard", strconv.Itoa(ss.Shard)}}, float64(ss.QueueDepth))
	}
	p.family("memfp_shard_ingest_latency_seconds", "summary", "Serving-tick wall-clock latency per shard.")
	for _, ss := range shards {
		sh := strconv.Itoa(ss.Shard)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			p.sample("memfp_shard_ingest_latency_seconds",
				[][2]string{{"shard", sh}, {"quantile", promVal(q)}}, ss.Quantile(q))
		}
		p.sample("memfp_shard_ingest_latency_seconds_sum",
			[][2]string{{"shard", sh}}, ss.LatencySum.Seconds())
		p.sample("memfp_shard_ingest_latency_seconds_count",
			[][2]string{{"shard", sh}}, float64(ss.Ticks))
	}
}

// handleMetrics is the control plane's /metrics: the common families
// over its fleet view; the score drift and alarm-outcome feedback only
// its monitor knows (it holds the training reference and resolves the
// alarms); and registry, journal and fleet state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mon := s.pipe.Monitor
	if mon == nil {
		http.Error(w, "no monitor configured", http.StatusServiceUnavailable)
		return
	}
	// One snapshot: what /api/v1/status reports is what is exported.
	st := s.status()
	journal := *st.Journal

	p := &promWriter{}
	fl := s.fleetOf(st)
	writeCommonMetrics(p, mon, fl, int64(st.Alarms))

	p.value("memfp_drift_psi", "gauge", "Population stability index of live scores vs the training reference.", fl.PSI)
	tp, fp, fn := mon.FeedbackCounts()
	p.family("memfp_feedback_total", "counter", "Resolved alarm outcomes, by outcome.")
	p.sample("memfp_feedback_total", [][2]string{{"outcome", "tp"}}, float64(tp))
	p.sample("memfp_feedback_total", [][2]string{{"outcome", "fp"}}, float64(fp))
	p.sample("memfp_feedback_total", [][2]string{{"outcome", "fn"}}, float64(fn))
	prec, rec := mon.LivePrecisionRecall()
	p.value("memfp_live_precision", "gauge", "Feedback-derived live precision.", prec)
	p.value("memfp_live_recall", "gauge", "Feedback-derived live recall.", rec)

	p.value("memfp_registry_epoch", "counter", "Model-registry promotion epoch.", float64(s.pipe.Registry.Epoch()))

	prodByName := map[string]int{}
	latestByName := map[string]int{}
	for _, v := range s.pipe.Registry.List() {
		if v.Stage == mlops.StageProduction {
			prodByName[v.Name] = v.Version
		}
		if v.Version > latestByName[v.Name] {
			latestByName[v.Name] = v.Version
		}
	}
	p.family("memfp_model_production_version", "gauge", "Registry version currently serving, per model.")
	for name, v := range prodByName {
		p.sample("memfp_model_production_version", [][2]string{{"model", name}}, float64(v))
	}
	p.family("memfp_model_latest_version", "gauge", "Newest registry version, per model.")
	for name, v := range latestByName {
		p.sample("memfp_model_latest_version", [][2]string{{"model", name}}, float64(v))
	}

	p.value("memfp_ticks_total", "counter", "Ingest ticks accepted.", float64(st.Ticks))
	p.value("memfp_ticks_pending", "gauge", "Journaled ticks not yet emitted.", float64(st.Pending))
	p.value("memfp_paused", "gauge", "1 while serving is inside a maintenance window.", b2f(st.Paused))

	p.value("memfp_journal_depth", "gauge", "Journaled ticks resident in control-plane memory.", float64(journal.Depth))
	p.value("memfp_journal_depth_highwater", "gauge", "Peak resident journal depth.", float64(journal.DepthHighWater))
	p.value("memfp_journal_truncations_total", "counter", "Journal truncation passes.", float64(journal.Truncations))
	p.value("memfp_journal_truncated_ticks_total", "counter", "Ticks truncated out of the in-memory journal.", float64(journal.TruncatedTicks))
	p.value("memfp_journal_bytes", "gauge", "MFE1 frame bytes of the journaled ticks resident in control-plane memory.", float64(journal.Bytes))
	p.value("memfp_spill_bytes_total", "counter", "Node checkpoint bytes written to the spill store.", float64(journal.SpillBytes))

	p.value("memfp_nodes_expected", "gauge", "Node daemons the fleet is partitioned across.", float64(s.cfg.ExpectNodes))
	p.value("memfp_nodes_joined", "gauge", "Node daemons currently registered.", float64(len(st.Nodes)))

	if len(st.Nodes) > 0 {
		perNode := func(name, typ, help string, v func(NodeInfo) float64) {
			p.family(name, typ, help)
			for _, n := range st.Nodes {
				p.sample(name, [][2]string{{"node", n.Name}}, v(n))
			}
		}
		perNode("memfp_node_up", "gauge", "1 while the node's last forward/heartbeat succeeded.", func(n NodeInfo) float64 { return b2f(n.Alive) })
		perNode("memfp_node_heartbeat_age_seconds", "gauge", "Seconds since the node's last heartbeat.", func(n NodeInfo) float64 { return n.BeatAgeSec })
		perNode("memfp_node_events_total", "counter", "Events ingested by each node engine.", func(n NodeInfo) float64 { return float64(n.Stats.Events) })
		perNode("memfp_node_predictions_total", "counter", "Model invocations on each node.", func(n NodeInfo) float64 { return float64(n.Stats.Predictions) })
		perNode("memfp_node_alarms_total", "counter", "Alarms raised by each node engine.", func(n NodeInfo) float64 { return float64(n.Stats.Alarms) })
		perNode("memfp_node_resident_bytes", "gauge", "Resident serving-state footprint per node.", func(n NodeInfo) float64 { return float64(n.Stats.ResidentBytes) })
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.sb.String())
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
