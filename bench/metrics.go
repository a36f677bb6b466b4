package main

// metricDef declares one reported metric. The end-to-end table and the
// per-layer table below are the single source of names, units and
// directions: BENCHMARK.json restates them (a test keeps the two equal)
// and every run must emit exactly these.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the earlier median by which the metric may
	// get worse before -against calls the row worse (end-to-end only).
	Bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers an operator of the Figure 6 loop sees. The
// timing bounds are the contract's widest: on the shared 2-vCPU sizing
// box identical work drifts by 15–25% between quiet and busy minutes
// (README.md has the measured spreads).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"train_s", "s", lower, 0.25},
	{"replay_events_per_s", "events/s", higher, 0.25},
	{"tick_p50_ms", "ms", lower, 0.25},
	{"tick_p95_ms", "ms", lower, 0.25},
	{"tick_mean_ms", "ms", lower, 0.25},
	{"state_heap_mb", "MiB", lower, 0.10},
}

// phased expands a per-phase metric into its .replay and .live forms.
func phased(name, unit, better string) []metricDef {
	return []metricDef{
		{Name: name + ".replay", Unit: unit, Better: better},
		{Name: name + ".live", Unit: unit, Better: better},
	}
}

func flat(defs ...[]metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		out = append(out, d...)
	}
	return out
}

// perLayer are the layer metrics of the traced pass, grouped by the
// repository's packages. README.md states which end-to-end metric each is
// expected to move, on which workload.
var perLayer = flat(
	// faultsim → setup_s.
	[]metricDef{
		{Name: "faultsim.generate_s", Unit: "s", Better: lower},
		{Name: "faultsim.dimms", Unit: "count", Better: higher},
		{Name: "faultsim.events", Unit: "count", Better: higher},
	},
	// mlops (train) → train_s.
	[]metricDef{
		{Name: "mlops.train.features_s", Unit: "s", Better: lower},
		{Name: "mlops.train.rest_s", Unit: "s", Better: lower},
		{Name: "model.artifact_bytes", Unit: "bytes", Better: lower},
		{Name: "model.load_s", Unit: "s", Better: lower},
	},
	// trace (codec and log) → replay_events_per_s.
	[]metricDef{
		{Name: "trace.encode_s", Unit: "s", Better: lower},
		{Name: "trace.decode_s", Unit: "s", Better: lower},
		{Name: "trace.bytes_per_event", Unit: "bytes", Better: lower},
		{Name: "trace.append_s", Unit: "s", Better: lower},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	},
	// controlplane → replay_events_per_s, tick_p50_ms.
	phased("controlplane.ingest.busy_s", "s", lower),
	phased("controlplane.ingest.requests", "count", lower),
	phased("controlplane.flush.wait_s", "s", lower),
	phased("driver.remainder_s", "s", lower),
	[]metricDef{
		{Name: "controlplane.artifact.s", Unit: "s", Better: lower},
		{Name: "controlplane.artifact.bytes", Unit: "bytes", Better: lower},
		{Name: "controlplane.join.s", Unit: "s", Better: lower},
		{Name: "controlplane.journal.depth_highwater", Unit: "count", Better: lower},
		{Name: "controlplane.journal.truncations", Unit: "count", Better: higher},
		{Name: "controlplane.journal.spill_bytes", Unit: "bytes", Better: lower},
	},
	// node → tick_p95_ms, tick_mean_ms, replay_events_per_s.
	phased("node.ingest2.busy_s", "s", lower),
	phased("node.ingest2.requests", "count", lower),
	phased("node.ingest2.ticks_per_request", "ratio", higher),
	[]metricDef{
		{Name: "node.ingest2.bytes_in", Unit: "bytes", Better: lower},
		{Name: "node.ingest2.bytes_out", Unit: "bytes", Better: lower},
		{Name: "node.busy_skew", Unit: "ratio", Better: lower},
		{Name: "node.checkpoint.s", Unit: "s", Better: lower},
		{Name: "node.checkpoint.requests", Unit: "count", Better: lower},
		{Name: "node.checkpoint.bytes", Unit: "bytes", Better: lower},
		{Name: "node.rejoin.s", Unit: "s", Better: lower},
		{Name: "node.catchup.s", Unit: "s", Better: lower},
		{Name: "node.remainder_s", Unit: "s", Better: lower},
	},
	// mlops (engine) → all three tick metrics, state_heap_mb.
	phased("mlops.ingest.busy_s", "s", lower),
	[]metricDef{
		{Name: "mlops.predictions", Unit: "count", Better: higher},
		{Name: "mlops.alarms", Unit: "count", Better: higher},
		{Name: "mlops.snapshot.s", Unit: "s", Better: lower},
		{Name: "mlops.snapshot.bytes", Unit: "bytes", Better: lower},
		{Name: "mlops.restore.s", Unit: "s", Better: lower},
		{Name: "mlops.mem.resident_bytes", Unit: "bytes", Better: lower},
		{Name: "mlops.mem.evictions", Unit: "count", Better: lower},
		{Name: "mlops.mem.rehydrations", Unit: "count", Better: lower},
		{Name: "mlops.mem.compactions", Unit: "count", Better: lower},
		{Name: "mlops.mem.spilled_bytes", Unit: "bytes", Better: lower},
		{Name: "mlops.remainder_s", Unit: "s", Better: lower},
	},
	// features / model (the walk) → replay_events_per_s, tick_p50_ms.
	phased("features.extract.busy_s", "s", lower),
	[]metricDef{{Name: "features.extract.calls", Unit: "count", Better: higher}},
	phased("model.score.busy_s", "s", lower),
	[]metricDef{
		{Name: "model.score.calls", Unit: "count", Better: lower},
		{Name: "model.score.rows", Unit: "count", Better: higher},
	},
	phased("model.score.batch_rows_p50", "rows", higher),
	phased("model.score.batch_rows_p95", "rows", higher),
	phased("model.score.batch_rows_max", "rows", higher),
)
