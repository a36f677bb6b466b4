// Package mlops implements the paper's Figure 6 MLOps framework for memory
// failure prediction: a feature store with batch and stream
// transformation, a model registry with staged promotion through a CI/CD
// gate, a sharded online prediction engine over a live event stream, and
// monitoring with drift detection and outcome feedback.
//
// The serving layer (Server) is a sharded concurrent engine: DIMMs hash
// onto shards that own their logs, extraction cursors, throttle and
// cooldown state behind shard-local locks, so ingestion scales with
// cores while the emitted alarm stream stays byte-identical for every
// shard count. Predictions reuse a per-DIMM features.ServeCursor (only
// newly arrived events are folded in), resolve the production model
// through a cache invalidated by the registry's promotion epoch, and
// score each shard's due predictions through a single ScoreBatch call
// per tick. A registry version is its serialized artifact, so there is
// one scoring path per model kind: vector models through that ScoreBatch,
// rule models (model.LogScorer) against the live DIMM log. Serving-memory
// counters live on the Server (MemoryStats), not the Monitor; frozen DIMM
// state and engine snapshots (MFS4) hold their events in trace's log
// form. IngestBatch is the one serving loop; its tick sources are the
// control plane's node and the scenario runner. The package's tests keep
// the pre-sharding sequential replay as the equivalence oracle.
package mlops

import (
	"memfp/internal/features"
	"memfp/internal/trace"
)

// FeatureStore is the centralized feature store: it computes the §VI
// features in batch for training and serves them per DIMM for online
// prediction, both under the paper's fixed windows and thresholds. It
// holds no state, so it is safe for concurrent use.
type FeatureStore struct{}

// NewFeatureStore returns the feature store.
func NewFeatureStore() *FeatureStore { return &FeatureStore{} }

// BatchTransform computes training samples for a full store of logs — the
// "batch" path feeding model training.
func (*FeatureStore) BatchTransform(s *trace.Store, cfg features.SamplerConfig) []features.Sample {
	return features.BuildAll(cfg, s)
}

// NewServeCursor returns the "stream" path feeding online prediction: an
// incremental extractor over one DIMM's growing log whose vectors equal a
// full-history extraction at every instant, but which folds in only the
// events appended since the previous prediction (see features.ServeCursor
// for when it starts over). The sharded engine keeps one per served DIMM.
func (*FeatureStore) NewServeCursor(l *trace.DIMMLog) *features.ServeCursor {
	return features.NewServeCursor(l)
}
