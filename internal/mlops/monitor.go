package mlops

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memfp/internal/trace"
)

// sortSlice is a tiny generic sort helper.
func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// Monitor implements the Monitoring boxes of Figure 6: ingestion and
// prediction counters, score-distribution drift (PSI against a training
// reference), and outcome feedback that measures live precision/recall
// and decides when retraining is warranted. Serving-memory telemetry is
// not here: the engine that evicts and compacts owns those counters
// (Server.MemoryStats).
//
// Safe for concurrent use by every shard of the serving engine: the
// hot-path counters (events, predictions, alarms, score histogram) are
// lock-free atomics so shards never serialize on the monitor, and the
// colder state (reference distribution, feedback) sits behind a mutex.
type Monitor struct {
	events      [3]atomic.Int64 // indexed by trace.EventType
	predictions atomic.Int64
	alarms      atomic.Int64
	scoreBins   [10]atomic.Int64 // live score histogram

	// Per-shard serving telemetry: queue depth and ingest-tick latency
	// histograms (see ShardStats). The slice is published through an
	// atomic pointer and grown copy-on-write under mu, so the engine's
	// per-tick updates stay lock-free.
	shardStats atomic.Pointer[[]*shardStat]

	mu         sync.Mutex
	refBins    [10]float64 // reference (training-time) histogram
	refSamples float64

	// Feedback: alarm outcomes resolved against later UEs.
	resolvedTP, resolvedFP int
	missedFN               int
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// SetReferenceScores records the training-time score distribution used as
// the PSI drift baseline.
func (m *Monitor) SetReferenceScores(scores []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.refBins {
		m.refBins[i] = 0
	}
	for _, s := range scores {
		m.refBins[bucket(s)]++
	}
	m.refSamples = float64(len(scores))
}

func bucket(score float64) int {
	b := int(score * 10)
	if b < 0 {
		b = 0
	}
	if b > 9 {
		b = 9
	}
	return b
}

// CountEvent tallies one ingested event. Lock-free.
func (m *Monitor) CountEvent(e trace.Event) {
	if int(e.Type) < len(m.events) {
		m.events[e.Type].Add(1)
	}
}

// CountPrediction tallies one model invocation. Lock-free.
func (m *Monitor) CountPrediction(score float64) {
	m.predictions.Add(1)
	m.scoreBins[bucket(score)].Add(1)
}

// CountAlarm tallies one emitted alarm. Lock-free.
func (m *Monitor) CountAlarm(Alarm) { m.alarms.Add(1) }

// EventCount returns the number of ingested events of one type.
func (m *Monitor) EventCount(t trace.EventType) int {
	if int(t) < len(m.events) {
		return int(m.events[t].Load())
	}
	return 0
}

// PredictionCount returns the number of model invocations.
func (m *Monitor) PredictionCount() int { return int(m.predictions.Load()) }

// AlarmCount returns the number of emitted alarms.
func (m *Monitor) AlarmCount() int { return int(m.alarms.Load()) }

// ScoreBins returns a snapshot of the live score histogram — the raw
// counts behind PSI, exported so a control plane can aggregate the
// distributions of many serving processes before the drift check.
func (m *Monitor) ScoreBins() [10]int64 {
	var out [10]int64
	for i := range m.scoreBins {
		out[i] = m.scoreBins[i].Load()
	}
	return out
}

// PSIOf computes the population stability index of a live score
// histogram against this monitor's reference — its own ScoreBins, or the
// sum of every node's on the distributed-drift path. Values above ~0.25
// conventionally indicate significant drift.
func (m *Monitor) PSIOf(liveBins [10]int64) float64 {
	var bins [10]float64
	live := 0.0
	for i, c := range liveBins {
		bins[i] = float64(c)
		live += bins[i]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if live == 0 || m.refSamples == 0 {
		return 0
	}
	psi := 0.0
	for i := range bins {
		p := (bins[i] + 0.5) / (live + 5)
		q := (m.refBins[i] + 0.5) / (m.refSamples + 5)
		psi += (p - q) * math.Log(p/q)
	}
	return psi
}

// Feedback records the TPs, FPs and FNs of the alarms served so far
// (Pipeline.ResolveAlarms), replacing the previous resolution, which the
// new one covers.
func (m *Monitor) Feedback(tp, fp, fn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resolvedTP, m.resolvedFP, m.missedFN = tp, fp, fn
}

// FeedbackCounts returns the resolved alarm outcomes (TP, FP, FN).
func (m *Monitor) FeedbackCounts() (tp, fp, fn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resolvedTP, m.resolvedFP, m.missedFN
}

// LivePrecisionRecall returns the feedback-derived operating point.
func (m *Monitor) LivePrecisionRecall() (prec, rec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveLocked()
}

func (m *Monitor) liveLocked() (prec, rec float64) {
	if m.resolvedTP+m.resolvedFP > 0 {
		prec = float64(m.resolvedTP) / float64(m.resolvedTP+m.resolvedFP)
	}
	if m.resolvedTP+m.missedFN > 0 {
		rec = float64(m.resolvedTP) / float64(m.resolvedTP+m.missedFN)
	}
	return prec, rec
}

// RetrainDecision reports whether monitoring signals warrant retraining:
// significant drift or live precision collapse.
type RetrainDecision struct {
	Retrain bool
	Reason  string
	PSI     float64
}

// ShouldRetrain applies the retraining policy to a live PSI — this
// monitor's own (PSIOf(ScoreBins())), or a control plane's over its whole
// fleet.
func (m *Monitor) ShouldRetrain(psi, psiThreshold, minPrecision float64) RetrainDecision {
	if psi > psiThreshold {
		return RetrainDecision{Retrain: true, PSI: psi,
			Reason: fmt.Sprintf("score drift PSI %.3f > %.3f", psi, psiThreshold)}
	}
	prec, _ := m.LivePrecisionRecall()
	m.mu.Lock()
	resolved := m.resolvedTP + m.resolvedFP
	m.mu.Unlock()
	if resolved >= 10 && prec < minPrecision {
		return RetrainDecision{Retrain: true, PSI: psi,
			Reason: fmt.Sprintf("live precision %.3f below %.3f", prec, minPrecision)}
	}
	return RetrainDecision{Retrain: false, PSI: psi, Reason: "healthy"}
}

// ---------------------------------------------------------------------------
// Per-shard serving telemetry
// ---------------------------------------------------------------------------

// latencyBuckets is the ingest-latency histogram resolution: bucket i
// covers durations up to 1µs·2^i, the last bucket is unbounded. 22
// buckets span 1µs .. ~2.1s, enough for a serving tick on any machine.
const latencyBuckets = 22

// LatencyBucketBounds returns the histogram's inclusive upper bounds in
// seconds; the final bound is +Inf.
func LatencyBucketBounds() []float64 {
	out := make([]float64, latencyBuckets)
	for i := 0; i < latencyBuckets-1; i++ {
		out[i] = 1e-6 * float64(uint64(1)<<uint(i))
	}
	out[latencyBuckets-1] = math.Inf(1)
	return out
}

// shardStat is one shard's hot counters. All fields are atomics: the
// serving engine updates them once per tick without taking any lock.
type shardStat struct {
	queueDepth atomic.Int64
	ticks      atomic.Int64
	latSumNs   atomic.Int64
	buckets    [latencyBuckets]atomic.Int64
}

// shardAt returns the stats cell for one shard, growing the published
// slice copy-on-write when a new shard index first reports.
func (m *Monitor) shardAt(i int) *shardStat {
	if i < 0 {
		return nil
	}
	if sp := m.shardStats.Load(); sp != nil && i < len(*sp) {
		return (*sp)[i]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var cur []*shardStat
	if sp := m.shardStats.Load(); sp != nil {
		cur = *sp
	}
	if i < len(cur) {
		return cur[i]
	}
	grown := make([]*shardStat, i+1)
	copy(grown, cur)
	for j := len(cur); j <= i; j++ {
		grown[j] = &shardStat{}
	}
	m.shardStats.Store(&grown)
	return grown[i]
}

// SetShardQueueDepth records how many events are queued on one shard at
// the start of a serving tick (0 once the tick drains). Lock-free after
// the shard's first report.
func (m *Monitor) SetShardQueueDepth(shard int, depth int64) {
	if st := m.shardAt(shard); st != nil {
		st.queueDepth.Store(depth)
	}
}

// ObserveIngestLatency records one shard serving tick's wall-clock
// duration into the shard's latency histogram. Lock-free after the
// shard's first report.
func (m *Monitor) ObserveIngestLatency(shard int, d time.Duration) {
	st := m.shardAt(shard)
	if st == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	st.ticks.Add(1)
	st.latSumNs.Add(int64(d))
	b := 0
	for b < latencyBuckets-1 && int64(d) > int64(1000)<<uint(b) {
		b++
	}
	st.buckets[b].Add(1)
}

// ShardStat is a point-in-time snapshot of one shard's serving
// telemetry. Buckets aligns with LatencyBucketBounds.
type ShardStat struct {
	Shard      int
	QueueDepth int64
	Ticks      int64 // latency observations (serving ticks)
	LatencySum time.Duration
	Buckets    []int64
}

// Quantile returns the nearest-rank latency quantile in seconds (the
// bucket upper bound containing the rank), 0 with no observations, and
// +Inf when the rank lands in the overflow bucket.
func (s ShardStat) Quantile(q float64) float64 {
	if s.Ticks == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Ticks)))
	if rank < 1 {
		rank = 1
	}
	bounds := LatencyBucketBounds()
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// ShardStats returns a snapshot of every shard that has reported.
func (m *Monitor) ShardStats() []ShardStat {
	sp := m.shardStats.Load()
	if sp == nil {
		return nil
	}
	out := make([]ShardStat, len(*sp))
	for i, st := range *sp {
		s := ShardStat{
			Shard:      i,
			QueueDepth: st.queueDepth.Load(),
			Ticks:      st.ticks.Load(),
			LatencySum: time.Duration(st.latSumNs.Load()),
			Buckets:    make([]int64, latencyBuckets),
		}
		for b := range st.buckets {
			s.Buckets[b] = st.buckets[b].Load()
		}
		out[i] = s
	}
	return out
}

// fmtQuantile renders a quantile value for the text dashboard.
func fmtQuantile(sec float64) string {
	if math.IsInf(sec, 1) {
		return "inf"
	}
	return time.Duration(sec * float64(time.Second)).String()
}

// Dashboard renders a text status summary (the paper's monitoring
// dashboards, in terminal form).
func (m *Monitor) Dashboard() string {
	return m.DashboardOf(m.predictions.Load(), m.ShardStats())
}

// DashboardOf is Dashboard with the serving engines' counters supplied
// by the caller: a control plane's engines count predictions and shard
// latencies into monitors of their own.
func (m *Monitor) DashboardOf(predictions int64, shards []ShardStat) string {
	var sb strings.Builder
	sb.WriteString("=== MLOps Monitoring Dashboard ===\n")
	fmt.Fprintf(&sb, "events ingested: CE=%d UE=%d storms=%d\n",
		m.EventCount(trace.TypeCE), m.EventCount(trace.TypeUE), m.EventCount(trace.TypeStorm))
	m.mu.Lock()
	fmt.Fprintf(&sb, "predictions: %d, alarms: %d\n", predictions, m.alarms.Load())
	prec, rec := m.liveLocked()
	fmt.Fprintf(&sb, "feedback: TP=%d FP=%d FN=%d (live P=%.2f R=%.2f)\n",
		m.resolvedTP, m.resolvedFP, m.missedFN, prec, rec)
	m.mu.Unlock()
	for _, ss := range shards {
		fmt.Fprintf(&sb, "shard %d: queue=%d ticks=%d p50=%s p99=%s\n",
			ss.Shard, ss.QueueDepth, ss.Ticks,
			fmtQuantile(ss.Quantile(0.5)), fmtQuantile(ss.Quantile(0.99)))
	}
	return sb.String()
}
