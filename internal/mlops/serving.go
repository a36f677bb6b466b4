package mlops

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memfp/internal/features"
	"memfp/internal/ml/model"
	"memfp/internal/par"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// Alarm is one online prediction above threshold — the input to the Cloud
// Alarm System in Figure 6, which triggers RAS actions and VM migration.
type Alarm struct {
	Time  trace.Minutes
	DIMM  trace.DIMMID
	Score float64
	Model string
}

// Server is the online prediction engine: it ingests an event stream,
// maintains per-DIMM history, asks the production model for a score at
// every prediction opportunity, and emits alarms. One Server instance
// serves one platform.
//
// The engine is sharded: DIMMs are assigned to hash(DIMMID) % shards, and
// each shard owns its DIMMs' logs, extraction cursors, throttle and
// cooldown state behind a shard-local lock, so concurrent IngestBatch
// calls for DIMMs on different shards never contend. Shard assignment is
// a pure function of the DIMM identity, and per-DIMM serving state never
// reads another DIMM's, so the emitted alarm set is identical for every
// shard count (enforced by TestServingShardedMatchesBaseline).
//
// Three mechanisms keep the per-event cost flat:
//
//   - The production model resolution (registry lookup + artifact
//     rehydration check) is cached behind the registry's promotion epoch;
//     predictions pay one atomic load until a Promote invalidates it.
//   - Each DIMM keeps a features.ServeCursor, so a prediction folds only
//     the events appended since the previous prediction instead of
//     re-extracting the full history.
//   - Ingested events are appended through trace.DIMMLog.Append, which
//     extends the per-type query index incrementally for in-order
//     streams and re-sorts the DIMM's log once for a late event.
//
// IngestBatch is the one way in, and the control plane's node is its tick
// source. Within a tick, the vector
// predictions that fall due on one shard are scored through a single
// ScoreBatch call, amortizing per-call model overhead (decisive for
// batch-oriented scorers like the FT-Transformer); every registered model
// scores batch rows independently, so the scores equal per-event scoring.
type Server struct {
	Platform platform.ID
	Store    *FeatureStore
	Registry *Registry
	Model    string // registry model name to serve
	// PredictEvery throttles per-DIMM prediction frequency (the paper's
	// Δip is 5 minutes; serving at each CE with a floor works identically
	// on sparse streams).
	PredictEvery trace.Minutes
	// MemoryBudget bounds the engine's resident serving-state bytes
	// (0 = unbounded). When set, logs are compacted behind each
	// prediction's observation window and idle DIMM state is frozen under
	// budget pressure — see memory.go; the alarm stream is unchanged.
	MemoryBudget int64
	// Spill optionally backs frozen-DIMM state with off-heap storage
	// (NewDirSpill for disk). Frozen records are written to the store and
	// only a fixed-size stub stays on the heap, so MemoryBudget bounds
	// total process memory rather than just live serving state. Set
	// before serving begins; nil keeps frozen blobs in memory.
	Spill SpillStore

	shards  []*shard
	monitor *Monitor
	prod    atomic.Pointer[prodCache]

	// Memory-policy counters (see MemoryStats).
	evictions, rehydrations      atomic.Int64
	compactions, compactedEvents atomic.Int64
	spills, spilledBytes         atomic.Int64

	// Snapshot assembly (snapshot.go). snapOrder and snapSize are guarded
	// by holding every shard lock, which only AppendSnapshot does.
	snapOrder []snapEnt   // every DIMM with state, in ID order, as of the last snapshot
	snapKept  atomic.Bool // snapOrder plus the shards' added lists is still the DIMM set
	snapSize  int         // the last frame's length: the next one's capacity
	recBuf    []byte      // scratch for a re-encoded record's events
	// Records written into frames, and how many of them had to be
	// re-encoded from a DIMM's live state rather than copied.
	snapRecords, snapReencoded atomic.Int64
}

// shard owns the serving state of the DIMMs hashed onto it.
type shard struct {
	mu    sync.Mutex
	dimms map[trace.DIMMID]*dimmState
	// Memory accounting (active when Server.MemoryBudget > 0): frozen
	// holds evicted DIMMs, lru orders the live ones by last service
	// (front = coldest), resident tallies both populations' bytes.
	frozen   map[trace.DIMMID]*frozenDIMM
	lru      *list.List
	resident int64
	// added lists the DIMMs registered here since the last snapshot, while
	// the engine keeps a snapshot order for them to merge into.
	added []trace.DIMMID
}

// dimmState is one DIMM's serving state, guarded by its shard's lock.
type dimmState struct {
	log    *trace.DIMMLog
	cursor *features.ServeCursor // lazily built on first vector prediction
	// lastPred keeps the historical zero-value throttle semantics (the
	// first prediction requires e.Time >= PredictEvery).
	lastPred trace.Minutes
	// lastAlarm/alarmed track the cooldown window; the explicit presence
	// flag (rather than a time-zero sentinel) lets an alarm fired at
	// minute 0 suppress repeats like any other.
	lastAlarm trace.Minutes
	alarmed   bool
	// rec is this DIMM's MFS4 record as the last snapshot frame encoded
	// it, stale (dirty) from its next event (ingestLocked — the one place
	// any field it serializes can change). recBlob, the part of rec that
	// encodes the log's first recEvents events, is kept while they are
	// the log's prefix (no late-event re-sort or compaction since), so the
	// next encoding appends only the events past them.
	rec       []byte
	dirty     bool
	recBlob   []byte
	recEvents int
	// dropped is set when the state leaves its shard's map (shard.drop):
	// the snapshot order's pointer to it is stale.
	dropped bool

	// Memory accounting (budgeted engines only): accounted footprint,
	// LRU slot, and the next instant the compaction policy may run.
	bytes       int64
	lruEl       *list.Element
	nextCompact trace.Minutes
}

// prodCache is the resolved production model at one registry epoch.
type prodCache struct {
	epoch uint64
	mv    *ModelVersion
	label string // "name-vN"
	mdl   model.Model
	// logScorer is mdl when it is rule-based: it scores the live DIMM log
	// at once instead of queueing a vector for the tick-end ScoreBatch.
	logScorer model.LogScorer
}

// DefaultPredictEvery is the prediction interval a new engine starts
// with: the paper's Δip.
const DefaultPredictEvery = 5 * trace.Minute

// cooldown suppresses repeat alarms for the same DIMM.
const cooldown = 12 * trace.Hour

// NewShardedServer builds a serving engine with an explicit shard count;
// shards <= 0 uses one per CPU. The shard count fixes the concurrency
// fan-out, never the results.
func NewShardedServer(pf platform.ID, fs *FeatureStore, reg *Registry, model string,
	mon *Monitor, shards int) *Server {
	n := shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		Platform:     pf,
		Store:        fs,
		Registry:     reg,
		Model:        model,
		PredictEvery: DefaultPredictEvery,
		shards:       make([]*shard, n),
		monitor:      mon,
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	return s
}

// hashDIMM maps a DIMM identity to its shard (FNV-1a over the full ID) —
// stable across processes, so shard assignment is reproducible.
func hashDIMM(id trace.DIMMID) uint32 {
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	for i := 0; i < len(id.Platform); i++ {
		mix(id.Platform[i])
	}
	for _, v := range [2]int{id.Server, id.Slot} {
		u := uint64(int64(v))
		for sh := 0; sh < 64; sh += 8 {
			mix(byte(u >> sh))
		}
	}
	return h
}

func (s *Server) shardFor(id trace.DIMMID) *shard {
	return s.shards[int(hashDIMM(id)%uint32(len(s.shards)))]
}

// DIMMShard returns the shard a DIMM maps onto in an n-way partition —
// the exact FNV-1a assignment NewShardedServer uses, exported so
// external distribution layers (the control plane's node-slot
// assignment) partition a fleet identically to the engine itself.
func DIMMShard(id trace.DIMMID, n int) int {
	if n <= 0 {
		return 0
	}
	return int(hashDIMM(id) % uint32(n))
}

// RegisterDIMM announces a DIMM's static attributes (from the asset
// inventory) before its events can be served. A frozen DIMM is already
// registered — its state thaws on its next event, untouched here.
func (s *Server) RegisterDIMM(id trace.DIMMID, part platform.DIMMPart) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.frozen[id]; ok {
		return
	}
	if _, ok := sh.dimms[id]; !ok {
		st := &dimmState{log: &trace.DIMMLog{ID: id, Part: part}}
		sh.dimms[id] = st
		if s.snapKept.Load() {
			sh.added = append(sh.added, id)
		}
		if s.MemoryBudget > 0 {
			sh.account(st)
		}
	}
}

// production resolves the production model through the epoch-stamped
// cache: the registry lock and the rehydration check are paid only when a
// promotion moved the epoch since the last prediction.
func (s *Server) production() (*prodCache, error) {
	ep := s.Registry.Epoch()
	if pc := s.prod.Load(); pc != nil && pc.epoch == ep {
		return pc, nil
	}
	mv, err := s.Registry.Production(s.Model)
	if err != nil {
		return nil, err
	}
	pc := &prodCache{epoch: ep, mv: mv, label: fmt.Sprintf("%s-v%d", mv.Name, mv.Version)}
	if pc.mdl, err = mv.ServingModel(); err != nil {
		return nil, fmt.Errorf("mlops: rehydrate %s v%d: %w", mv.Name, mv.Version, err)
	}
	pc.logScorer, _ = pc.mdl.(model.LogScorer)
	s.prod.Store(pc)
	return pc, nil
}

// pendingPred is a vector prediction awaiting its micro-batch score. The
// vector was extracted when the prediction fell due, so later same-tick
// events cannot leak into it.
type pendingPred struct {
	st  *dimmState
	e   trace.Event
	vec []float64
}

// ingestLocked runs the per-event serving path with the shard lock held.
// Vector predictions are queued on pend (scored by flushPending at tick
// end, which emits their alarms); rule-based models read the live log,
// which later same-tick events would change, and score synchronously.
func (s *Server) ingestLocked(sh *shard, e trace.Event, pend *[]pendingPred) (*Alarm, error) {
	st, ok := sh.dimms[e.DIMM]
	if !ok {
		fz, frozen := sh.frozen[e.DIMM]
		if !frozen {
			return nil, fmt.Errorf("mlops: event for unregistered DIMM %s", e.DIMM)
		}
		// Rehydrate before anything can fail or advance: a thawed DIMM
		// serves this event exactly as if it had never been evicted.
		var err error
		if st, err = s.thawLocked(sh, e.DIMM, fz); err != nil {
			return nil, err
		}
	}
	gen := st.log.IndexGen()
	st.log.Append(e)
	st.dirty = true // the kept snapshot record is stale from here on
	if st.log.IndexGen() != gen {
		st.recBlob = nil // a late event re-sorted the log under its encoded prefix
	}
	if s.monitor != nil {
		s.monitor.CountEvent(e)
	}
	if s.MemoryBudget > 0 {
		sh.account(st)
	}
	if e.Type != trace.TypeCE {
		return nil, nil
	}
	if e.Time-st.lastPred < s.PredictEvery {
		return nil, nil
	}
	// Resolve the production model before consuming the prediction
	// opportunity: a transient registry/rehydration failure must leave the
	// throttle untouched so the next event can retry, not permanently
	// swallow this DIMM's prediction slot.
	pc, err := s.production()
	if err != nil {
		return nil, err
	}
	st.lastPred = e.Time
	// Rule-based models score the live DIMM history directly; vector
	// models score the cursor-maintained feature vector.
	if pc.logScorer != nil {
		return s.finishPrediction(st, e, pc, pc.logScorer.ScoreLog(st.log, e.Time)), nil
	}
	if st.cursor == nil {
		st.cursor = s.Store.NewServeCursor(st.log)
	}
	*pend = append(*pend, pendingPred{st: st, e: e, vec: st.cursor.ExtractAt(e.Time)})
	return nil, nil
}

// finishPrediction applies monitoring, threshold and cooldown to one
// score and materializes the alarm. Shard lock held.
func (s *Server) finishPrediction(st *dimmState, e trace.Event, pc *prodCache, score float64) *Alarm {
	// The score is already computed, so the prediction's observation
	// window has been fully read: the prefix behind it can be folded away.
	s.maybeCompact(st, e.Time)
	if s.monitor != nil {
		s.monitor.CountPrediction(score)
	}
	if score < pc.mv.Threshold {
		return nil
	}
	if st.alarmed && e.Time-st.lastAlarm < cooldown {
		return nil
	}
	st.alarmed, st.lastAlarm = true, e.Time
	return &Alarm{Time: e.Time, DIMM: e.DIMM, Score: score, Model: pc.label}
}

// flushPending scores the queued predictions of one shard tick through a
// single ScoreBatch call and appends the resulting alarms to out in
// queue order (which is time-then-DIMM order within a tick).
func (s *Server) flushPending(pend *[]pendingPred, out *[]Alarm) error {
	if len(*pend) == 0 {
		return nil
	}
	pc, err := s.production()
	if err != nil {
		return err
	}
	queue := *pend
	var scores []float64
	// A rule model promoted between queueing and flushing cannot take the
	// batch: without a Store its ScoreBatch scores every row 0, so those
	// rows go through ScoreLog.
	if pc.logScorer == nil {
		X := make([][]float64, len(queue))
		dimms := make([]trace.DIMMID, len(queue))
		times := make([]trace.Minutes, len(queue))
		for i, p := range queue {
			X[i], dimms[i], times[i] = p.vec, p.e.DIMM, p.e.Time
		}
		scores = pc.mdl.ScoreBatch(model.Batch{X: X, DIMMs: dimms, Times: times})
	}
	for i, p := range queue {
		var score float64
		if scores != nil {
			score = scores[i]
		} else {
			score = pc.logScorer.ScoreLog(p.st.log, p.e.Time)
		}
		if a := s.finishPrediction(p.st, p.e, pc, score); a != nil {
			*out = append(*out, *a)
		}
	}
	*pend = queue[:0]
	return nil
}

// IngestBatch processes a micro-batch of events — the online engine's
// tick, one per journaled control-plane tick. Events are routed to their
// shards and processed concurrently, preserving arrival order within each
// shard, and each shard's due predictions are scored through one
// ScoreBatch call. Alarms are returned merged in (Time, DIMM) order and
// counted into the monitor in that order; the alarm stream is the same for
// every way of cutting a time-ordered event stream into ticks. On error
// the alarms that fired before the failure are still returned (and
// counted) alongside it — cooldown state was already advanced for them, so
// dropping them would lose them for good.
func (s *Server) IngestBatch(events []trace.Event) ([]Alarm, error) {
	perShard := make([][]trace.Event, len(s.shards))
	for _, e := range events {
		si := int(hashDIMM(e.DIMM) % uint32(len(s.shards)))
		perShard[si] = append(perShard[si], e)
	}
	alarms := make([][]Alarm, len(s.shards))
	errs := make([]error, len(s.shards))
	par.ForEachN(len(s.shards), func(i int) {
		if len(perShard[i]) == 0 {
			return
		}
		// Tick telemetry: queue depth while the shard serves, one latency
		// observation per shard tick. Pure monitoring — the alarm path
		// never reads it.
		var tickStart time.Time
		if s.monitor != nil {
			tickStart = time.Now()
			s.monitor.SetShardQueueDepth(i, int64(len(perShard[i])))
		}
		sh := s.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		var out []Alarm
		var pend []pendingPred
		for _, e := range perShard[i] {
			a, err := s.ingestLocked(sh, e, &pend)
			if err != nil {
				errs[i] = err
				break
			}
			if a != nil {
				out = append(out, *a)
			}
		}
		// Flush even after an error: the queued predictions fell due
		// before the failing event and their DIMMs' throttles already
		// advanced — exactly what a tick ending before it would have scored.
		if err := s.flushPending(&pend, &out); err != nil && errs[i] == nil {
			errs[i] = err
		}
		// The flush drained every pending-state pointer, so the budget can
		// be enforced now.
		s.maybeEvict(sh, perShard[i][len(perShard[i])-1].Time)
		alarms[i] = out
		if s.monitor != nil {
			s.monitor.SetShardQueueDepth(i, 0)
			s.monitor.ObserveIngestLatency(i, time.Since(tickStart))
		}
	})
	merged := MergeAlarms(alarms)
	if s.monitor != nil {
		for _, a := range merged {
			s.monitor.CountAlarm(a)
		}
	}
	for _, err := range errs {
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}

// MergeAlarms flattens alarm streams of disjoint DIMM sets — per shard,
// per node — into (Time, DIMM) order, the engine's one emission order. At
// most one alarm exists per (Time, DIMM), so the order is total and the
// merged stream is the same for every partition.
func MergeAlarms(perShard [][]Alarm) []Alarm {
	n := 0
	for _, as := range perShard {
		n += len(as)
	}
	if n == 0 {
		return nil
	}
	out := make([]Alarm, 0, n)
	for _, as := range perShard {
		out = append(out, as...)
	}
	sortSlice(out, func(a, b Alarm) bool {
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.DIMM.Less(b.DIMM)
	})
	return out
}
