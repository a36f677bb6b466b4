package mlops

import (
	"container/list"
	"fmt"
	"reflect"

	"memfp/internal/platform"
	"memfp/internal/trace"
)

// Memory-bounded serving. With Server.MemoryBudget set, the engine keeps
// its resident serving state under the budget through two mechanisms,
// neither of which changes the emitted alarm stream:
//
//   - Log compaction: after a prediction at instant t, the DIMM's events
//     before t minus the observation window are folded into incremental
//     summaries (trace.DIMMLog.CompactBefore via the feature store's fold
//     state) and dropped. Every later prediction's observation window
//     starts at or above the compaction horizon, so feature vectors and
//     rule-model scores are unchanged. The cut is also at or below where
//     the DIMM's extraction cursor's window starts, so the cursor survives
//     it by shifting its positions (features.ServeCursor), not a rebuild.
//
//   - Idle-DIMM eviction: when a shard's resident bytes exceed its slice
//     of the budget, the least-recently-served DIMMs are frozen — their
//     retained events serialized in trace's log form alongside the
//     throttle/cooldown scalars and the compaction snapshot — and the live
//     state released. The next event for a frozen DIMM thaws it: the log
//     is rebuilt from the blob, the compaction snapshot reinstated, and
//     the extraction cursor reconstructed from the log's fold state, which
//     seeds it with the dropped prefix's contribution. Reconstruction is
//     exact, so eviction is invisible to scoring (pinned by
//     TestEvictionTransparent and the bounded-replay equivalence tests).
//
// A resident DIMM's kept snapshot record (snapshot.go) is serving state
// like the rest: its bytes are inside footprint(), Snapshot settles the
// shard's tally when it fills one, and the DIMM's events keep it (stale,
// its blob the prefix the next encoding extends). An engine that
// snapshots under a budget therefore evicts a little earlier than one that
// does not; the alarm stream cannot tell (eviction is exact).
//
// Both policies are pure functions of the event stream (arrival order and
// event times; no wall clock), so bounded runs are reproducible and
// byte-identical across shard counts, like everything else in the engine.

// eventSize is the in-memory size of one trace.Event, the unit of the
// resident-bytes accounting.
var eventSize = int64(reflect.TypeOf(trace.Event{}).Size())

// dimmStateBase approximates the fixed overhead of one resident DIMM:
// struct, map entry, log header and index bookkeeping.
const dimmStateBase = 512

// frozenBase approximates the fixed overhead of one frozen DIMM.
const frozenBase = 160

// footprint estimates the resident bytes of one DIMM's serving state.
func (st *dimmState) footprint() int64 {
	b := int64(dimmStateBase) + int64(cap(st.log.Events))*eventSize + int64(cap(st.rec))
	if st.cursor != nil {
		b += st.cursor.MemEstimate()
	}
	if fs := st.log.FoldState(); fs != nil {
		b += fs.MemEstimate()
	}
	return b
}

// frozenDIMM is an evicted DIMM's serving state, serialized: everything
// needed to reconstruct scoring-identical live state on the next event.
type frozenDIMM struct {
	part   platform.DIMMPart
	blob   []byte // retained events in the trace log form (trace.AppendLogEventsAfter)
	events int
	snap   trace.CompactionSnapshot // carries the live fold state pointer

	lastPred  trace.Minutes
	lastAlarm trace.Minutes
	alarmed   bool

	bytes int64 // accounted resident size

	// spilled marks a stub whose record lives in Server.Spill rather
	// than on the heap; spillBytes is the stored record's size.
	spilled    bool
	spillBytes int64
	// dirty: changed since the engine's last frame (AppendDelta carries
	// it); thawed: no longer in the shard's frozen map.
	dirty, thawed bool
}

// freezeDIMM serializes one DIMM's live serving state, its events
// appended to blob (nil: a new one). Append keeps the log sorted, so
// delta coding is safe.
func freezeDIMM(st *dimmState, blob []byte) *frozenDIMM {
	events := st.log.Events
	fz := &frozenDIMM{
		part:     st.log.Part,
		events:   len(events),
		snap:     st.log.Compaction(),
		lastPred: st.lastPred, lastAlarm: st.lastAlarm, alarmed: st.alarmed,
	}
	// The kept record's blob already encodes a prefix of the log.
	n, prev := 0, trace.Minutes(0)
	if st.recBlob != nil && st.recEvents > 0 {
		n, prev = st.recEvents, events[st.recEvents-1].Time
	}
	if blob == nil {
		blob = make([]byte, 0, len(st.recBlob)+8*(len(events)-n))
	}
	fz.blob = trace.AppendLogEventsAfter(append(blob, st.recBlob...), prev, events[n:])
	fz.bytes = fz.footprint()
	return fz
}

// footprint estimates the resident bytes of one in-memory frozen DIMM.
func (fz *frozenDIMM) footprint() int64 {
	b := frozenBase + int64(cap(fz.blob))
	if fz.snap.Fold != nil {
		b += fz.snap.Fold.MemEstimate()
	}
	return b
}

// thaw reconstructs live serving state from a frozen DIMM. The extraction
// cursor is rebuilt lazily on the next vector prediction; the restored
// fold state seeds it with the compacted prefix's contribution, so the
// first post-thaw vector already equals the never-evicted one.
func (fz *frozenDIMM) thaw(id trace.DIMMID) (*dimmState, error) {
	events, err := trace.ReadLogEvents(trace.NewBinReader(fz.blob), fz.events, id)
	if err != nil {
		return nil, fmt.Errorf("mlops: corrupt frozen blob for %s: %w", id, err)
	}
	l := &trace.DIMMLog{ID: id, Part: fz.part, Events: events}
	l.RestoreCompaction(fz.snap)
	l.SortEvents()
	return &dimmState{log: l, lastPred: fz.lastPred, lastAlarm: fz.lastAlarm, alarmed: fz.alarmed}, nil
}

// account refreshes st's footprint in the shard's resident tally and
// marks it most recently served. Shard lock held; called only when a
// budget is set.
func (sh *shard) account(st *dimmState) {
	nb := st.footprint()
	sh.resident += nb - st.bytes
	st.bytes = nb
	if st.lruEl == nil {
		st.lruEl = sh.lru.PushBack(st)
	} else {
		sh.lru.MoveToBack(st.lruEl)
	}
}

// drop unlinks a live DIMM from the shard's map and LRU; the caller
// settles sh.resident.
func (sh *shard) drop(st *dimmState) {
	if st.lruEl != nil {
		sh.lru.Remove(st.lruEl)
		st.lruEl = nil
	}
	delete(sh.dimms, st.log.ID)
	st.dropped = true
}

// maybeCompact runs the post-prediction compaction policy for one DIMM:
// at most once per quarter observation window of stream time, drop the
// log prefix older than t minus the feature store's observation window —
// the furthest back any feature reads. Shard lock held.
func (s *Server) maybeCompact(st *dimmState, t trace.Minutes) {
	if s.MemoryBudget <= 0 || s.Store == nil {
		return
	}
	if t < st.nextCompact {
		return
	}
	retain := s.Store.ObservationWindow()
	st.nextCompact = t + retain/4 + 1
	cut := t - retain
	if cut <= 0 || len(st.log.Events) == 0 || st.log.Events[0].Time >= cut {
		return
	}
	if n := s.Store.CompactLog(st.log, cut); n > 0 {
		st.recBlob = nil
		s.compactions.Add(1)
		s.compactedEvents.Add(int64(n))
	}
}

// maybeEvict enforces the shard's slice of the memory budget by freezing
// least-recently-served DIMMs. Cooldown-aware: a first pass spares DIMMs
// inside their alarm cooldown (they are the fleet's hottest modules); a
// second pass freezes even those if the budget is still exceeded. The
// most recently served DIMM is never evicted, so a single DIMM larger
// than the shard budget cannot thrash. Shard lock held; callers must
// ensure no pending predictions reference shard state (call after
// flushPending).
func (s *Server) maybeEvict(sh *shard, now trace.Minutes) {
	if s.MemoryBudget <= 0 {
		return
	}
	budget := s.MemoryBudget / int64(len(s.shards))
	if sh.resident <= budget {
		return
	}
	for pass := 0; pass < 2 && sh.resident > budget; pass++ {
		for el := sh.lru.Front(); el != nil && sh.resident > budget; {
			next := el.Next()
			if next == nil { // tail: the DIMM just served stays resident
				break
			}
			st := el.Value.(*dimmState)
			if pass == 0 && st.alarmed && now-st.lastAlarm < cooldown {
				el = next
				continue
			}
			s.freezeLocked(sh, st)
			el = next
		}
	}
}

// freezeLocked evicts one resident DIMM. With a spill store configured
// the frozen record leaves the heap entirely — only a fixed-size stub
// stays resident — so the budget bounds total process memory. A failed
// spill falls back to the in-memory frozen form. Shard lock held.
func (s *Server) freezeLocked(sh *shard, st *dimmState) {
	fz := freezeDIMM(st, nil)
	id := st.log.ID
	if s.Spill != nil {
		if stub, err := s.spillRec(id, fz); err == nil {
			fz = stub
		}
	}
	fz.dirty = st.rec == nil || st.dirty // changed since the last frame
	sh.resident += fz.bytes - st.bytes
	sh.drop(st)
	sh.frozen[id] = fz
	s.evictions.Add(1)
}

// spillRec writes one frozen record to the spill store and returns the
// on-heap stub standing in for it.
func (s *Server) spillRec(id trace.DIMMID, fz *frozenDIMM) (*frozenDIMM, error) {
	var w trace.BinWriter
	appendFrozenRec(&w, id, fz)
	if err := s.Spill.Put(spillDIMMKey(id), w.Buf); err != nil {
		return nil, err
	}
	n := int64(len(w.Buf))
	s.spills.Add(1)
	s.spilledBytes.Add(n)
	return &frozenDIMM{part: fz.part, spilled: true, spillBytes: n, bytes: frozenBase}, nil
}

// readSpilled fetches a spilled DIMM's record and checks it: the stored
// bytes — exactly what appendFrozenRec wrote — and their in-memory frozen
// form, which aliases them.
func (s *Server) readSpilled(id trace.DIMMID) ([]byte, *frozenDIMM, error) {
	data, err := s.Spill.Get(spillDIMMKey(id))
	if err != nil {
		return nil, nil, fmt.Errorf("mlops: unspill %s: %w", id, err)
	}
	r := trace.NewBinReader(data)
	gotID, real, err := decodeFrozenRec(r)
	if err != nil {
		return nil, nil, fmt.Errorf("mlops: unspill %s: %w", id, err)
	}
	if gotID != id {
		return nil, nil, fmt.Errorf("mlops: spill record for %s found under key of %s", gotID, id)
	}
	return data[:len(data)-r.Remaining()], real, nil
}

// thawLocked rehydrates a frozen DIMM for its next event. Shard lock held.
func (s *Server) thawLocked(sh *shard, id trace.DIMMID, fz *frozenDIMM) (*dimmState, error) {
	fz.thawed = true // the snapshot order looks this DIMM up again
	if fz.spilled {
		_, real, err := s.readSpilled(id)
		if err != nil {
			return nil, err
		}
		s.Spill.Delete(spillDIMMKey(id))
		s.spilledBytes.Add(-fz.spillBytes)
		// The shard accounted the stub's size; carry it into the release
		// arithmetic below so resident balances exactly.
		real.bytes = fz.bytes
		fz = real
	}
	st, err := fz.thaw(id)
	if err != nil {
		return nil, err
	}
	delete(sh.frozen, id)
	sh.resident -= fz.bytes
	sh.dimms[id] = st
	sh.account(st)
	s.rehydrations.Add(1)
	return st, nil
}

// MemoryStats is a point-in-time summary of the engine's serving-state
// memory. The JSON form is what node heartbeats and /api/v1/status carry;
// the two DIMM counts are engine-local and stay off the wire.
type MemoryStats struct {
	// ResidentBytes is the accounted serving-state footprint (live DIMM
	// state plus frozen blobs). With no budget set it is recomputed from
	// the live states on each call.
	ResidentBytes int64 `json:"resident_bytes"`
	ResidentDIMMs int   `json:"-"`
	FrozenDIMMs   int   `json:"-"`

	Evictions       int64 `json:"evictions"`
	Rehydrations    int64 `json:"rehydrations"`
	Compactions     int64 `json:"compactions"`
	CompactedEvents int64 `json:"compacted_events"`

	// Spill accounting (zero without a SpillStore): bytes currently in
	// the store and the lifetime count of records written to it.
	SpilledBytes int64 `json:"spilled_bytes"`
	Spills       int64 `json:"spills"`

	// Snapshot accounting: records written into engine snapshots, and
	// how many of those had to be re-encoded from a DIMM's live state
	// instead of copied from a kept, frozen or spilled record. Their
	// ratio is the checkpoint's wasted-work rate.
	SnapshotRecords   int64 `json:"snapshot_records"`
	SnapshotReencoded int64 `json:"snapshot_records_reencoded"`
}

// Add accumulates o into ms — how the stats of several engines (a
// fleet's nodes) become one.
func (ms *MemoryStats) Add(o MemoryStats) {
	ms.ResidentBytes += o.ResidentBytes
	ms.ResidentDIMMs += o.ResidentDIMMs
	ms.FrozenDIMMs += o.FrozenDIMMs
	ms.Evictions += o.Evictions
	ms.Rehydrations += o.Rehydrations
	ms.Compactions += o.Compactions
	ms.CompactedEvents += o.CompactedEvents
	ms.SpilledBytes += o.SpilledBytes
	ms.Spills += o.Spills
	ms.SnapshotRecords += o.SnapshotRecords
	ms.SnapshotReencoded += o.SnapshotReencoded
}

// MemoryStats sums the shards' accounting. Takes each shard lock briefly.
func (s *Server) MemoryStats() MemoryStats {
	ms := MemoryStats{
		Evictions:       s.evictions.Load(),
		Rehydrations:    s.rehydrations.Load(),
		Compactions:     s.compactions.Load(),
		CompactedEvents: s.compactedEvents.Load(),
		SpilledBytes:    s.spilledBytes.Load(),
		Spills:          s.spills.Load(),

		SnapshotRecords:   s.snapRecords.Load(),
		SnapshotReencoded: s.snapReencoded.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		if s.MemoryBudget > 0 {
			ms.ResidentBytes += sh.resident
		} else {
			for _, st := range sh.dimms {
				ms.ResidentBytes += st.footprint()
			}
		}
		ms.ResidentDIMMs += len(sh.dimms)
		ms.FrozenDIMMs += len(sh.frozen)
		sh.mu.Unlock()
	}
	return ms
}

// newShard builds an empty shard.
func newShard() *shard {
	return &shard{dimms: map[trace.DIMMID]*dimmState{}, frozen: map[trace.DIMMID]*frozenDIMM{}, lru: list.New()}
}
