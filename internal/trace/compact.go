package trace

import "sort"

// Log compaction bounds the resident size of long-lived serving logs.
// Online consumers (features.ServeCursor, the mlops serving engine) fold
// events into incremental state exactly once and then only query bounded
// trailing windows; CompactBefore lets them drop the consumed prefix while
// a fold callback captures whatever summary they need to stay exact.
//
// Contract after CompactBefore(cut, fold):
//
//   - Window queries (CEsBetween) are exact for any [from, to) with
//     from >= Compaction().Horizon; below the horizon the dropped events
//     are simply absent.
//   - FirstCE and FirstUE remain exact lifetime answers: the pre-drop
//     firsts are captured and merged back by every index rebuild, so a
//     late event that Append sorts in cannot lose them.
//   - The index stays current: the retained events and storm times move
//     to fresh arrays, so a view handed out earlier keeps its old
//     contents. No event is reordered, so IndexGen does not advance; a
//     consumer holding positions into Events and StormTimes
//     (features.ServeCursor) shifts them by the change in CompactedEvents
//     and CompactedStorms since it last looked.

// CompactBefore drops all events with Time < cut from the log, invoking
// fold (when non-nil) for each dropped event in time order first, and
// returns the number of events dropped (0 when the log holds nothing
// before cut). Like a query, it panics on a bulk-loaded log that was not
// sorted. The retained events are copied to a fresh backing array so the
// dropped prefix becomes collectable.
func (d *DIMMLog) CompactBefore(cut Minutes, fold func(Event)) int {
	d.mustBeIndexed()
	k := sort.Search(len(d.Events), func(i int) bool { return d.Events[i].Time >= cut })
	if k == 0 {
		return 0
	}
	// The index is current, so firstCE/firstUE already hold lifetime
	// values (buildIndex re-merges them after every rebuild); capture them
	// so they survive the drop. Dropping a prefix leaves them unchanged.
	d.lifeHasCE, d.lifeFirstCE = d.hasCE, d.firstCE
	d.lifeHasUE, d.lifeFirstUE = d.hasUE, d.firstUE
	var nCE, nUE, nStorm int
	for _, e := range d.Events[:k] {
		if fold != nil {
			fold(e)
		}
		switch e.Type {
		case TypeCE:
			nCE++
		case TypeUE:
			nUE++
		case TypeStorm:
			nStorm++
		}
	}
	d.compEvents += k
	d.compCEs += nCE
	d.compUEs += nUE
	d.compStorms += nStorm
	if cut > d.compBefore {
		d.compBefore = cut
	}
	d.Events = dropPrefix(d.Events, k)
	d.storms = dropPrefix(d.storms, nStorm)
	d.idxLen = len(d.Events)
	return k
}

// dropPrefix advances a slice past its first n entries: s[n:] copied into
// a fresh exact-size array (nil when nothing remains, as buildIndex leaves
// an absent type), so holders of s are not written under and the dropped
// prefix becomes collectable.
func dropPrefix[T any](s []T, n int) []T {
	if n == 0 {
		return s
	}
	if n == len(s) {
		return nil
	}
	out := make([]T, len(s)-n)
	copy(out, s[n:])
	return out
}

// CompactedEvents returns the total number of events dropped so far.
func (d *DIMMLog) CompactedEvents() int { return d.compEvents }

// CompactedCEs returns the number of dropped CE events.
func (d *DIMMLog) CompactedCEs() int { return d.compCEs }

// CompactedStorms returns the number of dropped storm events.
func (d *DIMMLog) CompactedStorms() int { return d.compStorms }

// FoldState is a consumer-owned summary of a log's dropped prefix (the
// feature extractor's lifetime accumulators). The log carries it without
// looking inside; what holds a log must be able to do with it is write it
// beside the compaction bookkeeping and charge its bytes.
type FoldState interface {
	// AppendBinary serializes the summary onto w, deterministically for
	// equal state.
	AppendBinary(w *BinWriter)
	// MemEstimate returns a rough heap-footprint estimate in bytes.
	MemEstimate() int64
}

// FoldState returns the summary of the dropped prefix installed by
// SetFoldState, or nil.
func (d *DIMMLog) FoldState() FoldState { return d.foldState }

// SetFoldState attaches a consumer-owned summary of the dropped prefix so
// that consumers rebuilding incremental state over a compacted log can
// seed themselves instead of losing the dropped events' contribution.
func (d *DIMMLog) SetFoldState(s FoldState) { d.foldState = s }

// CompactionSnapshot captures a log's compaction bookkeeping so serving
// state can be serialized (idle-DIMM eviction) and reconstructed without
// losing the dropped prefix's contribution.
type CompactionSnapshot struct {
	Events, CEs, UEs, Storms int
	Horizon                  Minutes
	HasCE, HasUE             bool
	FirstCE, FirstUE         Minutes
	Fold                     FoldState
}

// Compaction returns the log's current compaction snapshot. Its
// first-CE/UE fields carry the full lifetime answers, retained events
// included.
func (d *DIMMLog) Compaction() CompactionSnapshot {
	d.mustBeIndexed()
	return CompactionSnapshot{
		Events: d.compEvents, CEs: d.compCEs, UEs: d.compUEs, Storms: d.compStorms,
		Horizon: d.compBefore, Fold: d.foldState,
		HasCE: d.hasCE, HasUE: d.hasUE,
		FirstCE: d.firstCE, FirstUE: d.firstUE,
	}
}

// RestoreCompaction reinstates a snapshot taken by Compaction on a log
// rebuilt from the retained events (eviction thaw). Call before
// SortEvents so the rebuild's index merge sees the lifetime firsts.
func (d *DIMMLog) RestoreCompaction(cs CompactionSnapshot) {
	if cs.Events == 0 {
		return
	}
	d.compEvents, d.compCEs, d.compUEs, d.compStorms = cs.Events, cs.CEs, cs.UEs, cs.Storms
	d.compBefore = cs.Horizon
	d.foldState = cs.Fold
	d.lifeHasCE, d.lifeFirstCE = cs.HasCE, cs.FirstCE
	d.lifeHasUE, d.lifeFirstUE = cs.HasUE, cs.FirstUE
}
