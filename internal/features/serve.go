package features

import (
	"memfp/internal/trace"
)

// ServeCursor is the online-serving counterpart of Cursor: it extracts
// feature vectors from a DIMM log that keeps growing between calls
// (trace.DIMMLog.Append), folding only the newly appended events into its
// lifetime accumulators instead of re-walking the full history on every
// prediction.
//
// The fast path holds while appends arrive in time order and extraction
// instants are nondecreasing. The rest is detected, not trusted:
//
//   - A late event makes Append re-sort the log, which may reorder events
//     beneath the cursor; the generation counter (trace.DIMMLog.IndexGen)
//     detects the rebuild and the cursor starts over.
//   - A non-monotonic instant (t below the previous call's t) rebuilds
//     the incremental state and replays the history up to t.
//
// A compaction (CompactLog) is neither. It drops a prefix
// of the views the cursor indexes into and folds it into the log's
// FoldState; when everything dropped had already been consumed into the
// lifetime accumulators and expired from the window state — always, for a
// cut at or below the last instant minus the observation window, which is
// where the serving engine cuts — the cursor shifts its positions by the
// dropped counts and carries on. A cut that reaches events the cursor
// still holds in its window, or has not consumed yet, rebuilds from the
// FoldState like the paths above.
//
// In every case the returned vector is identical to a fresh
// NewCursor(l).ExtractAt(t) on the same log; the contract only decides the
// cost. A ServeCursor is not safe for concurrent use; the serving engine
// guards each one with its shard lock.
type ServeCursor struct {
	l     *trace.DIMMLog
	inner *Cursor
	gen   uint64
	lastT trace.Minutes
	begun bool
}

// NewServeCursor starts an online extraction stream over l.
func NewServeCursor(l *trace.DIMMLog) *ServeCursor {
	return &ServeCursor{l: l}
}

// ExtractAt computes the feature vector at instant t, equal to a fresh
// NewCursor(l).ExtractAt(t) at incremental cost on the fast path (see the
// type comment for when the cursor starts over).
func (sc *ServeCursor) ExtractAt(t trace.Minutes) []float64 {
	if sc.inner == nil || sc.l.IndexGen() != sc.gen || (sc.begun && t < sc.lastT) || !sc.inner.rebase() {
		sc.inner = NewCursor(sc.l)
		sc.gen = sc.l.IndexGen()
	}
	sc.begun, sc.lastT = true, t
	return sc.inner.ExtractAt(t)
}

// rebase renews the cursor's positions in a log whose index was not
// rebuilt since the cursor last read it. evBase and stormBase are the
// log's CompactedEvents and CompactedStorms as of the positions the
// cursor holds, so their distance to the log's counts now is the prefix
// compacted away since. In-order appends only grow Events and the storm
// view, so with nothing dropped there is nothing to do. A dropped prefix
// that lies wholly below the window start (and below the consumed storms)
// is already in life's lifetime lane and ceTotal and no longer in the
// window state, exactly as in a cursor rebuilt from the FoldState and
// advanced to the same instant, so only the positions move. Otherwise it
// reports false and the cursor must be rebuilt.
func (c *Cursor) rebase() bool {
	events, storms := c.l.CompactedEvents()-c.evBase, c.l.CompactedStorms()-c.stormBase
	if events > c.winStart || storms > c.stormPos {
		return false
	}
	c.pos -= events
	c.winStart -= events
	for i := range c.winOther {
		c.winOther[i] -= events
	}
	c.evBase += events
	c.stormPos -= storms
	c.stormBase += storms
	return true
}

// MemEstimate returns a rough heap-footprint estimate in bytes for
// serving-side memory accounting. The log's events are not counted; the
// dominant owned state is the lifetime fault-analysis accumulators. The classifier is charged as the sum of its
// two lanes' estimates, each as if it kept maps of its own, and the day
// tallies per day held: the charge of the layout with a classifier and a
// day map for the window, which the memory budget's evictions rest on.
func (c *Cursor) MemEstimate() int64 {
	return 128 + c.life.MemEstimate() + c.life.WindowMemEstimate() +
		int64(c.days.active())*24 + 520 + int64(len(c.bits.sigs))*48
}

// MemEstimate returns a rough heap-footprint estimate in bytes of the
// cursor's owned state (see Cursor.MemEstimate).
func (sc *ServeCursor) MemEstimate() int64 {
	if sc.inner == nil {
		return 64
	}
	return 64 + sc.inner.MemEstimate()
}
