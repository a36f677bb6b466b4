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

// rebase renews the cursor's views of a log whose index was not rebuilt
// since the cursor last read it. ceBase and stormBase are the log's
// CompactedCEs and CompactedStorms as of the views the cursor holds, so
// their distance to the log's counts now is the prefix compacted away
// since. In-order appends only grow the views, so with nothing dropped
// renewing the slice headers is all there is to do. A dropped prefix that lies wholly below the window start
// (and below the consumed storms) is already in life and no longer in
// win, bits or dayCEs, exactly as in a cursor rebuilt from the FoldState
// and advanced to the same instant, so only the positions move. Otherwise
// it reports false and the cursor must be rebuilt.
func (c *Cursor) rebase() bool {
	ces, storms := c.l.CompactedCEs()-c.ceBase, c.l.CompactedStorms()-c.stormBase
	if ces > c.winStart || storms > c.stormPos {
		return false
	}
	c.pos -= ces
	c.winStart -= ces
	c.ceBase += ces
	c.stormPos -= storms
	c.stormBase += storms
	c.ces = c.l.CEs()
	c.storms = c.l.StormTimes()
	return true
}

// MemEstimate returns a rough heap-footprint estimate in bytes for
// serving-side memory accounting. The per-type views are shared with the
// log's index and not counted; the dominant owned state is the lifetime
// fault-analysis accumulators.
func (c *Cursor) MemEstimate() int64 {
	return 128 + c.life.MemEstimate() + c.win.MemEstimate() +
		int64(len(c.dayCEs))*24 + 520 + int64(len(c.bits.sigs))*48
}

// MemEstimate returns a rough heap-footprint estimate in bytes of the
// cursor's owned state (see Cursor.MemEstimate).
func (sc *ServeCursor) MemEstimate() int64 {
	if sc.inner == nil {
		return 64
	}
	return 64 + sc.inner.MemEstimate()
}
