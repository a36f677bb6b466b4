package features

import (
	"memfp/internal/analysis"
	"memfp/internal/trace"
)

// FoldState is the feature extractor's summary of a log's compacted-away
// prefix: everything the lifetime features need from the dropped events —
// CE/storm totals, first/last CE instants, and the §V incremental fault
// classification — folded in exactly once. It rides on the log
// (trace.DIMMLog.FoldState), so any cursor built over the log afterwards
// seeds itself from it and extraction stays equal to the uncompacted
// original for every instant whose observation window clears the
// compaction horizon.
type FoldState struct {
	ces, storms     int
	hasCE           bool
	firstCE, lastCE trace.Minutes
	life            *analysis.Incremental
}

// fold consumes one dropped event, in time order.
func (fs *FoldState) fold(e trace.Event) {
	switch e.Type {
	case trace.TypeCE:
		if !fs.hasCE {
			fs.hasCE, fs.firstCE = true, e.Time
		}
		fs.lastCE = e.Time
		fs.ces++
		fs.life.Add(e)
	case trace.TypeStorm:
		fs.storms++
	}
	// UEs carry no extraction state: cursors never consume them, and the
	// log itself preserves the lifetime FirstUE across compaction.
}

// MemEstimate returns a rough heap-footprint estimate in bytes for
// serving-side memory accounting.
func (fs *FoldState) MemEstimate() int64 { return 64 + fs.life.MemEstimate() }

// AppendBinary serializes the fold state onto w, for serving-state
// checkpoints and disk spill. Deterministic for equal state.
func (fs *FoldState) AppendBinary(w *trace.BinWriter) {
	w.Varint(int64(fs.ces))
	w.Varint(int64(fs.storms))
	w.Bool(fs.hasCE)
	w.Varint(int64(fs.firstCE))
	w.Varint(int64(fs.lastCE))
	fs.life.AppendBinary(w)
}

// DecodeFoldState reads a fold state serialized by AppendBinary. Errors
// latch on r; the caller checks r.Err().
func DecodeFoldState(r *trace.BinReader) *FoldState {
	fs := &FoldState{
		ces:     int(r.Varint()),
		storms:  int(r.Varint()),
		hasCE:   r.Bool(),
		firstCE: trace.Minutes(r.Varint()),
		lastCE:  trace.Minutes(r.Varint()),
	}
	fs.life = analysis.DecodeIncremental(r)
	return fs
}

// CompactLog drops the log's events before cut (trace.DIMMLog.
// CompactBefore), folding them into the log's FoldState so feature
// extraction over the compacted log stays exact. It returns the number of
// events dropped; a degraded (unindexed) log is left untouched. The
// serving engine calls this behind each prediction with
// cut = predictionTime - Observation: any later prediction's observation
// window then starts at or above the compaction horizon, so window
// features are computed over fully retained history while lifetime
// features come from the fold seed plus the retained events. Such a cut
// also lies at or below the window of the ServeCursor that made the
// prediction, which therefore survives it (see ServeCursor).
func (x *Extractor) CompactLog(l *trace.DIMMLog, cut trace.Minutes) int {
	fs, _ := l.FoldState().(*FoldState)
	fresh := fs == nil
	if fresh {
		fs = &FoldState{life: analysis.NewIncremental(x.Thresholds)}
	}
	n := l.CompactBefore(cut, fs.fold)
	if n > 0 && fresh {
		l.SetFoldState(fs)
	}
	return n
}
