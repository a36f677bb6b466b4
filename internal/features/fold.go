package features

import (
	"memfp/internal/analysis"
	"memfp/internal/trace"
)

// FoldState is the feature extractor's summary of a log's compacted-away
// prefix: what the lifetime features need from the dropped events and the
// log cannot answer itself — the first/last CE instants and the §V
// classifier over the dropped CEs, each folded in exactly once. (How many
// CEs and storms were dropped the log counts: CompactedCEs,
// CompactedStorms.) It rides on the log (trace.DIMMLog.FoldState), so any
// cursor built over the log afterwards seeds itself from it and
// extraction stays equal to the uncompacted original for every instant
// whose observation window clears the compaction horizon.
type FoldState struct {
	firstCE, lastCE trace.Minutes // -1 until a CE is folded
	life            *analysis.Incremental
}

// fold consumes one dropped event, in time order. Only CEs carry
// extraction state: the log counts dropped storms and preserves the
// lifetime FirstUE across compaction.
func (fs *FoldState) fold(e trace.Event) {
	if e.Type != trace.TypeCE {
		return
	}
	if fs.firstCE < 0 {
		fs.firstCE = e.Time
	}
	fs.lastCE = e.Time
	fs.life.Add(e)
}

// MemEstimate returns a rough heap-footprint estimate in bytes for
// serving-side memory accounting.
func (fs *FoldState) MemEstimate() int64 { return 64 + fs.life.MemEstimate() }

// AppendBinary serializes the fold state onto w, for serving-state
// checkpoints and disk spill. Deterministic for equal state.
func (fs *FoldState) AppendBinary(w *trace.BinWriter) {
	w.Varint(int64(fs.firstCE))
	w.Varint(int64(fs.lastCE))
	fs.life.AppendBinary(w)
}

// DecodeFoldState reads a fold state serialized by AppendBinary. Errors
// latch on r; the caller checks r.Err().
func DecodeFoldState(r *trace.BinReader) *FoldState {
	return &FoldState{
		firstCE: trace.Minutes(r.Varint()),
		lastCE:  trace.Minutes(r.Varint()),
		life:    analysis.DecodeIncremental(r),
	}
}

// CompactLog drops the log's events before cut (trace.DIMMLog.
// CompactBefore), folding them into the log's FoldState so feature
// extraction over the compacted log stays exact. It returns the number of
// events dropped. The
// serving engine calls this behind each prediction with
// cut = predictionTime - ObservationWindow: any later prediction's observation
// window then starts at or above the compaction horizon, so window
// features are computed over fully retained history while lifetime
// features come from the fold seed plus the retained events. Such a cut
// also lies at or below the window of the ServeCursor that made the
// prediction, which therefore survives it (see ServeCursor).
func CompactLog(l *trace.DIMMLog, cut trace.Minutes) int {
	fs, _ := l.FoldState().(*FoldState)
	fresh := fs == nil
	if fresh {
		fs = &FoldState{firstCE: -1, lastCE: -1, life: analysis.NewIncremental()}
	}
	n := l.CompactBefore(cut, fs.fold)
	if n > 0 && fresh {
		l.SetFoldState(fs)
	}
	return n
}
