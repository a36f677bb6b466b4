package analysis

import (
	"cmp"
	"math"
	"slices"

	"memfp/internal/trace"
)

// Binary serialization of the classifier, used when serving state crosses
// a process boundary (node checkpoints) or spills to disk. The form is
// the thresholds — the restored classifier must keep classifying under
// the rules it accumulated under — and the (cell, count) list in sorted
// order, so equal state encodes to equal bytes however it was reached.
// Nothing derived is written: the decoder rebuilds every other map and
// tally through addCell, so no input can describe a classifier whose
// counters disagree with its cells.

func (k cellKey) compare(o cellKey) int {
	return cmp.Or(
		cmp.Compare(k.rank, o.rank), cmp.Compare(k.dev, o.dev), cmp.Compare(k.bank, o.bank),
		cmp.Compare(k.row, o.row), cmp.Compare(k.col, o.col))
}

// AppendBinary serializes the classifier onto w.
func (x *Incremental) AppendBinary(w *trace.BinWriter) {
	w.Varint(int64(x.th.CellCEs))
	w.Varint(int64(x.th.RowDistinctCols))
	w.Varint(int64(x.th.ColDistinctRows))
	w.Varint(int64(x.th.BankFaultyRows))
	w.Varint(int64(x.th.BankFaultyCols))
	w.Varint(int64(x.th.DeviceMinCEs))

	cells := make([]cellKey, 0, len(x.cellCEs))
	for k := range x.cellCEs {
		cells = append(cells, k)
	}
	slices.SortFunc(cells, cellKey.compare)
	w.Uvarint(uint64(len(cells)))
	for _, k := range cells {
		w.Varint(int64(k.rank))
		w.Varint(int64(k.dev))
		w.Varint(int64(k.bank))
		w.Varint(int64(k.row))
		w.Varint(int64(k.col))
		w.Varint(int64(x.cellCEs[k]))
	}
}

// DecodeIncremental reads a classifier serialized by AppendBinary. Errors
// latch on r; the caller checks r.Err(). The bytes may be foreign: a
// threshold below 1 (the rules assume >= 1), a cell listed twice or with
// no CEs, and a cell count the remaining bytes cannot hold (a cell is six
// varints) are refused.
func DecodeIncremental(r *trace.BinReader) *Incremental {
	th := Thresholds{
		CellCEs:         int(r.Varint()),
		RowDistinctCols: int(r.Varint()),
		ColDistinctRows: int(r.Varint()),
		BankFaultyRows:  int(r.Varint()),
		BankFaultyCols:  int(r.Varint()),
		DeviceMinCEs:    int(r.Varint()),
	}
	if r.Err() == nil && min(th.CellCEs, th.RowDistinctCols, th.ColDistinctRows,
		th.BankFaultyRows, th.BankFaultyCols, th.DeviceMinCEs) < 1 {
		r.Failf("analysis: threshold below 1 in %+v", th)
	}
	x := NewIncremental(th)
	cells := r.Uvarint()
	if r.Err() == nil && cells > uint64(r.Remaining()/6) {
		r.Failf("analysis: %d cells declared in %d bytes", cells, r.Remaining())
	}
	for i := uint64(0); i < cells && r.Err() == nil; i++ {
		k := cellKey{bankKey{int(r.Varint()), int(r.Varint()), int(r.Varint())}, int(r.Varint()), int(r.Varint())}
		n := r.Varint()
		switch {
		case r.Err() != nil:
		case n < 1 || n > int64(math.MaxInt-x.events):
			r.Failf("analysis: cell %+v holds %d CEs", k, n)
		case x.cellCEs[k] != 0:
			r.Failf("analysis: cell %+v listed twice", k)
		default:
			x.addCell(k, int(n))
		}
	}
	return x
}
