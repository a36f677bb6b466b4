package analysis

import (
	"math"
	"slices"

	"memfp/internal/dram"
	"memfp/internal/trace"
)

// Binary serialization of the classifier, used when serving state crosses
// a process boundary (node checkpoints) or spills to disk. The form is the
// (cell, count) list in (rank, device, bank, row, column) order, which is
// ascending cell-ID order, so equal state encodes to equal bytes however
// it was reached. The §V thresholds are constants of the package and are
// not written. Nothing derived is written either: the decoder rebuilds
// every other map and tally through addCell, so no input can describe a
// classifier whose counters disagree with its cells.

// AppendBinary serializes the classifier onto w.
func (x *Incremental) AppendBinary(w *trace.BinWriter) {
	cells := make([]uint64, 0, len(x.cellCEs))
	for k := range x.cellCEs {
		cells = append(cells, k)
	}
	slices.Sort(cells)
	w.Uvarint(uint64(len(cells)))
	for _, k := range cells {
		a := dram.CellAddr(k)
		w.Varint(int64(a.Rank))
		w.Varint(int64(a.Device))
		w.Varint(int64(a.Bank))
		w.Varint(int64(a.Row))
		w.Varint(int64(a.Column))
		w.Varint(int64(x.cellCEs[k]))
	}
}

// DecodeIncremental reads a classifier serialized by AppendBinary. Errors
// latch on r; the caller checks r.Err(). The bytes may be foreign: a cell
// outside the cell-ID field widths (dram.MakeAddr), a cell listed
// twice or with no CEs, and a cell count the remaining bytes cannot hold
// (a cell is six varints) are refused.
func DecodeIncremental(r *trace.BinReader) *Incremental {
	x := NewIncremental()
	cells := r.Uvarint()
	if r.Err() == nil && cells > uint64(r.Remaining()/6) {
		r.Failf("analysis: %d cells declared in %d bytes", cells, r.Remaining())
	}
	for i := uint64(0); i < cells && r.Err() == nil; i++ {
		rank, device, bank := int(r.Varint()), int(r.Varint()), int(r.Varint())
		row, column := int(r.Varint()), int(r.Varint())
		n := r.Varint()
		if r.Err() != nil {
			break
		}
		a, err := dram.MakeAddr(rank, device, bank, row, column)
		if err != nil {
			r.Failf("analysis: cell %d: %v", i, err)
			break
		}
		switch k := a.CellID(); {
		case n < 1 || n > int64(math.MaxInt-x.events):
			r.Failf("analysis: cell %v holds %d CEs", a, n)
		case x.cellCEs[k] != 0:
			r.Failf("analysis: cell %v listed twice", a)
		default:
			x.addCell(k, int(n))
		}
	}
	return x
}
