package analysis

import (
	"memfp/internal/trace"
)

// Incremental maintains the §V threshold classification over a growing CE
// set, one event at a time. Because every rule in Classify is a monotone
// threshold on insert-only counts (CEs per cell, distinct columns per row,
// distinct rows per column, CEs per device), the classification can be
// updated in O(1) amortized per event instead of re-scanning the full
// history — the core of the feature extractor's one-pass lifetime
// accumulators. For any sequence of Adds, Class() is identical to
// Classify over the same events (thresholds must be >= 1, as all sane
// configurations are).
//
// Beyond Classify's outputs, it tracks the distinct-structure counts and
// the per-cell CE maximum that the feature extractor needs over the same
// lifetime prefix.
type Incremental struct {
	th Thresholds

	cellCEs map[cellKey]int
	rowCols map[rowKey]map[int]struct{}
	colRows map[colKey]map[int]struct{}
	devCEs  map[int]int

	banksSeen      map[bankKey]struct{}
	bankFaultyRows map[bankKey]int
	bankFaultyCols map[bankKey]int
	faultyBanks    map[bankKey]struct{}

	faultyCells, faultyRows, faultyCols, faultyDevices int
	maxCellCEs                                         int
	events                                             int
	// rowColEntries/colRowEntries count the members of the nested
	// distinct-column/row sets, so MemEstimate stays O(1).
	rowColEntries, colRowEntries int
}

// NewIncremental returns an empty incremental classifier.
func NewIncremental(th Thresholds) *Incremental {
	return &Incremental{
		th:             th,
		cellCEs:        map[cellKey]int{},
		rowCols:        map[rowKey]map[int]struct{}{},
		colRows:        map[colKey]map[int]struct{}{},
		devCEs:         map[int]int{},
		banksSeen:      map[bankKey]struct{}{},
		bankFaultyRows: map[bankKey]int{},
		bankFaultyCols: map[bankKey]int{},
		faultyBanks:    map[bankKey]struct{}{},
	}
}

// Add folds one CE event into the classification.
func (x *Incremental) Add(e trace.Event) {
	a := e.Addr
	bk := bankKey{a.Rank, a.Device, a.Bank}
	rk := rowKey{bk, a.Row}
	lk := colKey{bk, a.Column}
	ck := cellKey{bk, a.Row, a.Column}
	x.events++
	x.banksSeen[bk] = struct{}{}

	n := x.cellCEs[ck] + 1
	x.cellCEs[ck] = n
	if n > x.maxCellCEs {
		x.maxCellCEs = n
	}
	if n == x.th.CellCEs {
		x.faultyCells++
	}

	rs := x.rowCols[rk]
	if rs == nil {
		rs = map[int]struct{}{}
		x.rowCols[rk] = rs
	}
	if _, ok := rs[a.Column]; !ok {
		rs[a.Column] = struct{}{}
		x.rowColEntries++
		if len(rs) == x.th.RowDistinctCols {
			x.faultyRows++
			x.bankFaultyRows[bk]++
			x.checkBank(bk)
		}
	}

	cs := x.colRows[lk]
	if cs == nil {
		cs = map[int]struct{}{}
		x.colRows[lk] = cs
	}
	if _, ok := cs[a.Row]; !ok {
		cs[a.Row] = struct{}{}
		x.colRowEntries++
		if len(cs) == x.th.ColDistinctRows {
			x.faultyCols++
			x.bankFaultyCols[bk]++
			x.checkBank(bk)
		}
	}

	d := x.devCEs[a.Device] + 1
	x.devCEs[a.Device] = d
	if d == x.th.DeviceMinCEs {
		x.faultyDevices++
	}
}

// checkBank promotes the bank to faulty once both the row and column
// thresholds hold inside it. Counts only grow, so a bank never demotes.
func (x *Incremental) checkBank(bk bankKey) {
	if _, done := x.faultyBanks[bk]; done {
		return
	}
	if x.bankFaultyRows[bk] >= x.th.BankFaultyRows && x.bankFaultyCols[bk] >= x.th.BankFaultyCols {
		x.faultyBanks[bk] = struct{}{}
	}
}

// Class returns the classification of everything added so far; it matches
// Classify over the same events.
func (x *Incremental) Class() Class {
	c := Class{
		FaultyCells:   x.faultyCells,
		FaultyRows:    x.faultyRows,
		FaultyCols:    x.faultyCols,
		FaultyBanks:   len(x.faultyBanks),
		FaultyDevices: x.faultyDevices,
	}
	c.MultiDevice = c.FaultyDevices >= 2
	switch {
	case c.FaultyBanks > 0:
		c.Mode = CompBank
	case c.FaultyRows > 0:
		c.Mode = CompRow
	case c.FaultyCols > 0:
		c.Mode = CompColumn
	case c.FaultyCells > 0:
		c.Mode = CompCell
	default:
		c.Mode = CompSporadic
	}
	return c
}

// DistinctBanks returns the number of distinct (rank, device, bank)
// triples seen so far.
func (x *Incremental) DistinctBanks() int { return len(x.banksSeen) }

// DistinctRows returns the number of distinct rows (within their banks)
// seen so far.
func (x *Incremental) DistinctRows() int { return len(x.rowCols) }

// DistinctCols returns the number of distinct columns (within their banks)
// seen so far.
func (x *Incremental) DistinctCols() int { return len(x.colRows) }

// MaxCellCEs returns the largest CE count accumulated by any single cell.
func (x *Incremental) MaxCellCEs() int { return x.maxCellCEs }
