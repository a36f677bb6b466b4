package analysis

import (
	"memfp/internal/trace"
)

// Sliding maintains the §V threshold classification over a sliding window
// of CE events: Add folds an event entering the window, Remove folds one
// leaving it. Unlike Incremental (insert-only, lifetime prefix), every
// rule here must also demote cleanly when counts fall back below their
// thresholds, so the distinct-structure sets carry multiplicities. For
// any window contents (as a multiset), Class() is identical to Classify
// over the same events, regardless of the add/remove order that produced
// it.
//
// The feature extractor's serving cursor keeps one Sliding per DIMM: the
// observation window's classification then costs O(events entering +
// events leaving) per instant instead of a full rebuild over the window.
type Sliding struct {
	th Thresholds

	cellCEs map[cellKey]int
	rowCols map[rowKey]map[int]int // col -> CE count inside the window
	colRows map[colKey]map[int]int // row -> CE count inside the window
	devCEs  map[int]int

	bankFaultyRows map[bankKey]int
	bankFaultyCols map[bankKey]int

	faultyCells, faultyRows, faultyCols, faultyBanks, faultyDevices int
	events                                                          int
	// rowColEntries/colRowEntries track nested-map membership so
	// MemEstimate stays O(1).
	rowColEntries, colRowEntries int
}

// NewSliding returns an empty sliding-window classifier.
func NewSliding(th Thresholds) *Sliding {
	return &Sliding{
		th:             th,
		cellCEs:        map[cellKey]int{},
		rowCols:        map[rowKey]map[int]int{},
		colRows:        map[colKey]map[int]int{},
		devCEs:         map[int]int{},
		bankFaultyRows: map[bankKey]int{},
		bankFaultyCols: map[bankKey]int{},
	}
}

// bankIsFaulty evaluates the §V bank rule for one bank.
func (x *Sliding) bankIsFaulty(bk bankKey) bool {
	return x.bankFaultyRows[bk] >= x.th.BankFaultyRows && x.bankFaultyCols[bk] >= x.th.BankFaultyCols
}

// reBank adjusts the faulty-bank tally around a mutation of bk's row or
// column counts: call with the rule's value before the mutation.
func (x *Sliding) reBank(bk bankKey, was bool) {
	if is := x.bankIsFaulty(bk); is != was {
		if is {
			x.faultyBanks++
		} else {
			x.faultyBanks--
		}
	}
}

// Add folds one CE event entering the window.
func (x *Sliding) Add(e trace.Event) {
	a := e.Addr
	bk := bankKey{a.Rank, a.Device, a.Bank}
	rk := rowKey{bk, a.Row}
	lk := colKey{bk, a.Column}
	ck := cellKey{bk, a.Row, a.Column}
	x.events++

	n := x.cellCEs[ck] + 1
	x.cellCEs[ck] = n
	if n == x.th.CellCEs {
		x.faultyCells++
	}

	rs := x.rowCols[rk]
	if rs == nil {
		rs = map[int]int{}
		x.rowCols[rk] = rs
	}
	if rs[a.Column]++; rs[a.Column] == 1 {
		x.rowColEntries++
		if len(rs) == x.th.RowDistinctCols {
			x.faultyRows++
			was := x.bankIsFaulty(bk)
			x.bankFaultyRows[bk]++
			x.reBank(bk, was)
		}
	}

	cs := x.colRows[lk]
	if cs == nil {
		cs = map[int]int{}
		x.colRows[lk] = cs
	}
	if cs[a.Row]++; cs[a.Row] == 1 {
		x.colRowEntries++
		if len(cs) == x.th.ColDistinctRows {
			x.faultyCols++
			was := x.bankIsFaulty(bk)
			x.bankFaultyCols[bk]++
			x.reBank(bk, was)
		}
	}

	d := x.devCEs[a.Device] + 1
	x.devCEs[a.Device] = d
	if d == x.th.DeviceMinCEs {
		x.faultyDevices++
	}
}

// Remove folds one CE event leaving the window. The event must currently
// be in the window (every Remove pairs with an earlier Add).
func (x *Sliding) Remove(e trace.Event) {
	a := e.Addr
	bk := bankKey{a.Rank, a.Device, a.Bank}
	rk := rowKey{bk, a.Row}
	lk := colKey{bk, a.Column}
	ck := cellKey{bk, a.Row, a.Column}
	x.events--

	n := x.cellCEs[ck] - 1
	if n == 0 {
		delete(x.cellCEs, ck)
	} else {
		x.cellCEs[ck] = n
	}
	if n == x.th.CellCEs-1 {
		x.faultyCells--
	}

	rs := x.rowCols[rk]
	if rs[a.Column]--; rs[a.Column] == 0 {
		delete(rs, a.Column)
		x.rowColEntries--
		if len(rs) == x.th.RowDistinctCols-1 {
			x.faultyRows--
			was := x.bankIsFaulty(bk)
			if x.bankFaultyRows[bk]--; x.bankFaultyRows[bk] == 0 {
				delete(x.bankFaultyRows, bk)
			}
			x.reBank(bk, was)
		}
		if len(rs) == 0 {
			delete(x.rowCols, rk)
		}
	}

	cs := x.colRows[lk]
	if cs[a.Row]--; cs[a.Row] == 0 {
		delete(cs, a.Row)
		x.colRowEntries--
		if len(cs) == x.th.ColDistinctRows-1 {
			x.faultyCols--
			was := x.bankIsFaulty(bk)
			if x.bankFaultyCols[bk]--; x.bankFaultyCols[bk] == 0 {
				delete(x.bankFaultyCols, bk)
			}
			x.reBank(bk, was)
		}
		if len(cs) == 0 {
			delete(x.colRows, lk)
		}
	}

	d := x.devCEs[a.Device] - 1
	if d == 0 {
		delete(x.devCEs, a.Device)
	} else {
		x.devCEs[a.Device] = d
	}
	if d == x.th.DeviceMinCEs-1 {
		x.faultyDevices--
	}
}

// Class returns the classification of the current window contents; it
// matches Classify over the same events.
func (x *Sliding) Class() Class {
	c := Class{
		FaultyCells:   x.faultyCells,
		FaultyRows:    x.faultyRows,
		FaultyCols:    x.faultyCols,
		FaultyBanks:   x.faultyBanks,
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

// MemEstimate returns a rough heap-footprint estimate in bytes, O(1).
func (x *Sliding) MemEstimate() int64 {
	const entry = 48 // rough bytes per map entry across the key shapes
	entries := len(x.cellCEs) + len(x.rowCols) + len(x.colRows) + len(x.devCEs) +
		len(x.bankFaultyRows) + len(x.bankFaultyCols) +
		x.rowColEntries + x.colRowEntries
	return 128 + int64(entries)*entry
}
