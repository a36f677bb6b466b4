// Package analysis implements the paper's fault analysis (§V): classifying
// each DIMM's CE history into DRAM fault modes (cell / column / row / bank,
// single-device / multi-device) using threshold rules in the style of
// Beigi et al. (HPCA'23) and Yu et al. (DSN'23/ICCAD'23), and computing the
// statistics behind Table I, Figure 4, and Figure 5. The classifier works
// only from logs — it never sees simulator ground truth. Its six
// thresholds are the paper's protocol, declared once below as constants:
// nothing configures them, and a serialized classifier does not carry
// them.
package analysis

import (
	"memfp/internal/trace"
)

// The §V fault-mode thresholds, single-digit like those of the fault
// taxonomies the paper cites. Every rule below is "count >= threshold",
// and the incremental classifier relies on each being at least 1.
const (
	// minCellCEs: a cell is faulty when it accumulates at least this many
	// CEs.
	minCellCEs = 2
	// minRowCols: a row is faulty when CEs appear on at least this many
	// distinct columns of the row.
	minRowCols = 3
	// minColRows: a column is faulty when CEs appear on at least this many
	// distinct rows of the column.
	minColRows = 3
	// minBankRows/minBankCols: a bank is faulty when it contains at least
	// this many faulty rows AND faulty columns (paper §V: "Bank faults
	// arise when thresholds for both row and column faults within a bank
	// are exceeded").
	minBankRows = 2
	minBankCols = 2
	// minDeviceCEs: a device participates in a multi-device fault only
	// when it logged at least this many CEs (guards against stray noise).
	minDeviceCEs = 2
)

// Class is the classification outcome for one DIMM.
type Class struct {
	// Mode is the highest component-level fault mode found on any device
	// (bank > row > column > cell > sporadic).
	Mode ComponentMode
	// MultiDevice reports whether two or more devices show structured
	// errors.
	MultiDevice bool
	// FaultyDevices is the number of devices with at least
	// minDeviceCEs CEs.
	FaultyDevices int
	// Per-level fault counts across the DIMM (features for the models).
	FaultyCells, FaultyRows, FaultyCols, FaultyBanks int
}

// ComponentMode is the component-level dimension of the classification.
type ComponentMode int

// Component-level classes, ordered by severity.
const (
	CompSporadic ComponentMode = iota
	CompCell
	CompColumn
	CompRow
	CompBank
)

// String implements fmt.Stringer.
func (c ComponentMode) String() string {
	switch c {
	case CompSporadic:
		return "sporadic"
	case CompCell:
		return "cell"
	case CompColumn:
		return "column"
	case CompRow:
		return "row"
	case CompBank:
		return "bank"
	default:
		return "unknown"
	}
}

// bankKey identifies a bank on a device; rowKey/colKey identify a row or
// column within a bank.
type bankKey struct{ rank, dev, bank int }
type rowKey struct {
	bankKey
	row int
}
type colKey struct {
	bankKey
	col int
}
type cellKey struct {
	bankKey
	row, col int
}

// Classify runs threshold classification over a set of CE events (already
// restricted to whatever window the caller wants).
func Classify(ces []trace.Event) Class {
	cellCEs := map[cellKey]int{}
	rowCols := map[rowKey]map[int]struct{}{}
	colRows := map[colKey]map[int]struct{}{}
	devCEs := map[int]int{}

	for _, e := range ces {
		a := e.Addr
		bk := bankKey{a.Rank, a.Device, a.Bank}
		ck := cellKey{bk, a.Row, a.Column}
		rk := rowKey{bk, a.Row}
		lk := colKey{bk, a.Column}
		cellCEs[ck]++
		if rowCols[rk] == nil {
			rowCols[rk] = map[int]struct{}{}
		}
		rowCols[rk][a.Column] = struct{}{}
		if colRows[lk] == nil {
			colRows[lk] = map[int]struct{}{}
		}
		colRows[lk][a.Row] = struct{}{}
		devCEs[a.Device]++
	}

	var c Class
	for _, n := range cellCEs {
		if n >= minCellCEs {
			c.FaultyCells++
		}
	}
	// Faulty rows/columns, tallied per bank so the bank rule can require
	// both thresholds inside the same bank.
	bankFaultyRows := map[bankKey]int{}
	bankFaultyCols := map[bankKey]int{}
	for rk, cols := range rowCols {
		if len(cols) >= minRowCols {
			c.FaultyRows++
			bankFaultyRows[rk.bankKey]++
		}
	}
	for lk, rows := range colRows {
		if len(rows) >= minColRows {
			c.FaultyCols++
			bankFaultyCols[lk.bankKey]++
		}
	}
	for bk, nr := range bankFaultyRows {
		if nr >= minBankRows && bankFaultyCols[bk] >= minBankCols {
			c.FaultyBanks++
		}
	}
	for _, n := range devCEs {
		if n >= minDeviceCEs {
			c.FaultyDevices++
		}
	}
	return c.finish()
}

// finish derives MultiDevice and Mode from the tallies: the one place the
// bank > row > column > cell > sporadic ladder is written, shared by the
// batch oracle above and the stateful classifier (Incremental.Class).
func (c Class) finish() Class {
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
