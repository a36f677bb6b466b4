package analysis

import (
	"memfp/internal/dram"
	"memfp/internal/trace"
)

// Incremental maintains the §V threshold classification over a multiset
// of CE events that changes one event at a time: Add folds an event in,
// Remove folds one out. It is the only stateful classifier — the feature
// extractor keeps one over each DIMM's lifetime prefix (Adds only) and
// one over its sliding observation window (Add on entry, Remove on
// expiry). Every §V rule is a threshold on a count, so an update
// moves each tally by the difference the changed count makes to its rule
// (crossed), whichever way the count moved: the rules are written once,
// in addCell, for insertion, removal and bulk rebuild alike. For any
// multiset, however it was reached, Class() is identical to classifying the
// same events from scratch (the tests hold it to such a batch reference,
// Classify in classify_test.go; the thresholds are all >= 1), and the
// state is a function of the per-cell counts alone — which is all
// AppendBinary writes.
//
// Beyond Class, it tracks the distinct-structure counts and
// the per-cell CE maximum that the feature extractor needs; these too are
// exact after a Remove.
//
// Every map but devCEs is keyed by one uint64, dram.Addr.CellID: the
// address packed rank 8 bits, device 8, bank 8, row 24, column 16, rank
// highest. A row's key is its cells' IDs with the column field cleared, a
// column's with the row field cleared, a bank's with both. devCEs keys on
// the device index alone, as the §V device rule does. The decoders of foreign
// bytes refuse addresses outside those widths, so no two cells share a key.
type Incremental struct {
	cellCEs map[uint64]int
	// The number of distinct columns hit in each row and rows hit in each
	// column. A row's distinct columns are exactly its cells held in
	// cellCEs, so the count moves by one when a cell appears or disappears.
	rowCols map[uint64]int
	colRows map[uint64]int
	devCEs  map[int]int
	banks   map[uint64]bankTally
	// cellsAt[n] is the number of cells holding exactly n CEs — what keeps
	// maxCellCEs exact when the fullest cell loses an event — for n below
	// denseCounts; cellsAbove holds the rare fuller counts, so no foreign
	// count sizes the slice. countsHeld is how many counts are nonzero.
	cellsAt    []int
	cellsAbove map[int]int
	countsHeld int

	faultyCells, faultyRows, faultyCols, faultyBanks, faultyDevices int
	maxCellCEs                                                      int
	events                                                          int
}

// bankTally is what the bank rule and DistinctBanks need of one bank.
type bankTally struct{ cells, faultyRows, faultyCols int }

// faulty evaluates the §V bank rule as 0 or 1.
func (b bankTally) faulty() int {
	if b.faultyRows >= minBankRows && b.faultyCols >= minBankCols {
		return 1
	}
	return 0
}

// crossed is the change in "count >= th" as a count moves from old to
// now: +1 when the rule starts to hold, -1 when it stops, else 0.
func crossed(old, now, th int) int {
	switch {
	case old < th && now >= th:
		return 1
	case old >= th && now < th:
		return -1
	}
	return 0
}

// denseCounts bounds the cell counts cellsAt indexes.
const denseCounts = 1 << 10

// move moves the count under k by n and returns it before and after. A
// count reaching zero is deleted, so len(m) is the number of keys held.
func move[K comparable](m map[K]int, k K, n int) (old, now int) {
	old = m[k]
	if now = old + n; now == 0 {
		delete(m, k)
	} else {
		m[k] = now
	}
	return old, now
}

// tallyCells moves the number of cells holding exactly c CEs by n and
// returns it.
func (x *Incremental) tallyCells(c, n int) (now int) {
	if c < denseCounts {
		if c >= len(x.cellsAt) {
			x.cellsAt = append(x.cellsAt, make([]int, c+1-len(x.cellsAt))...)
		}
		x.cellsAt[c] += n
		now = x.cellsAt[c]
	} else {
		if x.cellsAbove == nil {
			x.cellsAbove = map[int]int{}
		}
		_, now = move(x.cellsAbove, c, n)
	}
	x.countsHeld += crossed(now-n, now, 1)
	return now
}

// NewIncremental returns an empty classifier.
func NewIncremental() *Incremental {
	return &Incremental{
		cellCEs: map[uint64]int{},
		rowCols: map[uint64]int{},
		colRows: map[uint64]int{},
		devCEs:  map[int]int{},
		banks:   map[uint64]bankTally{},
	}
}

// Add folds one CE event into the classification.
func (x *Incremental) Add(e trace.Event) { x.addCell(e.Addr.CellID(), 1) }

// Remove folds one CE event out of the classification. The event must
// currently be in it (every Remove pairs with an earlier Add).
func (x *Incremental) Remove(e trace.Event) { x.addCell(e.Addr.CellID(), -1) }

// Clone returns a deep copy: the copy and the original may Add and Remove
// independently afterwards. Used by the feature extractor to seed
// per-cursor lifetime state from a shared compaction fold without the
// cursors aliasing each other's maps.
func (x *Incremental) Clone() *Incremental {
	c := NewIncremental()
	for k, n := range x.cellCEs {
		c.addCell(k, n)
	}
	return c
}

// addCell moves cell k's CE count by n (-1 to remove; the count must stay
// >= 0) and settles every tally that depends on it.
func (x *Incremental) addCell(k uint64, n int) {
	old, now := move(x.cellCEs, k, n)
	x.events += n
	x.faultyCells += crossed(old, now, minCellCEs)

	d, dn := move(x.devCEs, dram.CellAddr(k).Device, n)
	x.faultyDevices += crossed(d, dn, minDeviceCEs)

	if old > 0 && x.tallyCells(old, -1) == 0 && old == x.maxCellCEs {
		x.maxCellCEs = now // no cell is left above now: a removal moves a count by one
	}
	if now > 0 {
		x.tallyCells(now, 1)
		x.maxCellCEs = max(x.maxCellCEs, now)
	}

	if (old == 0) == (now == 0) {
		return
	}
	// The cell appeared or disappeared: its row gains or loses a distinct
	// column, its column a distinct row, its bank a cell.
	sign := 1
	if now == 0 {
		sign = -1
	}
	bank := k &^ (dram.RowIDMask | dram.ColumnIDMask)
	b := x.banks[bank]
	was := b.faulty()
	b.cells += sign
	cols, colsNow := move(x.rowCols, k&^dram.ColumnIDMask, sign)
	dr := crossed(cols, colsNow, minRowCols)
	rows, rowsNow := move(x.colRows, k&^dram.RowIDMask, sign)
	dc := crossed(rows, rowsNow, minColRows)
	b.faultyRows += dr
	b.faultyCols += dc
	x.faultyRows += dr
	x.faultyCols += dc
	x.faultyBanks += b.faulty() - was
	if b.cells == 0 {
		delete(x.banks, bank)
	} else {
		x.banks[bank] = b
	}
}

// Class returns the classification of the current contents.
func (x *Incremental) Class() Class {
	return Class{
		FaultyCells:   x.faultyCells,
		FaultyRows:    x.faultyRows,
		FaultyCols:    x.faultyCols,
		FaultyBanks:   x.faultyBanks,
		FaultyDevices: x.faultyDevices,
	}.finish()
}

// DistinctBanks returns the number of distinct (rank, device, bank)
// triples currently held.
func (x *Incremental) DistinctBanks() int { return len(x.banks) }

// DistinctRows returns the number of distinct rows (within their banks)
// currently held.
func (x *Incremental) DistinctRows() int { return len(x.rowCols) }

// DistinctCols returns the number of distinct columns (within their
// banks) currently held.
func (x *Incremental) DistinctCols() int { return len(x.colRows) }

// MaxCellCEs returns the largest CE count currently held by any single
// cell.
func (x *Incremental) MaxCellCEs() int { return x.maxCellCEs }

// MemEstimate returns an O(1) rough estimate of the classifier's heap
// footprint in bytes: the memory budget's charge for it. The constants are
// frozen on purpose — fitted to an older layout (a set per row and per
// column, struct keys of 32–40 bytes), they over-charge, and by more since
// the maps key on one packed uint64 (16-byte slots where there were 40–48),
// but the engine's eviction and rehydration counts rest on them;
// re-fitting them means re-sizing the budgeted benchmark workload, which
// ROADMAP.md plans as a later two-step recalibration. The estimate need
// only grow with the state.
func (x *Incremental) MemEstimate() int64 {
	const (
		mapEntry = 48 // bucket share + key/value storage, amortized
		innerMap = 96 // charged per row and per column
		member   = 16 // charged twice per cell
	)
	n := int64(len(x.cellCEs)+len(x.devCEs)+len(x.banks)+x.countsHeld) * mapEntry
	n += int64(len(x.rowCols)+len(x.colRows)) * (mapEntry + innerMap)
	n += int64(len(x.cellCEs)) * 2 * member
	return n + 256 // struct + map headers
}
