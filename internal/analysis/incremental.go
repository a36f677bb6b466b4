package analysis

import (
	"memfp/internal/trace"
)

// Incremental maintains the §V threshold classification over a multiset
// of CE events that changes one event at a time: Add folds an event in,
// Remove folds one out. It is the only stateful classifier — the feature
// extractor keeps one over each DIMM's lifetime prefix (Adds only) and
// one over its sliding observation window (Add on entry, Remove on
// expiry). Every rule in Classify is a threshold on a count, so an update
// moves each tally by the difference the changed count makes to its rule
// (crossed), whichever way the count moved: the rules are written once,
// in addCell, for insertion, removal and bulk rebuild alike. For any
// multiset, however it was reached, Class() is identical to Classify over
// the same events (thresholds must be >= 1, as all sane configurations
// are), and the state is a function of the per-cell counts alone — which
// is all AppendBinary writes.
//
// Beyond Classify's outputs, it tracks the distinct-structure counts and
// the per-cell CE maximum that the feature extractor needs; these too are
// exact after a Remove.
type Incremental struct {
	th Thresholds

	cellCEs map[cellKey]int
	// The distinct columns hit in each row and rows hit in each column.
	// Plain sets suffice under Remove: a column's multiplicity inside a
	// row is that cell's count in cellCEs, so membership changes exactly
	// when a cell appears or disappears.
	rowCols map[rowKey]map[int]struct{}
	colRows map[colKey]map[int]struct{}
	devCEs  map[int]int
	banks   map[bankKey]bankTally
	// cellsAt[n] is the number of cells holding exactly n CEs: what keeps
	// maxCellCEs exact when the fullest cell loses an event.
	cellsAt map[int]int

	faultyCells, faultyRows, faultyCols, faultyBanks, faultyDevices int
	maxCellCEs                                                      int
	events                                                          int
}

// bankTally is what the bank rule and DistinctBanks need of one bank.
type bankTally struct{ cells, faultyRows, faultyCols int }

// faulty evaluates the §V bank rule as 0 or 1.
func (b bankTally) faulty(th *Thresholds) int {
	if b.faultyRows >= th.BankFaultyRows && b.faultyCols >= th.BankFaultyCols {
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

// setCount stores a count, keeping zero counts out of the map so a
// drained classifier holds no entries.
func setCount[K comparable](m map[K]int, k K, n int) {
	if n == 0 {
		delete(m, k)
	} else {
		m[k] = n
	}
}

// flip adds (sign > 0) or removes member from the set under key and
// returns the set's size afterwards; emptied sets are dropped.
func flip[K comparable](sets map[K]map[int]struct{}, key K, member, sign int) int {
	set := sets[key]
	if sign > 0 {
		if set == nil {
			set = map[int]struct{}{}
			sets[key] = set
		}
		set[member] = struct{}{}
	} else if delete(set, member); len(set) == 0 {
		delete(sets, key)
	}
	return len(set)
}

// NewIncremental returns an empty classifier.
func NewIncremental(th Thresholds) *Incremental {
	return &Incremental{
		th:      th,
		cellCEs: map[cellKey]int{},
		rowCols: map[rowKey]map[int]struct{}{},
		colRows: map[colKey]map[int]struct{}{},
		devCEs:  map[int]int{},
		banks:   map[bankKey]bankTally{},
		cellsAt: map[int]int{},
	}
}

func cellOf(e trace.Event) cellKey {
	a := e.Addr
	return cellKey{bankKey{a.Rank, a.Device, a.Bank}, a.Row, a.Column}
}

// Add folds one CE event into the classification.
func (x *Incremental) Add(e trace.Event) { x.addCell(cellOf(e), 1) }

// Remove folds one CE event out of the classification. The event must
// currently be in it (every Remove pairs with an earlier Add).
func (x *Incremental) Remove(e trace.Event) { x.addCell(cellOf(e), -1) }

// Clone returns a deep copy: the copy and the original may Add and Remove
// independently afterwards. Used by the feature extractor to seed
// per-cursor lifetime state from a shared compaction fold without the
// cursors aliasing each other's maps.
func (x *Incremental) Clone() *Incremental {
	c := NewIncremental(x.th)
	for k, n := range x.cellCEs {
		c.addCell(k, n)
	}
	return c
}

// addCell moves cell k's CE count by n (negative to remove; the count
// must stay >= 0) and settles every tally that depends on it.
func (x *Incremental) addCell(k cellKey, n int) {
	th := &x.th
	old := x.cellCEs[k]
	now := old + n
	setCount(x.cellCEs, k, now)
	x.events += n
	x.faultyCells += crossed(old, now, th.CellCEs)

	d := x.devCEs[k.dev]
	setCount(x.devCEs, k.dev, d+n)
	x.faultyDevices += crossed(d, d+n, th.DeviceMinCEs)

	if old > 0 {
		setCount(x.cellsAt, old, x.cellsAt[old]-1)
	}
	if now > 0 {
		x.cellsAt[now]++
		x.maxCellCEs = max(x.maxCellCEs, now)
	}
	if n < 0 {
		for x.maxCellCEs > 0 && x.cellsAt[x.maxCellCEs] == 0 {
			x.maxCellCEs--
		}
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
	b := x.banks[k.bankKey]
	was := b.faulty(th)
	b.cells += sign
	cols := flip(x.rowCols, rowKey{k.bankKey, k.row}, k.col, sign)
	dr := crossed(cols-sign, cols, th.RowDistinctCols)
	rows := flip(x.colRows, colKey{k.bankKey, k.col}, k.row, sign)
	dc := crossed(rows-sign, rows, th.ColDistinctRows)
	b.faultyRows += dr
	b.faultyCols += dc
	x.faultyRows += dr
	x.faultyCols += dc
	x.faultyBanks += b.faulty(th) - was
	if b.cells == 0 {
		delete(x.banks, k.bankKey)
	} else {
		x.banks[k.bankKey] = b
	}
}

// Class returns the classification of the current contents; it matches
// Classify over the same events.
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
// footprint in bytes, for serving-side memory accounting. The constants
// approximate Go map entry overhead; exactness is not required — the
// budget enforcement only needs the estimate to grow with the state.
func (x *Incremental) MemEstimate() int64 {
	const (
		mapEntry = 48 // bucket share + key/value storage, amortized
		innerMap = 96 // hmap header + first bucket of a nested set
		member   = 16 // one entry of a nested set; each cell has one in its row's and one in its column's
	)
	n := int64(len(x.cellCEs)+len(x.devCEs)+len(x.banks)+len(x.cellsAt)) * mapEntry
	n += int64(len(x.rowCols)+len(x.colRows)) * (mapEntry + innerMap)
	n += int64(len(x.cellCEs)) * 2 * member
	return n + 256 // struct + map headers
}
