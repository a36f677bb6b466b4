package analysis

import (
	"memfp/internal/dram"
	"memfp/internal/trace"
)

// Incremental maintains the §V threshold classification over two
// multisets of CE events, its lanes, that change one event at a time. The
// lifetime lane is what Add and Remove fold events into and out of, and
// what Class, the Distinct* counts, MaxCellCEs, MemEstimate, Clone and
// AppendBinary read; the window lane is what AddWindow and RemoveWindow
// move and WindowClass and WindowMemEstimate read. The feature extractor
// keeps one per DIMM: the lifetime lane over the DIMM's lifetime prefix
// (Adds only), the window lane over its sliding observation window (Add on
// entry, Remove on expiry). Every CE in the window is also in the
// lifetime, so the window's keys always repeat the lifetime's; the lanes
// therefore share one set of maps, each key holding a count per lane
// (pair, bankPair) and going only when both lanes hold none.
//
// Every §V rule is a threshold on a count, so an update moves each of its
// lane's tallies by the difference the changed count makes to its rule
// (crossed), whichever way the count moved: the rules are written once, in
// addCell, for insertion, removal and bulk rebuild alike. For any
// multiset, however it was reached, a lane's class is identical to
// classifying the same events from scratch (the tests hold it to such a
// batch reference, Classify in classify_test.go; the thresholds are all
// >= 1), and a lane's state is a function of its per-cell counts alone —
// which is all AppendBinary writes of the lifetime lane. A lane holds at
// most math.MaxInt32 CEs: its counts are int32.
//
// Beyond the class, each lane tracks the distinct-structure counts and the
// per-cell CE maximum that the feature extractor needs; these too are
// exact after a Remove.
//
// Every map but devCEs is keyed by one uint64, dram.Addr.CellID: the
// address packed rank 8 bits, device 8, bank 8, row 24, column 16, rank
// highest. A row's key is its cells' IDs with the column field cleared, a
// column's with the row field cleared, a bank's with both. devCEs keys on
// the device index alone, as the §V device rule does. The decoders of foreign
// bytes refuse addresses outside those widths, so no two cells share a key.
type Incremental struct {
	cellCEs map[uint64]pair
	// The number of distinct columns hit in each row and rows hit in each
	// column. A row's distinct columns are exactly its cells held in
	// cellCEs, so the count moves by one when a cell appears or disappears.
	rowCols map[uint64]pair
	colRows map[uint64]pair
	devCEs  map[int]pair // an int key takes the maps' 64-bit fast path
	banks   map[uint64]bankPair
	lanes   [2]tally
}

// lane indexes one of a classifier's two multisets.
type lane int

const (
	lifetime lane = iota
	window
)

// pair is one key's count in each lane.
type pair [2]int32

// bankPair is one bank's tally in each lane.
type bankPair [2]bankTally

// tally is one lane's state beyond its counts in the shared maps.
type tally struct {
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
	// The keys this lane holds a nonzero count under, map by map: the
	// distinct-structure counts and what MemEstimate charges.
	cells, rows, cols, devices, banks int
}

// bankTally is what the bank rule and DistinctBanks need of one bank.
type bankTally struct{ cells, faultyRows, faultyCols int32 }

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

// move moves lane l's count under k by n and returns it before and after.
// A key both lanes count zero under is deleted.
func move[K comparable](m map[K]pair, k K, l lane, n int) (old, now int) {
	p := m[k]
	old = int(p[l])
	now = old + n
	if p[l] = int32(now); p == (pair{}) {
		delete(m, k)
	} else {
		m[k] = p
	}
	return old, now
}

// tallyCells moves the number of cells holding exactly c CEs by n and
// returns it.
func (t *tally) tallyCells(c, n int) (now int) {
	if c < denseCounts {
		if c >= len(t.cellsAt) {
			t.cellsAt = append(t.cellsAt, make([]int, c+1-len(t.cellsAt))...)
		}
		t.cellsAt[c] += n
		now = t.cellsAt[c]
	} else {
		if t.cellsAbove == nil {
			t.cellsAbove = map[int]int{}
		}
		if now = t.cellsAbove[c] + n; now == 0 {
			delete(t.cellsAbove, c)
		} else {
			t.cellsAbove[c] = now
		}
	}
	t.countsHeld += crossed(now-n, now, 1)
	return now
}

// NewIncremental returns an empty classifier.
func NewIncremental() *Incremental {
	return &Incremental{
		cellCEs: map[uint64]pair{},
		rowCols: map[uint64]pair{},
		colRows: map[uint64]pair{},
		devCEs:  map[int]pair{},
		banks:   map[uint64]bankPair{},
	}
}

// Add folds one CE event into the lifetime classification.
func (x *Incremental) Add(e trace.Event) { x.addCell(lifetime, e.Addr.CellID(), 1) }

// Remove folds one CE event out of the lifetime classification. The event
// must currently be in it (every Remove pairs with an earlier Add).
func (x *Incremental) Remove(e trace.Event) { x.addCell(lifetime, e.Addr.CellID(), -1) }

// AddWindow folds one CE event into the window classification.
func (x *Incremental) AddWindow(e trace.Event) { x.addCell(window, e.Addr.CellID(), 1) }

// RemoveWindow folds one CE event out of the window classification. The
// event must currently be in it (every RemoveWindow pairs with an earlier
// AddWindow).
func (x *Incremental) RemoveWindow(e trace.Event) { x.addCell(window, e.Addr.CellID(), -1) }

// Clone returns a deep copy of the lifetime lane, with an empty window
// lane: the copy and the original may change independently afterwards.
// Used by the feature extractor to seed per-cursor lifetime state from a
// shared compaction fold without the cursors aliasing each other's maps.
func (x *Incremental) Clone() *Incremental {
	c := NewIncremental()
	for k, p := range x.cellCEs {
		if p[lifetime] > 0 {
			c.addCell(lifetime, k, int(p[lifetime]))
		}
	}
	return c
}

// addCell moves cell k's CE count in lane l by n (-1 to remove; the count
// must stay >= 0) and settles every tally of the lane that depends on it.
func (x *Incremental) addCell(l lane, k uint64, n int) {
	t := &x.lanes[l]
	old, now := move(x.cellCEs, k, l, n)
	t.events += n
	t.faultyCells += crossed(old, now, minCellCEs)

	d, dn := move(x.devCEs, int(dram.CellAddr(k).Device), l, n)
	t.faultyDevices += crossed(d, dn, minDeviceCEs)
	t.devices += crossed(d, dn, 1)

	if old > 0 && t.tallyCells(old, -1) == 0 && old == t.maxCellCEs {
		t.maxCellCEs = now // no cell is left above now: a removal moves a count by one
	}
	if now > 0 {
		t.tallyCells(now, 1)
		t.maxCellCEs = max(t.maxCellCEs, now)
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
	t.cells += sign
	bank := k &^ (dram.RowIDMask | dram.ColumnIDMask)
	bp := x.banks[bank]
	b := &bp[l]
	was := b.faulty()
	b.cells += int32(sign)
	t.banks += crossed(int(b.cells)-sign, int(b.cells), 1)
	cols, colsNow := move(x.rowCols, k&^dram.ColumnIDMask, l, sign)
	dr := crossed(cols, colsNow, minRowCols)
	t.rows += crossed(cols, colsNow, 1)
	rows, rowsNow := move(x.colRows, k&^dram.RowIDMask, l, sign)
	dc := crossed(rows, rowsNow, minColRows)
	t.cols += crossed(rows, rowsNow, 1)
	b.faultyRows += int32(dr)
	b.faultyCols += int32(dc)
	t.faultyRows += dr
	t.faultyCols += dc
	t.faultyBanks += b.faulty() - was
	if bp == (bankPair{}) {
		delete(x.banks, bank)
	} else {
		x.banks[bank] = bp
	}
}

// Class returns the classification of the lifetime lane.
func (x *Incremental) Class() Class { return x.lanes[lifetime].class() }

// WindowClass returns the classification of the window lane.
func (x *Incremental) WindowClass() Class { return x.lanes[window].class() }

func (t *tally) class() Class {
	return Class{
		FaultyCells:   t.faultyCells,
		FaultyRows:    t.faultyRows,
		FaultyCols:    t.faultyCols,
		FaultyBanks:   t.faultyBanks,
		FaultyDevices: t.faultyDevices,
	}.finish()
}

// DistinctBanks returns the number of distinct (rank, device, bank)
// triples the lifetime lane holds.
func (x *Incremental) DistinctBanks() int { return x.lanes[lifetime].banks }

// DistinctRows returns the number of distinct rows (within their banks)
// the lifetime lane holds.
func (x *Incremental) DistinctRows() int { return x.lanes[lifetime].rows }

// DistinctCols returns the number of distinct columns (within their
// banks) the lifetime lane holds.
func (x *Incremental) DistinctCols() int { return x.lanes[lifetime].cols }

// MaxCellCEs returns the largest CE count any single cell holds in the
// lifetime lane.
func (x *Incremental) MaxCellCEs() int { return x.lanes[lifetime].maxCellCEs }

// MemEstimate returns an O(1) rough estimate of the lifetime lane's heap
// footprint in bytes: the memory budget's charge for it. The constants are
// frozen on purpose — fitted to an older layout (a set per row and per
// column, struct keys of 32–40 bytes, and a classifier of its own for each
// lane), they over-charge: by more since the maps key on one packed uint64
// (16-byte slots where there were 40–48), and by more again for the window
// lane, whose keys share the lifetime lane's slots and are charged as if
// they had their own. But the engine's eviction and rehydration counts
// rest on them; re-fitting them means re-sizing the budgeted benchmark
// workload, which ROADMAP.md plans as a later two-step recalibration. The
// estimate need only grow with the state. It is computed from the lane's
// own key counts, never from the shared maps' lengths, so one lane's
// charge does not move with the other's contents.
func (x *Incremental) MemEstimate() int64 { return x.lanes[lifetime].memEstimate() }

// WindowMemEstimate is MemEstimate's charge for the window lane, as if it
// were a classifier of its own.
func (x *Incremental) WindowMemEstimate() int64 { return x.lanes[window].memEstimate() }

func (t *tally) memEstimate() int64 {
	const (
		mapEntry = 48 // bucket share + key/value storage, amortized
		innerMap = 96 // charged per row and per column
		member   = 16 // charged twice per cell
	)
	n := int64(t.cells+t.devices+t.banks+t.countsHeld) * mapEntry
	n += int64(t.rows+t.cols) * (mapEntry + innerMap)
	n += int64(t.cells) * 2 * member
	return n + 256 // struct + map headers
}
