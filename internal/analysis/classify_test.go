package analysis

import (
	"testing"

	"memfp/internal/dram"
	"memfp/internal/trace"
)

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

// Classify is the batch reference for the §V rules: it classifies a set of
// CE events from scratch, with struct-keyed maps and no shared state.
// Production code classifies through Incremental, which
// TestIncrementalMatchesClassify and TestSlidingMatchesClassify hold to
// this function.
func Classify(ces []trace.Event) Class {
	cellCEs := map[cellKey]int{}
	rowCols := map[rowKey]map[int]struct{}{}
	colRows := map[colKey]map[int]struct{}{}
	devCEs := map[int]int{}

	for _, e := range ces {
		a := e.Addr
		row, col := int(a.Row), int(a.Column)
		bk := bankKey{int(a.Rank), int(a.Device), int(a.Bank)}
		ck := cellKey{bk, row, col}
		rk := rowKey{bk, row}
		lk := colKey{bk, col}
		cellCEs[ck]++
		if rowCols[rk] == nil {
			rowCols[rk] = map[int]struct{}{}
		}
		rowCols[rk][col] = struct{}{}
		if colRows[lk] == nil {
			colRows[lk] = map[int]struct{}{}
		}
		colRows[lk][row] = struct{}{}
		devCEs[int(a.Device)]++
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

func ce(dev, bank, row, col int) trace.Event {
	return trace.Event{
		Type: trace.TypeCE,
		Addr: dram.Addr{Rank: 0, Device: uint8(dev), Bank: uint8(bank), Row: uint32(row), Column: uint16(col)},
	}
}

func TestClassifyEmpty(t *testing.T) {
	c := Classify(nil)
	if c.Mode != CompSporadic || c.MultiDevice {
		t.Errorf("empty input: %+v", c)
	}
}

func TestClassifyCellFault(t *testing.T) {
	var ces []trace.Event
	for i := 0; i < 5; i++ {
		ces = append(ces, ce(0, 1, 100, 200))
	}
	c := Classify(ces)
	if c.Mode != CompCell {
		t.Errorf("mode %v, want cell", c.Mode)
	}
	if c.FaultyCells != 1 || c.MultiDevice {
		t.Errorf("%+v", c)
	}
}

func TestClassifyRowFault(t *testing.T) {
	var ces []trace.Event
	for col := 0; col < 6; col++ {
		ces = append(ces, ce(2, 3, 500, col*10))
	}
	c := Classify(ces)
	if c.Mode != CompRow {
		t.Errorf("mode %v, want row", c.Mode)
	}
	if c.FaultyRows != 1 {
		t.Errorf("faulty rows %d, want 1", c.FaultyRows)
	}
}

func TestClassifyColumnFault(t *testing.T) {
	var ces []trace.Event
	for row := 0; row < 6; row++ {
		ces = append(ces, ce(2, 3, row*7, 123))
	}
	c := Classify(ces)
	if c.Mode != CompColumn {
		t.Errorf("mode %v, want column", c.Mode)
	}
}

func TestClassifyBankFault(t *testing.T) {
	var ces []trace.Event
	// Two faulty rows and two faulty columns in the same bank.
	for col := 0; col < 4; col++ {
		ces = append(ces, ce(1, 5, 10, col*3))
		ces = append(ces, ce(1, 5, 20, col*5+1))
	}
	for row := 0; row < 4; row++ {
		ces = append(ces, ce(1, 5, 100+row*9, 700))
		ces = append(ces, ce(1, 5, 200+row*11, 800))
	}
	c := Classify(ces)
	if c.Mode != CompBank {
		t.Errorf("mode %v, want bank (%+v)", c.Mode, c)
	}
}

func TestClassifyRowNotBank(t *testing.T) {
	// One faulty row plus scattered noise must NOT classify as bank.
	var ces []trace.Event
	for col := 0; col < 30; col++ {
		ces = append(ces, ce(0, 2, 999, col))
	}
	for i := 0; i < 10; i++ {
		ces = append(ces, ce(0, 2, 1000+i*37, 500+i*13))
	}
	c := Classify(ces)
	if c.Mode != CompRow {
		t.Errorf("mode %v, want row (bank overtriggered: %+v)", c.Mode, c)
	}
}

func TestClassifyMultiDevice(t *testing.T) {
	var ces []trace.Event
	for i := 0; i < 5; i++ {
		ces = append(ces, ce(0, 1, 10, i*5))
		ces = append(ces, ce(7, 2, 20, i*5))
	}
	c := Classify(ces)
	if !c.MultiDevice || c.FaultyDevices != 2 {
		t.Errorf("multi-device not detected: %+v", c)
	}
}

func TestClassifySingleStrayNotMultiDevice(t *testing.T) {
	var ces []trace.Event
	for i := 0; i < 10; i++ {
		ces = append(ces, ce(0, 1, 10, i*3))
	}
	ces = append(ces, ce(9, 4, 77, 88)) // one stray CE on another device
	c := Classify(ces)
	if c.MultiDevice {
		t.Errorf("one stray CE should not make multi-device: %+v", c)
	}
}

func TestClassifyPriorityOrder(t *testing.T) {
	// A bank fault plus separate cell fault: bank wins.
	var ces []trace.Event
	for col := 0; col < 4; col++ {
		ces = append(ces, ce(1, 5, 10, col*3))
		ces = append(ces, ce(1, 5, 20, col*5+1))
	}
	for row := 0; row < 4; row++ {
		ces = append(ces, ce(1, 5, 100+row*9, 700))
		ces = append(ces, ce(1, 5, 200+row*11, 800))
	}
	ces = append(ces, ce(3, 0, 1, 1), ce(3, 0, 1, 1), ce(3, 0, 1, 1))
	c := Classify(ces)
	if c.Mode != CompBank {
		t.Errorf("priority: got %v, want bank", c.Mode)
	}
	if c.FaultyCells < 1 {
		t.Errorf("cell fault lost: %+v", c)
	}
}

func TestComponentModeStrings(t *testing.T) {
	for _, m := range []ComponentMode{CompSporadic, CompCell, CompColumn, CompRow, CompBank} {
		if m.String() == "" || m.String() == "unknown" {
			t.Errorf("mode %d has bad string", int(m))
		}
	}
}
