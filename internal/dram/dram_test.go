package dram

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultGeometryX4(t *testing.T) {
	g := DefaultGeometry(X4)
	if g.DevicesPerRank != 16 || g.ECCDevices != 2 {
		t.Errorf("x4 rank: %d data + %d ecc devices, want 16+2", g.DevicesPerRank, g.ECCDevices)
	}
	if g.TotalDevices() != 18 {
		t.Errorf("x4 total devices %d, want 18", g.TotalDevices())
	}
	// 16 data devices × 4 DQ = 64 data bits per beat, 2 ECC × 4 = 8.
	if g.DevicesPerRank*int(g.Width) != 64 {
		t.Errorf("data bits per beat: %d", g.DevicesPerRank*int(g.Width))
	}
	if g.ECCDevices*int(g.Width) != 8 {
		t.Errorf("ecc bits per beat: %d", g.ECCDevices*int(g.Width))
	}
}

func TestDefaultGeometryX8(t *testing.T) {
	g := DefaultGeometry(X8)
	if g.TotalDevices() != 9 {
		t.Errorf("x8 total devices %d, want 9", g.TotalDevices())
	}
	if g.Banks() != 16 {
		t.Errorf("banks %d, want 16", g.Banks())
	}
}

func TestGeometryPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unsupported width")
		}
	}()
	DefaultGeometry(Width(3))
}

func TestCellIDUnique(t *testing.T) {
	g := DefaultGeometry(X4)
	seen := map[uint64]Addr{}
	// Sample corners and a grid; all must be distinct.
	for _, rank := range []int{0, 1} {
		for _, dev := range []int{0, 7, 17} {
			for _, bank := range []int{0, 15} {
				for _, row := range []int{0, 1, g.Rows - 1} {
					for _, col := range []int{0, g.Columns - 1} {
						a := Addr{rank, dev, bank, row, col}
						id := a.CellID()
						if prev, ok := seen[id]; ok {
							t.Fatalf("CellID collision: %v and %v → %d", prev, a, id)
						}
						seen[id] = a
					}
				}
			}
		}
	}
}

func TestCellIDInjectiveQuick(t *testing.T) {
	g := DefaultGeometry(X4)
	// Any uint16 per field, not only the geometry's: the cell-ID fields
	// are wider than DefaultGeometry needs, and what they hold is what
	// must not collide.
	g.Ranks, g.Rows, g.Columns = 1<<8, 1<<16, 1<<16
	f := func(r1, d1, b1, w1, c1, r2, d2, b2, w2, c2 uint16) bool {
		a1 := Addr{int(r1) % g.Ranks, int(d1) % g.TotalDevices(), int(b1) % g.Banks(),
			int(w1) % g.Rows, int(c1) % g.Columns}
		a2 := Addr{int(r2) % g.Ranks, int(d2) % g.TotalDevices(), int(b2) % g.Banks(),
			int(w2) % g.Rows, int(c2) % g.Columns}
		if CellAddr(a1.CellID()) != a1 || CellAddr(a2.CellID()) != a2 {
			return false
		}
		if a1 == a2 {
			return a1.CellID() == a2.CellID()
		}
		return a1.CellID() != a2.CellID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCellIDFields checks the cell-ID widths: DefaultGeometry fits for both
// device widths, a field one past its width or negative is refused by
// name, and ascending IDs order cells as (rank, device, bank, row, column)
// does.
func TestCellIDFields(t *testing.T) {
	for _, w := range []Width{X4, X8} {
		g := DefaultGeometry(w)
		top := Addr{g.Ranks - 1, g.TotalDevices() - 1, g.Banks() - 1, g.Rows - 1, g.Columns - 1}
		if err := top.CheckFits(); err != nil {
			t.Errorf("%v geometry does not fit the cell-ID fields: %v", w, err)
		}
	}
	widest := CellAddr(^uint64(0))
	if widest != (Addr{1<<8 - 1, 1<<8 - 1, 1<<8 - 1, 1<<24 - 1, 1<<16 - 1}) {
		t.Fatalf("all-ones cell ID unpacks to %v", widest)
	}
	if err := widest.CheckFits(); err != nil || widest.CellID() != ^uint64(0) {
		t.Fatalf("widest address: %v, ID %#x", err, widest.CellID())
	}
	for _, c := range []struct {
		a    Addr
		want string
	}{
		{Addr{Rank: 1 << 8}, "rank 256 outside its 8-bit"},
		{Addr{Device: 1 << 8}, "device 256 outside its 8-bit"},
		{Addr{Bank: 1 << 8}, "bank 256 outside its 8-bit"},
		{Addr{Row: 1 << 24}, "row 16777216 outside its 24-bit"},
		{Addr{Column: 1 << 16}, "column 65536 outside its 16-bit"},
		{Addr{Column: -1}, "column -1 outside its 16-bit"},
		{Addr{Rank: -3, Row: 1 << 30}, "rank -3 outside"},
	} {
		if err := c.a.CheckFits(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CheckFits(%v) = %v, want %q", c.a, err, c.want)
		}
	}
	lo, hi := Addr{0, 1, 1 << 7, 1<<24 - 1, 1<<16 - 1}, Addr{0, 1, 1<<7 + 1, 0, 0}
	if lo.CellID() >= hi.CellID() {
		t.Errorf("%v packs above %v", lo, hi)
	}
}

func TestWidthString(t *testing.T) {
	if X4.String() != "x4" || X8.String() != "x8" {
		t.Errorf("width strings: %s %s", X4, X8)
	}
}
