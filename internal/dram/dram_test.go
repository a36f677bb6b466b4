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
						a := mustAddr(t, rank, dev, bank, row, col)
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
		a1 := mustAddr(t, int(r1)%g.Ranks, int(d1)%g.TotalDevices(), int(b1)%g.Banks(),
			int(w1)%g.Rows, int(c1)%g.Columns)
		a2 := mustAddr(t, int(r2)%g.Ranks, int(d2)%g.TotalDevices(), int(b2)%g.Banks(),
			int(w2)%g.Rows, int(c2)%g.Columns)
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
// device widths, MakeAddr refuses a field one past its width or negative
// by name, and ascending IDs order cells as (rank, device, bank, row,
// column) does.
func TestCellIDFields(t *testing.T) {
	for _, w := range []Width{X4, X8} {
		g := DefaultGeometry(w)
		if _, err := MakeAddr(g.Ranks-1, g.TotalDevices()-1, g.Banks()-1, g.Rows-1, g.Columns-1); err != nil {
			t.Errorf("%v geometry does not fit the cell-ID fields: %v", w, err)
		}
	}
	widest := CellAddr(^uint64(0))
	if widest != mustAddr(t, 1<<8-1, 1<<8-1, 1<<8-1, 1<<24-1, 1<<16-1) || widest.CellID() != ^uint64(0) {
		t.Fatalf("all-ones cell ID unpacks to %v, ID %#x", widest, widest.CellID())
	}
	for _, c := range []struct {
		f    [5]int // rank, device, bank, row, column
		want string
	}{
		{[5]int{1 << 8, 0, 0, 0, 0}, "rank 256 outside its 8-bit"},
		{[5]int{0, 1 << 8, 0, 0, 0}, "device 256 outside its 8-bit"},
		{[5]int{0, 0, 1 << 8, 0, 0}, "bank 256 outside its 8-bit"},
		{[5]int{0, 0, 0, 1 << 24, 0}, "row 16777216 outside its 24-bit"},
		{[5]int{0, 0, 0, 0, 1 << 16}, "column 65536 outside its 16-bit"},
		{[5]int{0, 0, 0, 0, -1}, "column -1 outside its 16-bit"},
		{[5]int{-3, 0, 0, 1 << 30, 0}, "rank -3 outside"},
	} {
		if a, err := MakeAddr(c.f[0], c.f[1], c.f[2], c.f[3], c.f[4]); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("MakeAddr%v = %v, %v, want %q", c.f, a, err, c.want)
		}
	}
	lo, hi := mustAddr(t, 0, 1, 1<<7, 1<<24-1, 1<<16-1), mustAddr(t, 0, 1, 1<<7+1, 0, 0)
	if lo.CellID() >= hi.CellID() {
		t.Errorf("%v packs above %v", lo, hi)
	}
}

// mustAddr is MakeAddr for fields a test knows to fit.
func mustAddr(t testing.TB, rank, device, bank, row, column int) Addr {
	t.Helper()
	a, err := MakeAddr(rank, device, bank, row, column)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestWidthString(t *testing.T) {
	if X4.String() != "x4" || X8.String() != "x8" {
		t.Errorf("width strings: %s %s", X4, X8)
	}
}
