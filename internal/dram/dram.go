// Package dram models the physical organization of DDR4 memory as seen by
// the memory controller and the BMC error logs: the DIMM hierarchy
// (socket → channel → DIMM → rank → device → bank group → bank → row →
// column → cell) and the bit-level layout of a burst transfer (beats × DQ
// lines) from which ECC decodes error positions.
//
// The model follows Figure 1 of the paper: an x4 DDR4 chip drives 4 DQ
// lines over a burst of 8 beats; a rank of 18 such chips (16 data + 2 ECC)
// delivers 72 bits per beat (64 data + 8 ECC).
package dram

import "fmt"

// Width is the data width of a DRAM device (chip).
type Width int

// Supported device widths.
const (
	X4 Width = 4
	X8 Width = 8
)

// String implements fmt.Stringer.
func (w Width) String() string {
	return fmt.Sprintf("x%d", int(w))
}

// BurstLength is the number of beats in a DDR4 burst transfer.
const BurstLength = 8

// Geometry describes the addressable shape of a DRAM device and the rank
// that contains it. Values reflect common 8Gb DDR4 parts; the analysis only
// relies on the ordering of levels, not absolute sizes.
type Geometry struct {
	Width          Width // device data width (x4 or x8)
	DevicesPerRank int   // data devices per rank (16 for x4, 8 for x8), excluding ECC devices
	ECCDevices     int   // ECC devices per rank (2 for x4, 1 for x8)
	Ranks          int   // ranks per DIMM
	BankGroups     int   // bank groups per device
	BanksPerGroup  int   // banks per bank group
	Rows           int   // rows per bank
	Columns        int   // columns per row
}

// DefaultGeometry returns the geometry of a typical 8Gb DDR4 part with the
// given device width, matching the x4 configuration in paper Figure 1.
func DefaultGeometry(w Width) Geometry {
	g := Geometry{
		Width:         w,
		BankGroups:    4,
		BanksPerGroup: 4,
		Rows:          1 << 17, // 128Ki rows
		Columns:       1 << 10, // 1Ki columns
		Ranks:         2,
	}
	switch w {
	case X4:
		g.DevicesPerRank = 16
		g.ECCDevices = 2
	case X8:
		g.DevicesPerRank = 8
		g.ECCDevices = 1
	default:
		panic(fmt.Sprintf("dram: unsupported width %d", w))
	}
	return g
}

// Banks returns the total number of banks per device.
func (g Geometry) Banks() int { return g.BankGroups * g.BanksPerGroup }

// TotalDevices returns data+ECC devices per rank.
func (g Geometry) TotalDevices() int { return g.DevicesPerRank + g.ECCDevices }

// Addr locates a memory cell inside one DIMM.
type Addr struct {
	Rank   int
	Device int // chip index within the rank, 0-based
	Bank   int // flat bank index: group*BanksPerGroup + bank
	Row    int
	Column int
}

// String implements fmt.Stringer.
func (a Addr) String() string {
	return fmt.Sprintf("rank=%d dev=%d bank=%d row=%d col=%d", a.Rank, a.Device, a.Bank, a.Row, a.Column)
}

// Cell IDs pack an address into one uint64 of fixed-width fields, rank
// highest: rank 8 bits, device 8, bank 8, row 24, column 16. The widths
// hold DefaultGeometry for both device widths (2 ranks, 18 devices, 16
// banks, 128Ki rows, 1Ki columns) with room to spare, and with rank on top
// ascending IDs order cells as (rank, device, bank, row, column) does.
const (
	rankBits, deviceBits, bankBits, rowBits, columnBits = 8, 8, 8, 24, 16

	rowShift    = columnBits
	bankShift   = rowShift + rowBits
	deviceShift = bankShift + bankBits
	rankShift   = deviceShift + deviceBits
)

// Field masks over a cell ID. With the column field cleared, a cell's ID
// names its row within its bank; with the row field cleared, its column
// within its bank; with both cleared, its bank.
const (
	ColumnIDMask uint64 = 1<<columnBits - 1
	RowIDMask    uint64 = (1<<rowBits - 1) << rowShift
)

// CellID returns a single comparable identifier for the cell: its fields
// packed as the Cell IDs layout above gives. The address must pass
// CheckFits (decoders of foreign bytes refuse those that do not); a field
// outside its width would spill into its neighbour.
func (a Addr) CellID() uint64 {
	return uint64(a.Rank)<<rankShift | uint64(a.Device)<<deviceShift |
		uint64(a.Bank)<<bankShift | uint64(a.Row)<<rowShift | uint64(a.Column)
}

// CellAddr unpacks a cell ID: CellAddr(a.CellID()) == a for every address
// that passes CheckFits.
func CellAddr(id uint64) Addr {
	return Addr{
		Rank:   int(id >> rankShift),
		Device: int(id >> deviceShift & (1<<deviceBits - 1)),
		Bank:   int(id >> bankShift & (1<<bankBits - 1)),
		Row:    int(id >> rowShift & (1<<rowBits - 1)),
		Column: int(id & ColumnIDMask),
	}
}

// CheckFits returns an error naming the first field that is negative or
// too wide for its cell-ID field, with its value and the width, or nil
// when the address packs.
func (a Addr) CheckFits() error {
	fields := [...]struct {
		name string
		v    int
		bits uint
	}{
		{"rank", a.Rank, rankBits}, {"device", a.Device, deviceBits}, {"bank", a.Bank, bankBits},
		{"row", a.Row, rowBits}, {"column", a.Column, columnBits},
	}
	for _, f := range fields {
		if uint(f.v) >= 1<<f.bits {
			return fmt.Errorf("dram: %s %d outside its %d-bit cell-ID field", f.name, f.v, f.bits)
		}
	}
	return nil
}
