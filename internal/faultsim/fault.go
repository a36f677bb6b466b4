package faultsim

import (
	"fmt"

	"memfp/internal/dram"
	"memfp/internal/ecc"
	"memfp/internal/platform"
	"memfp/internal/xrand"
)

// region is one contiguous fault extent on a single device.
type region struct {
	device int
	bank   int
	row    int // anchor row (-1 when the region spans rows)
	col    int // anchor column (-1 when the region spans columns)
	// bankWide marks regions that behave as bank faults (both row- and
	// column-structured errors inside one bank).
	bankWide bool
	// anchorRows/anchorCols give bank-wide regions their internal
	// structure: CEs cluster on these rows/columns.
	anchorRows []int
	anchorCols []int
}

// Fault is one injected DRAM fault: a component-level mode, the physical
// extent it occupies, and the bit-level signature profile its CEs exhibit.
type Fault struct {
	Mode    Mode
	Profile Profile
	Rank    int
	Regions []region
	geo     dram.Geometry
}

// NewFault lays out a fault of the given mode on a device geometry.
func NewFault(mode Mode, profile Profile, geo dram.Geometry, rng *xrand.RNG) *Fault {
	f := &Fault{Mode: mode, Profile: profile, Rank: rng.Intn(geo.Ranks), geo: geo}
	newRegion := func(dev int, bankWide bool) region {
		r := region{
			device: dev,
			bank:   rng.Intn(geo.Banks()),
			row:    rng.Intn(geo.Rows),
			col:    rng.Intn(geo.Columns),
		}
		if bankWide {
			r.bankWide = true
			for i := 0; i < 4; i++ {
				r.anchorRows = append(r.anchorRows, rng.Intn(geo.Rows))
				r.anchorCols = append(r.anchorCols, rng.Intn(geo.Columns))
			}
		}
		return r
	}
	dev := rng.Intn(geo.TotalDevices())
	switch mode {
	case ModeSporadic, ModeCell, ModeColumn, ModeRow:
		f.Regions = []region{newRegion(dev, false)}
	case ModeBank:
		f.Regions = []region{newRegion(dev, true)}
	case ModeMultiDevice:
		n := 2
		if rng.Bool(0.3) {
			n = 3
		}
		devs := rng.SampleWithoutReplacement(geo.TotalDevices(), n)
		for _, d := range devs {
			f.Regions = append(f.Regions, newRegion(d, rng.Bool(0.5)))
		}
	default:
		panic(fmt.Sprintf("faultsim: unknown mode %v", mode))
	}
	return f
}

// SampleAddr draws the location of one CE produced by this fault.
func (f *Fault) SampleAddr(rng *xrand.RNG) dram.Addr {
	reg := f.Regions[0]
	if len(f.Regions) > 1 {
		reg = f.Regions[rng.Intn(len(f.Regions))]
	}
	dev, bank, row, col := reg.device, reg.bank, reg.row, reg.col
	switch f.Mode {
	case ModeSporadic:
		// Scattered: random location, usually on the fault's device.
		if rng.Bool(0.25) {
			dev = rng.Intn(f.geo.TotalDevices())
		}
		bank = rng.Intn(f.geo.Banks())
		row = rng.Intn(f.geo.Rows)
		col = rng.Intn(f.geo.Columns)
	case ModeCell:
		// Dominantly the same cell; occasional fully scattered noise
		// (kept off the fault row so noise cannot mimic a row fault).
		if rng.Bool(0.08) {
			bank = rng.Intn(f.geo.Banks())
			row = rng.Intn(f.geo.Rows)
			col = rng.Intn(f.geo.Columns)
		}
	case ModeColumn:
		row = rng.Intn(f.geo.Rows)
		if rng.Bool(0.10) {
			col = rng.Intn(f.geo.Columns)
		}
	case ModeRow:
		col = rng.Intn(f.geo.Columns)
		if rng.Bool(0.10) {
			row = rng.Intn(f.geo.Rows)
		}
	case ModeBank, ModeMultiDevice:
		return f.sampleRegion(reg, rng)
	}
	return f.addr(dev, bank, row, col)
}

// sampleRegion draws a CE location within one region, honoring bank-wide
// structure (anchored rows and columns) when present.
func (f *Fault) sampleRegion(reg region, rng *xrand.RNG) dram.Addr {
	var row, col int
	if !reg.bankWide {
		// Row-structured region: fixed row, random columns.
		row = reg.row
		col = rng.Intn(f.geo.Columns)
		if rng.Bool(0.10) {
			row = rng.Intn(f.geo.Rows)
		}
		return f.addr(reg.device, reg.bank, row, col)
	}
	switch {
	case rng.Bool(0.5):
		row = reg.anchorRows[rng.Intn(len(reg.anchorRows))]
		col = rng.Intn(f.geo.Columns)
	case rng.Bool(0.8):
		row = rng.Intn(f.geo.Rows)
		col = reg.anchorCols[rng.Intn(len(reg.anchorCols))]
	default:
		row = rng.Intn(f.geo.Rows)
		col = rng.Intn(f.geo.Columns)
	}
	return f.addr(reg.device, reg.bank, row, col)
}

// addr narrows a location on the fault's rank to a dram.Addr. Every draw
// is inside the fault's geometry, which fits the address fields
// (TestCellIDFields checks DefaultGeometry).
func (f *Fault) addr(dev, bank, row, col int) dram.Addr {
	return dram.Addr{Rank: uint8(f.Rank), Device: uint8(dev), Bank: uint8(bank), Row: uint32(row), Column: uint16(col)}
}

// SampleCEBits draws the bit-level signature of one CE and verifies the
// platform ECC indeed corrects it (the event would otherwise have been a
// UE, not a CE). Signature noise replaces the profile with a single-bit
// pattern a fraction of the time, as real logs are never pure.
func (f *Fault) SampleCEBits(code ecc.Code, w dram.Width, rng *xrand.RNG) (dram.ErrorBits, error) {
	prof := f.Profile
	if rng.Bool(0.15) {
		prof = ProfileSingleBit
	}
	bits := prof.Sample(w, rng)
	tx := ecc.Transaction{PerDevice: map[int]dram.ErrorBits{f.Regions[0].device: bits}}
	if code.Classify(tx) != ecc.Corrected {
		return dram.ErrorBits{}, fmt.Errorf("faultsim: profile %v produced uncorrectable CE pattern %v under %s",
			prof, bits, code.Name())
	}
	return bits, nil
}

// EscalationTransaction constructs the uncorrectable transaction that turns
// this fault into a UE on the given platform, and verifies the platform
// ECC classifies it Uncorrected. The construction differs by platform:
// Intel UEs arise from dense single-chip patterns (Purley) or multi-device
// hits; K920 UEs require at least two devices with multi-bit corruption.
func (f *Fault) EscalationTransaction(p *platform.Platform, w dram.Width, rng *xrand.RNG) (ecc.Transaction, error) {
	dense := func(dqs, beats int) dram.ErrorBits {
		e := dram.NewErrorBits(w)
		for b := 0; b < beats; b++ {
			for dq := 0; dq < dqs && dq < int(w); dq++ {
				e.Set(dq, b)
			}
		}
		return e
	}
	primary := f.Regions[0].device
	secondary := (primary + 1) % dram.DefaultGeometry(w).TotalDevices()
	if len(f.Regions) > 1 {
		secondary = f.Regions[1].device
	}
	var tx ecc.Transaction
	switch {
	case f.Mode == ModeMultiDevice:
		// Two devices corrupted in the same transaction, multi-bit each.
		tx = ecc.Transaction{PerDevice: map[int]dram.ErrorBits{
			primary:   dense(2, 2),
			secondary: dense(2, 2),
		}}
	case p.ID == platform.K920:
		// Single-device fault spreading to a neighbor: K920-SDDC only
		// fails when a second device contributes more than one bit.
		tx = ecc.Transaction{PerDevice: map[int]dram.ErrorBits{
			primary:   dense(4, 6),
			secondary: dense(2, 1),
		}}
	default:
		// Intel single-device escalation: a dense single-chip pattern
		// beyond the reduced SDDC capability.
		tx = ecc.Transaction{PerDevice: map[int]dram.ErrorBits{
			primary: dense(4, 7),
		}}
	}
	if p.ECC.Classify(tx) != ecc.Uncorrected {
		return ecc.Transaction{}, fmt.Errorf(
			"faultsim: escalation for mode %v not uncorrectable under %s", f.Mode, p.ECC.Name())
	}
	return tx, nil
}

// UEAddr returns the location reported for the UE.
func (f *Fault) UEAddr(rng *xrand.RNG) dram.Addr {
	return f.SampleAddr(rng)
}
