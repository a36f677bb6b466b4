// Package faultsim is the synthetic substitute for the paper's production
// dataset (Huawei Cloud BMC logs from ~250k servers, which are
// confidential). It instantiates per-platform DIMM fleets, injects DRAM
// faults drawn from calibrated fault-mode mixtures, evolves each fault into
// a correctable-error stream over a simulated ten-month window, and
// escalates a calibrated fraction into uncorrectable errors whose
// transactions are verified uncorrectable by the platform's ECC model.
//
// Everything downstream (fault analysis, feature extraction, ML training)
// consumes only the emitted logs, mirroring the paper's pipeline. Ground
// truth is kept separately for validation and is never fed to the models.
package faultsim

import "fmt"

// Mode is the component-level fault mode within the DRAM hierarchy
// (paper §V): which structure the fault affects.
type Mode int

// Component-level fault modes, ordered by hierarchy level.
const (
	// ModeSporadic is background noise: scattered CEs with no structure.
	ModeSporadic Mode = iota
	// ModeCell: repeated CEs at one (row, column) cell.
	ModeCell
	// ModeColumn: CEs spread along one column across many rows.
	ModeColumn
	// ModeRow: CEs spread along one row across many columns.
	ModeRow
	// ModeBank: CEs spread over many rows and columns of one bank.
	ModeBank
	// ModeMultiDevice: structured CEs on two or more devices.
	ModeMultiDevice
)

// Modes lists all fault modes in presentation order (Figure 4's x-axis,
// with sporadic first).
func Modes() []Mode {
	return []Mode{ModeSporadic, ModeCell, ModeColumn, ModeRow, ModeBank, ModeMultiDevice}
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSporadic:
		return "sporadic"
	case ModeCell:
		return "cell"
	case ModeColumn:
		return "column"
	case ModeRow:
		return "row"
	case ModeBank:
		return "bank"
	case ModeMultiDevice:
		return "multi-device"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a fault-mode name (the String form) back to its
// Mode — the decode path for declarative scenario files.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("faultsim: unknown fault mode %q", s)
}
