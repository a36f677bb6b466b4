// Package ecc models the error-correcting codes that distinguish the CPU
// platforms studied in the paper. The real codes are confidential (paper
// §II-B: "the exact ECC algorithms are highly confidential and never
// exposed"), so these models encode only what the paper's analysis relies
// on: the *relative* correction strength of each platform against error
// patterns of different shapes. The classic codes are the yardsticks: a
// SEC-DED (72,64) code corrects any single bit and detects double bits,
// and a Chipkill single-symbol code corrects every bit of one device. The
// platforms' own codes sit between and beyond them:
//
//   - Intel-SDDC-like codes (Purley, Whitley) correct most single-device
//     errors but, because some check bits are re-purposed (paper §III,
//     citing Li et al. SC'22), fail on specific multi-bit patterns even
//     within a single chip.
//   - K920-SDDC (ARM) corrects all single-device errors and some
//     two-device ones.
//
// Classification takes the per-device error signature(s) of one memory
// transaction and decides whether the platform would have corrected it
// (CE) or flagged it uncorrectable (UE).
package ecc

import "memfp/internal/dram"

// Outcome is the result of ECC decoding one corrupted transaction.
type Outcome int

// Decoding outcomes.
const (
	// Corrected: the error was repaired; the host logs a CE.
	Corrected Outcome = iota
	// Uncorrected: the error was detected but not repairable; the host
	// logs a UE (typically fatal for the consuming process or VM).
	Uncorrected
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Corrected:
		return "CE"
	case Uncorrected:
		return "UE"
	default:
		return "unknown"
	}
}

// Transaction describes the corruption observed on one 64-byte transfer:
// the set of devices whose outputs were corrupted, and each device's
// bit-level signature.
type Transaction struct {
	// PerDevice maps device index → error signature on that device's DQs.
	PerDevice map[int]dram.ErrorBits
}

// Devices returns the number of devices with at least one corrupted bit.
func (t Transaction) Devices() int {
	n := 0
	for _, e := range t.PerDevice {
		if !e.IsZero() {
			n++
		}
	}
	return n
}

// Code is one platform's ECC scheme.
type Code interface {
	// Name identifies the scheme in logs and reports.
	Name() string
	// Classify decides whether the transaction is corrected or not.
	Classify(t Transaction) Outcome
}

// IntelSDDC models the contemporary Intel x4 SDDC-style code. Real SDDC
// corrects one erroneous symbol (device nibble) per beat, so errors
// confined to a single device are correctable regardless of how many beats
// they span. Its protection is nevertheless weaker than full Chipkill
// because some check bits are re-purposed for metadata (paper §III, citing
// Li et al. SC'22): sufficiently dense single-chip patterns — at least
// RiskyDQs erroneous DQ lines AND at least RiskyBeats erroneous beats —
// exceed the reduced code's capability and escalate to UEs, as do all
// multi-device errors.
type IntelSDDC struct {
	// CodeName distinguishes platform generations (Purley vs Whitley).
	CodeName string
	// RiskyDQs is the minimum erroneous-DQ count of an uncorrectable
	// single-device pattern.
	RiskyDQs int
	// RiskyBeats is the minimum erroneous-beat count of an uncorrectable
	// single-device pattern.
	RiskyBeats int
}

// NewPurleySDDC returns the Purley-generation (Skylake/Cascade Lake) model,
// the weakest of the three platform codes: single-device patterns touching
// ≥3 DQs and ≥6 beats are uncorrectable.
func NewPurleySDDC() *IntelSDDC {
	return &IntelSDDC{CodeName: "Intel-SDDC(Purley)", RiskyDQs: 3, RiskyBeats: 6}
}

// NewWhitleySDDC returns the Whitley-generation (Icelake) model, stronger
// within a single device (only full-width ≥4 DQ, ≥7 beat patterns escape)
// but still short of full Chipkill.
func NewWhitleySDDC() *IntelSDDC {
	return &IntelSDDC{CodeName: "Intel-SDDC(Whitley)", RiskyDQs: 4, RiskyBeats: 7}
}

// Name implements Code.
func (c *IntelSDDC) Name() string { return c.CodeName }

// Classify implements Code.
func (c *IntelSDDC) Classify(t Transaction) Outcome {
	if t.Devices() > 1 {
		return Uncorrected
	}
	for _, e := range t.PerDevice {
		if e.IsZero() {
			continue
		}
		if e.DQCount() >= c.RiskyDQs && e.BeatCount() >= c.RiskyBeats {
			return Uncorrected
		}
	}
	return Corrected
}

// K920SDDC models the Huawei ARM K920 platform's SDDC: full single-device
// correction (like Chipkill) plus limited two-device correction when the
// second device contributes at most one corrupted bit (an approximation of
// erasure-assisted correction after a device is marked faulty). This is the
// strongest of the three platform codes, consistent with the paper's
// Finding 2 (K920 shows few single-device UEs thanks to K920-SDDC).
type K920SDDC struct{}

// Name implements Code.
func (K920SDDC) Name() string { return "K920-SDDC" }

// Classify implements Code.
func (K920SDDC) Classify(t Transaction) Outcome {
	switch t.Devices() {
	case 0, 1:
		return Corrected
	case 2:
		// Correctable only when one device contributes a single bit.
		minBits := 1 << 30
		for _, e := range t.PerDevice {
			if e.IsZero() {
				continue
			}
			if b := e.BitCount(); b < minBits {
				minBits = b
			}
		}
		if minBits <= 1 {
			return Corrected
		}
		return Uncorrected
	default:
		return Uncorrected
	}
}

// Interface compliance checks.
var (
	_ Code = (*IntelSDDC)(nil)
	_ Code = K920SDDC{}
)
