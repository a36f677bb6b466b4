package faultsim

import (
	"fmt"

	"memfp/internal/platform"
)

// Calibration holds the per-platform generative parameters. Values are
// tuned so the emitted logs reproduce the *shapes* of the paper's Table I,
// Figure 4 and Figure 5 (the bounds TestCalibrationShapes in
// internal/analysis holds them to); they are not fit to any proprietary
// data.
type Calibration struct {
	Platform platform.ID

	// CEDIMMs is the number of DIMMs experiencing CEs at scale=1,
	// matching Table I ("DIMMs with CEs").
	CEDIMMs int

	// ModeMix gives the fraction of CE DIMMs whose underlying fault has
	// each component-level mode. Must sum to 1.
	ModeMix map[Mode]float64

	// UEHazard gives P(predictable UE | fault mode): the probability that
	// a CE DIMM with the given fault mode escalates to a UE inside the
	// ten-month window. Drives Figure 4.
	UEHazard map[Mode]float64

	// SuddenShare is the fraction of all UE DIMMs whose UE is sudden
	// (no preceding CEs), per Table I.
	SuddenShare float64

	// RiskyProfile is the platform's bit-level UE precursor (Figure 5).
	RiskyProfile Profile
	// PRiskyGivenUE is P(fault carries RiskyProfile | DIMM is UE-bound).
	PRiskyGivenUE float64
	// PRiskyGivenBenign is P(fault carries RiskyProfile | DIMM benign).
	PRiskyGivenBenign float64
	// BenignProfileMix distributes non-risky faults over the remaining
	// profiles (weights, normalized at sampling time).
	BenignProfileMix map[Profile]float64

	// WeakPrecursorFrac is the fraction of UE-bound DIMMs whose first CE
	// appears only shortly (1-6 days) before the UE, leaving little
	// predictive signal. This is the main lever for the platform
	// differences in achievable recall (paper Finding 4).
	WeakPrecursorFrac float64

	// BurstyBenignFrac is the fraction of benign DIMMs that exhibit CE
	// storms anyway, creating false-positive pressure on precision.
	BurstyBenignFrac float64

	// RateMu/RateSigma parameterize the log-normal baseline CE rate
	// (events per day) across DIMMs.
	RateMu, RateSigma float64
}

// Validate checks internal consistency.
func (c *Calibration) Validate() error {
	sum := 0.0
	for _, m := range Modes() {
		sum += c.ModeMix[m]
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("faultsim: %s mode mix sums to %.4f, want 1", c.Platform, sum)
	}
	for _, m := range Modes() {
		h := c.UEHazard[m]
		if h < 0 || h > 1 {
			return fmt.Errorf("faultsim: %s hazard for %s out of range: %v", c.Platform, m, h)
		}
	}
	if c.SuddenShare < 0 || c.SuddenShare >= 1 {
		return fmt.Errorf("faultsim: %s sudden share out of range: %v", c.Platform, c.SuddenShare)
	}
	if c.CEDIMMs <= 0 {
		return fmt.Errorf("faultsim: %s CEDIMMs must be positive", c.Platform)
	}
	return nil
}

// DefaultCalibration returns the tuned parameters for a platform.
func DefaultCalibration(id platform.ID) (*Calibration, error) {
	switch id {
	case platform.Purley:
		return &Calibration{
			Platform: platform.Purley,
			CEDIMMs:  50000,
			ModeMix: map[Mode]float64{
				ModeSporadic: 0.05, ModeCell: 0.40, ModeColumn: 0.13,
				ModeRow: 0.19, ModeBank: 0.06, ModeMultiDevice: 0.17,
			},
			// Purley's weak SDDC lets dense single-chip faults escalate:
			// row/bank hazards high, multi-device moderate. Yields ~4.2%
			// predictable-UE rate and single-device-dominant attribution.
			UEHazard: map[Mode]float64{
				ModeSporadic: 0.004, ModeCell: 0.008, ModeColumn: 0.032,
				ModeRow: 0.078, ModeBank: 0.150, ModeMultiDevice: 0.062,
			},
			SuddenShare:       0.27,
			RiskyProfile:      ProfileRiskyPurley,
			PRiskyGivenUE:     0.70,
			PRiskyGivenBenign: 0.05,
			BenignProfileMix: map[Profile]float64{
				ProfileSingleBit: 0.68, ProfileAdjacent: 0.08,
				ProfileWideDQ: 0.10, ProfileLongBeat: 0.14,
			},
			WeakPrecursorFrac: 0.12,
			BurstyBenignFrac:  0.07,
			RateMu:            -1.4,
			RateSigma:         1.1,
		}, nil
	case platform.Whitley:
		return &Calibration{
			Platform: platform.Whitley,
			CEDIMMs:  10000,
			ModeMix: map[Mode]float64{
				ModeSporadic: 0.05, ModeCell: 0.42, ModeColumn: 0.12,
				ModeRow: 0.16, ModeBank: 0.05, ModeMultiDevice: 0.20,
			},
			// Whitley's stronger in-device correction suppresses
			// single-device escalation; UEs come mainly from
			// multi-device faults. ~2.1% predictable-UE rate.
			UEHazard: map[Mode]float64{
				ModeSporadic: 0.0012, ModeCell: 0.0024, ModeColumn: 0.0072,
				ModeRow: 0.0216, ModeBank: 0.042, ModeMultiDevice: 0.066,
			},
			SuddenShare:       0.58,
			RiskyProfile:      ProfileRiskyWhitley,
			PRiskyGivenUE:     0.45,
			PRiskyGivenBenign: 0.002,
			BenignProfileMix: map[Profile]float64{
				ProfileSingleBit: 0.60, ProfileAdjacent: 0.16,
				ProfileWideDQ: 0.11, ProfileLongBeat: 0.13,
			},
			WeakPrecursorFrac: 0.30,
			BurstyBenignFrac:  0.08,
			RateMu:            -1.5,
			RateSigma:         1.1,
		}, nil
	case platform.K920:
		return &Calibration{
			Platform: platform.K920,
			CEDIMMs:  30000,
			ModeMix: map[Mode]float64{
				ModeSporadic: 0.05, ModeCell: 0.45, ModeColumn: 0.12,
				ModeRow: 0.15, ModeBank: 0.05, ModeMultiDevice: 0.18,
			},
			// K920-SDDC fully corrects single-device faults, so UEs are
			// dominated by multi-device faults; overall UE rate is the
			// lowest of the three platforms (~2.4% predictable).
			UEHazard: map[Mode]float64{
				ModeSporadic: 0.001, ModeCell: 0.002, ModeColumn: 0.008,
				ModeRow: 0.028, ModeBank: 0.060, ModeMultiDevice: 0.085,
			},
			SuddenShare:       0.18,
			RiskyProfile:      ProfileWideDQ,
			PRiskyGivenUE:     0.50,
			PRiskyGivenBenign: 0.02,
			BenignProfileMix: map[Profile]float64{
				ProfileSingleBit: 0.66, ProfileAdjacent: 0.16,
				ProfileRiskyWhitley: 0.02, ProfileLongBeat: 0.16,
			},
			WeakPrecursorFrac: 0.18,
			BurstyBenignFrac:  0.06,
			RateMu:            -1.5,
			RateSigma:         1.1,
		}, nil
	default:
		return nil, fmt.Errorf("faultsim: no calibration for platform %q", id)
	}
}
