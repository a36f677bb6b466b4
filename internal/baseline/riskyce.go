// Package baseline reproduces the "Risky CE Pattern" predictor of Li et
// al. (SC'22), the comparison algorithm in the paper's Table II. It is a
// rule-based indicator: a DIMM is flagged when its recent CE history
// exhibits a risky bit-level pattern for its manufacturer — dense
// multi-DQ/multi-beat signatures within one device — optionally gated by a
// minimum CE rate. The rules were designed against the ECC of Intel
// Skylake/Cascade Lake (Purley); following the paper, the predictor
// declares itself inapplicable on other platforms (the "X" cells).
package baseline

import (
	"memfp/internal/features"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// Rule is one manufacturer's risky-pattern thresholds.
type Rule struct {
	// MinDQs/MinBeats: a single CE whose signature touches at least this
	// many DQs AND beats is risky on its own.
	MinDQs, MinBeats int
	// PairBeatInterval flags the Purley-specific two-beat pattern: ≥2
	// DQs with the given beat interval.
	PairBeatInterval int
	// MinRiskyCEs is how many risky CEs inside the window trigger a
	// positive prediction.
	MinRiskyCEs int
	// StormGuard additionally flags DIMMs with at least this many CE
	// storms in the window (0 disables).
	StormGuard int
}

// Predictor implements the rule-based algorithm.
type Predictor struct {
	// Rules per manufacturer; FallbackRule covers vendors without a
	// dedicated rule, mirroring the per-part-number design of the paper.
	Rules    map[platform.Manufacturer]Rule
	Fallback Rule
}

// New returns the reproduction tuned for the Purley platform: the risky
// pattern is 2+ DQs with a 4-beat interval (paper Fig. 5) or any dense
// ≥3-DQ/≥3-beat signature, with mild per-vendor variations as in the
// original paper.
func New() *Predictor {
	base := Rule{MinDQs: 3, MinBeats: 3, PairBeatInterval: 4, MinRiskyCEs: 2, StormGuard: 3}
	return &Predictor{
		Rules: map[platform.Manufacturer]Rule{
			platform.VendorA: base,
			platform.VendorB: {MinDQs: 3, MinBeats: 3, PairBeatInterval: 4, MinRiskyCEs: 2, StormGuard: 4},
			platform.VendorC: {MinDQs: 3, MinBeats: 4, PairBeatInterval: 4, MinRiskyCEs: 3, StormGuard: 3},
			platform.VendorD: base,
		},
		Fallback: base,
	}
}

// Applicable reports whether the algorithm has prediction values for the
// platform (Purley only, per Table II).
func (p *Predictor) Applicable(id platform.ID) bool { return id == platform.Purley }

// Predict returns the rule decision for DIMM l at time t, from the events
// of the observation window Δtd (features.ObservationWindow) before t.
func (p *Predictor) Predict(l *trace.DIMMLog, t trace.Minutes) bool {
	rule, ok := p.Rules[l.Part.Manufacturer]
	if !ok {
		rule = p.Fallback
	}
	winStart := t - features.ObservationWindow
	risky, storms := 0, 0
	for _, e := range l.Events {
		if e.Time > t {
			break
		}
		if e.Time < winStart {
			continue
		}
		switch e.Type {
		case trace.TypeStorm:
			storms++
		case trace.TypeCE:
			if e.Bits.IsZero() {
				continue
			}
			dq, beats := e.Bits.DQCount(), e.Bits.BeatCount()
			dense := dq >= rule.MinDQs && beats >= rule.MinBeats
			pair := dq >= 2 && e.Bits.BeatInterval() == rule.PairBeatInterval
			if dense || pair {
				risky++
			}
		}
	}
	if rule.StormGuard > 0 && storms >= rule.StormGuard {
		return true
	}
	return risky >= rule.MinRiskyCEs
}

// Score adapts the boolean rule to the score interface used by the
// evaluation harness (1.0 = flagged).
func (p *Predictor) Score(l *trace.DIMMLog, t trace.Minutes) float64 {
	if p.Predict(l, t) {
		return 1
	}
	return 0
}
