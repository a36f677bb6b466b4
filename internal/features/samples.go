package features

import (
	"memfp/internal/par"
	"memfp/internal/trace"
)

// Sample is one (feature vector, label) pair tied back to its DIMM and
// prediction instant, so evaluation can aggregate to DIMM level.
type Sample struct {
	DIMM  trace.DIMMID
	Time  trace.Minutes
	X     []float64
	Label Label
	// UEDelta is the time between this sample and the DIMM's UE
	// (positive samples only; -1 otherwise). Training-set construction
	// uses it to focus positives near the failure, following the
	// interval-based labeling of the paper's upstream work [29, 30].
	UEDelta trace.Minutes
}

// SamplerConfig controls how prediction instants are chosen. The paper
// predicts every Δip=5 minutes; replaying every instant over ten months is
// neither necessary nor laptop-friendly, so we sample event-triggered
// instants (a prediction is only interesting when new evidence arrived)
// thinned to at most one per MinGap, capped per DIMM — a substitution for
// the paper's schedule that TestInstantsThinning and TestInstantsCap pin.
type SamplerConfig struct {
	// MinGap is the minimum spacing between two prediction instants on
	// the same DIMM.
	MinGap trace.Minutes
	// MaxPerDIMM caps the instants per DIMM (0 = unlimited). When the
	// cap binds, instants are kept evenly across the DIMM's activity.
	MaxPerDIMM int
}

// DefaultSamplerConfig spaces instants ≥6h apart, at most 48 per DIMM.
func DefaultSamplerConfig() SamplerConfig {
	return SamplerConfig{MinGap: 6 * trace.Hour, MaxPerDIMM: 48}
}

// Instants returns the prediction instants for one DIMM: one at each CE
// arrival (post-thinning), stopping before the DIMM's UE if any. Instants
// are returned in increasing time order.
func (c SamplerConfig) Instants(l *trace.DIMMLog) []trace.Minutes {
	ue, hasUE := l.FirstUE()
	var out []trace.Minutes
	last := trace.Minutes(-1 << 62)
	for _, e := range l.CEs() {
		if hasUE && e.Time >= ue {
			break
		}
		if e.Time-last < c.MinGap {
			continue
		}
		out = append(out, e.Time)
		last = e.Time
	}
	if c.MaxPerDIMM > 0 && len(out) > c.MaxPerDIMM {
		if c.MaxPerDIMM == 1 {
			// The even-spread step below divides by MaxPerDIMM-1; with a
			// single slot, keep the final instant (the one closest to a
			// potential UE).
			return []trace.Minutes{out[len(out)-1]}
		}
		// Keep an even spread, always retaining the final instant.
		kept := make([]trace.Minutes, 0, c.MaxPerDIMM)
		step := float64(len(out)-1) / float64(c.MaxPerDIMM-1)
		for i := 0; i < c.MaxPerDIMM; i++ {
			kept = append(kept, out[int(float64(i)*step+0.5)])
		}
		out = kept
	}
	return out
}

// BuildSamples extracts labeled samples for one DIMM. Dropped samples
// (inside the lead gap) are excluded. The DIMM's instants are walked with
// one extraction cursor, so the event history is consumed in a single
// incremental pass instead of being re-scanned at every instant.
func BuildSamples(cfg SamplerConfig, l *trace.DIMMLog) []Sample {
	ue, hasUE := l.FirstUE()
	cur := NewCursor(l)
	var out []Sample
	for _, t := range cfg.Instants(l) {
		lab := Labelize(l, t)
		if lab == LabelDropped {
			continue
		}
		delta := trace.Minutes(-1)
		if lab == LabelPositive && hasUE {
			delta = ue - t
		}
		out = append(out, Sample{DIMM: l.ID, Time: t, X: cur.ExtractAt(t), Label: lab, UEDelta: delta})
	}
	return out
}

// BuildAll extracts samples for every DIMM in the store.
func BuildAll(cfg SamplerConfig, s *trace.Store) []Sample {
	return BuildAllWorkers(cfg, s, 1)
}

// BuildAllWorkers is BuildAll sharded across a worker pool: one task per
// DIMM, results concatenated in registration order, so the sample stream
// is identical for any worker count; workers <= 0 uses one worker per CPU.
// The store is only read.
func BuildAllWorkers(cfg SamplerConfig, s *trace.Store, workers int) []Sample {
	logs := s.DIMMs()
	perDIMM := make([][]Sample, len(logs))
	par.ForEachN(workers, len(logs), func(i int) {
		perDIMM[i] = BuildSamples(cfg, logs[i])
	})
	n := 0
	for _, ss := range perDIMM {
		n += len(ss)
	}
	out := make([]Sample, 0, n)
	for _, ss := range perDIMM {
		out = append(out, ss...)
	}
	return out
}
