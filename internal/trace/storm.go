package trace

import (
	"memfp/internal/par"
)

// CE-storm detection (paper §II-C, footnote 3: "CE interruptions repeatedly
// occur multiple times, e.g., 10 times"). A storm is a window in which CE
// arrivals on one DIMM meet or exceed a threshold; production firmware
// suppresses CE interrupts during storms, and the paper's feature set
// counts storm episodes as a predictive signal.

// StormConfig parameterizes storm detection.
type StormConfig struct {
	// Threshold is the CE count within Window that constitutes a storm.
	Threshold int
	// Window is the sliding window length.
	Window Minutes
	// Cooldown is the minimum gap between the *starts* of two distinct
	// storm episodes on the same DIMM.
	Cooldown Minutes
}

// DefaultStormConfig mirrors the paper's example: ≥10 CEs within a short
// window (we use 1 hour) with a 6-hour episode cooldown.
func DefaultStormConfig() StormConfig {
	return StormConfig{Threshold: 10, Window: Hour, Cooldown: 6 * Hour}
}

// DetectStorms scans a time-sorted CE event slice and returns one storm
// event per detected episode (stamped at the time the threshold was
// crossed).
func DetectStorms(ces []Event, cfg StormConfig) []Event {
	if cfg.Threshold <= 1 || len(ces) == 0 {
		return nil
	}
	var storms []Event
	lastStart := Minutes(-1 << 62)
	lo := 0
	for hi := range ces {
		for ces[hi].Time-ces[lo].Time > cfg.Window {
			lo++
		}
		if hi-lo+1 >= cfg.Threshold && ces[hi].Time-lastStart >= cfg.Cooldown {
			storms = append(storms, Event{
				Time: ces[hi].Time,
				Type: TypeStorm,
				DIMM: ces[hi].DIMM,
			})
			lastStart = ces[hi].Time
		}
	}
	return storms
}

// AnnotateStorms runs storm detection over every DIMM in the store and
// appends the detected storm events to the logs, resorting each log. It
// returns the number of storm episodes added. The work is sharded across
// one worker per CPU: detection, the storm append and the per-log resort
// are all confined to a single DIMM, so the result is identical for any
// worker count.
func AnnotateStorms(s *Store, cfg StormConfig) int {
	logs := s.DIMMs()
	counts := make([]int, len(logs))
	par.ForEachN(len(logs), func(i int) {
		l := logs[i]
		storms := DetectStorms(l.CEs(), cfg)
		if len(storms) == 0 {
			return
		}
		l.Events = append(l.Events, storms...)
		l.SortEvents()
		counts[i] = len(storms)
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	s.count(TypeStorm, total)
	return total
}
