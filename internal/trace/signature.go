package trace

// Signature is a CE bit signature's (DQ count, beat count, DQ interval,
// beat interval) tuple — the bucket key of the Figure 5 analysis and the
// §VI dominant-signature features. A mask has 64 bits, so every count
// and interval fits a byte; the serving cursor keys a map by it per DIMM.
type Signature struct{ DQ, Beat, DQI, BI uint8 }

// Signature returns the event's signature tuple, and false when the event
// carries no bit information (zero mask).
func (e Event) Signature() (Signature, bool) {
	if e.Bits.IsZero() {
		return Signature{}, false
	}
	b := e.Bits
	return Signature{uint8(b.DQCount()), uint8(b.BeatCount()), uint8(b.DQInterval()), uint8(b.BeatInterval())}, true
}

// less orders signatures by complexity (more DQs, then more beats, then
// wider intervals) — the canonical tie-break, a total order so every
// consumer resolves frequency ties identically.
func (s Signature) less(o Signature) bool {
	if s.DQ != o.DQ {
		return s.DQ < o.DQ
	}
	if s.Beat != o.Beat {
		return s.Beat < o.Beat
	}
	if s.DQI != o.DQI {
		return s.DQI < o.DQI
	}
	return s.BI < o.BI
}

// DominantOf returns the most frequent signature in counts, breaking
// frequency ties toward the more complex signature; the zero Signature
// when counts is empty. Consumers that maintain signature counts
// incrementally (the serving feature cursor's sliding window) share the
// exact argmax the batch DominantSignature computes.
func DominantOf(counts map[Signature]int) Signature {
	var best Signature
	bestN := -1
	for s, n := range counts {
		if n > bestN || (n == bestN && best.less(s)) {
			best, bestN = s, n
		}
	}
	if bestN < 0 {
		return Signature{}
	}
	return best
}

// DominantSignature returns the most frequent signature tuple over the
// events' CE bit signatures, breaking ties toward the more complex
// signature so a recurring structured pattern is not masked by single-bit
// noise. Both the Figure 5 analysis and §VI feature extraction bucket
// DIMMs by this value, so it lives here, once: the tie-break is a total
// order and extraction must be reproducible call-to-call (the fleet cache
// shares one store across every consumer).
func DominantSignature(ces []Event) (dq, beat, dqi, bi int) {
	counts := map[Signature]int{}
	for _, e := range ces {
		if s, ok := e.Signature(); ok {
			counts[s]++
		}
	}
	best := DominantOf(counts)
	return int(best.DQ), int(best.Beat), int(best.DQI), int(best.BI)
}
