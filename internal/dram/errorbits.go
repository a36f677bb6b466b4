package dram

import (
	"fmt"
	"math/bits"
	"strings"
)

// ErrorBits is the bit-level signature of one error observation as decoded
// from the ECC check bits: which DQ lines and which beats of the burst
// carried corrupted bits. For an x4 device the per-device signature is a
// 4 (DQ) × 8 (beat) grid, stored as a 32-bit mask with bit index
// beat*4 + dq. This is the structure analyzed in paper Figure 5.
type ErrorBits struct {
	Mask  uint64 // bit (beat*int(Width) + dq) set when that (beat, dq) position saw an error
	Width Width  // device width the signature belongs to
}

// NewErrorBits returns an empty signature for the given device width.
func NewErrorBits(w Width) ErrorBits {
	return ErrorBits{Width: w}
}

// Set marks an error at the given DQ line and beat.
func (e *ErrorBits) Set(dq, beat int) {
	if dq < 0 || dq >= int(e.Width) || beat < 0 || beat >= BurstLength {
		panic(fmt.Sprintf("dram: error bit out of range dq=%d beat=%d width=%s", dq, beat, e.Width))
	}
	e.Mask |= 1 << uint(beat*int(e.Width)+dq)
}

// IsZero reports whether no error bits are set.
func (e ErrorBits) IsZero() bool { return e.Mask == 0 }

// BitCount returns the total number of erroneous (dq, beat) positions.
func (e ErrorBits) BitCount() int { return bits.OnesCount64(e.Mask) }

// dqMask returns a bitmask over DQ lines that saw at least one error.
func (e ErrorBits) dqMask() uint {
	var m uint
	w := int(e.Width)
	for beat := 0; beat < BurstLength; beat++ {
		m |= uint((e.Mask >> uint(beat*w)) & ((1 << uint(w)) - 1))
	}
	return m
}

// beatMask returns a bitmask over beats that saw at least one error.
func (e ErrorBits) beatMask() uint {
	var m uint
	w := int(e.Width)
	full := uint64(1)<<uint(w) - 1
	for beat := 0; beat < BurstLength; beat++ {
		if (e.Mask>>uint(beat*w))&full != 0 {
			m |= 1 << uint(beat)
		}
	}
	return m
}

// DQCount returns the number of distinct DQ lines with errors
// (paper Fig. 5 "DQ count").
func (e ErrorBits) DQCount() int { return bits.OnesCount(e.dqMask()) }

// BeatCount returns the number of distinct beats with errors
// (paper Fig. 5 "Beat count").
func (e ErrorBits) BeatCount() int { return bits.OnesCount(e.beatMask()) }

// maskInterval returns the distance between the lowest and highest set bit
// of m, or 0 when fewer than two bits are set.
func maskInterval(m uint) int {
	if bits.OnesCount(m) < 2 {
		return 0
	}
	lo := bits.TrailingZeros(m)
	hi := bits.Len(m) - 1
	return hi - lo
}

// DQInterval returns the span between the min and max erroneous DQ line
// (paper Fig. 5 "DQ interval"); 0 when fewer than two DQs erred.
func (e ErrorBits) DQInterval() int { return maskInterval(e.dqMask()) }

// BeatInterval returns the span between the min and max erroneous beat
// (paper Fig. 5 "Beat interval"); 0 when fewer than two beats erred.
func (e ErrorBits) BeatInterval() int { return maskInterval(e.beatMask()) }

// String renders the signature as a beat×DQ grid, e.g. "b0:1000 b4:1000".
func (e ErrorBits) String() string {
	if e.IsZero() {
		return "none"
	}
	var sb strings.Builder
	w := int(e.Width)
	first := true
	for beat := 0; beat < BurstLength; beat++ {
		row := (e.Mask >> uint(beat*w)) & (1<<uint(w) - 1)
		if row == 0 {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "b%d:", beat)
		for dq := w - 1; dq >= 0; dq-- {
			if row&(1<<uint(dq)) != 0 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
	}
	return sb.String()
}

// ParseErrorBits parses a signature produced by String for the given width.
func ParseErrorBits(w Width, s string) (ErrorBits, error) {
	e := NewErrorBits(w)
	if s == "none" || s == "" {
		return e, nil
	}
	for _, tok := range strings.Fields(s) {
		var beat int
		colon := strings.IndexByte(tok, ':')
		if colon < 0 || !strings.HasPrefix(tok, "b") {
			return e, fmt.Errorf("dram: bad error-bits token %q", tok)
		}
		if _, err := fmt.Sscanf(tok[:colon], "b%d", &beat); err != nil {
			return e, fmt.Errorf("dram: bad beat in token %q: %w", tok, err)
		}
		if beat < 0 || beat >= BurstLength {
			return e, fmt.Errorf("dram: beat in token %q outside the %d-beat burst", tok, BurstLength)
		}
		bitsPart := tok[colon+1:]
		if len(bitsPart) != int(w) {
			return e, fmt.Errorf("dram: token %q has %d bits, want %d", tok, len(bitsPart), int(w))
		}
		for i, c := range bitsPart {
			dq := int(w) - 1 - i
			switch c {
			case '1':
				e.Set(dq, beat)
			case '0':
			default:
				return e, fmt.Errorf("dram: bad bit char %q in token %q", c, tok)
			}
		}
	}
	return e, nil
}
