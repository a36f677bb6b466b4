package dram

import (
	"testing"
	"testing/quick"

	"memfp/internal/xrand"
)

func TestErrorBitsBasics(t *testing.T) {
	e := NewErrorBits(X4)
	if !e.IsZero() || e.BitCount() != 0 || e.DQCount() != 0 || e.BeatCount() != 0 {
		t.Fatal("fresh signature should be empty")
	}
	e.Set(1, 0)
	e.Set(3, 4)
	if e.IsZero() {
		t.Error("signature with bits should not be zero")
	}
	if e.BitCount() != 2 {
		t.Errorf("bit count %d, want 2", e.BitCount())
	}
	if e.DQCount() != 2 {
		t.Errorf("DQ count %d, want 2", e.DQCount())
	}
	if e.BeatCount() != 2 {
		t.Errorf("beat count %d, want 2", e.BeatCount())
	}
	if e.DQInterval() != 2 {
		t.Errorf("DQ interval %d, want 2", e.DQInterval())
	}
	if e.BeatInterval() != 4 {
		t.Errorf("beat interval %d, want 4", e.BeatInterval())
	}
	if !e.Has(1, 0) || !e.Has(3, 4) || e.Has(0, 0) {
		t.Error("Has misreports positions")
	}
}

func TestErrorBitsIntervalSingle(t *testing.T) {
	e := NewErrorBits(X4)
	e.Set(2, 5)
	if e.DQInterval() != 0 || e.BeatInterval() != 0 {
		t.Errorf("single bit intervals: dq=%d beat=%d, want 0/0", e.DQInterval(), e.BeatInterval())
	}
}

func TestErrorBitsSamePositionIdempotent(t *testing.T) {
	e := NewErrorBits(X4)
	e.Set(0, 0)
	e.Set(0, 0)
	if e.BitCount() != 1 {
		t.Errorf("duplicate Set should not double-count: %d", e.BitCount())
	}
}

func TestErrorBitsSetPanicsOutOfRange(t *testing.T) {
	e := NewErrorBits(X4)
	for _, c := range []struct{ dq, beat int }{{4, 0}, {-1, 0}, {0, 8}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d,%d) should panic for x4", c.dq, c.beat)
				}
			}()
			e.Set(c.dq, c.beat)
		}()
	}
}

func TestErrorBitsX8(t *testing.T) {
	e := NewErrorBits(X8)
	e.Set(7, 7)
	e.Set(0, 0)
	if e.DQCount() != 2 || e.DQInterval() != 7 || e.BeatInterval() != 7 {
		t.Errorf("x8 stats wrong: %+v", e)
	}
}

func TestErrorBitsUnion(t *testing.T) {
	a := NewErrorBits(X4)
	a.Set(0, 0)
	b := NewErrorBits(X4)
	b.Set(3, 7)
	u := a.Union(b)
	if u.BitCount() != 2 || !u.Has(0, 0) || !u.Has(3, 7) {
		t.Errorf("union wrong: %v", u)
	}
}

func TestErrorBitsUnionWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("union across widths should panic")
		}
	}()
	NewErrorBits(X4).Union(NewErrorBits(X8))
}

func TestErrorBitsStringRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 500; trial++ {
		w := X4
		if trial%3 == 0 {
			w = X8
		}
		e := NewErrorBits(w)
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			e.Set(rng.Intn(int(w)), rng.Intn(BurstLength))
		}
		back, err := ParseErrorBits(w, e.String())
		if err != nil {
			t.Fatalf("parse %q: %v", e.String(), err)
		}
		if back.Mask != e.Mask {
			t.Fatalf("round trip %q: mask %x → %x", e.String(), e.Mask, back.Mask)
		}
	}
}

func TestParseErrorBitsRejectsGarbage(t *testing.T) {
	for _, s := range []string{"x", "b0:12345", "b0:102", "bx:1000", "b0:1000 b1:", "b10:0100", "b-1:0100"} {
		if _, err := ParseErrorBits(X4, s); err == nil {
			t.Errorf("ParseErrorBits(%q) should fail", s)
		}
	}
}

func TestParseErrorBitsEmpty(t *testing.T) {
	e, err := ParseErrorBits(X4, "none")
	if err != nil || !e.IsZero() {
		t.Errorf("parse none: %v %v", e, err)
	}
}

// Property: counts are consistent — DQCount and BeatCount are each ≤
// BitCount, intervals are bounded by the geometry, and BitCount equals the
// number of distinct Set positions.
func TestErrorBitsInvariantsQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		e := NewErrorBits(X4)
		n := int(nRaw % 12)
		type pos struct{ dq, beat int }
		seen := map[pos]bool{}
		for i := 0; i < n; i++ {
			p := pos{rng.Intn(4), rng.Intn(BurstLength)}
			seen[p] = true
			e.Set(p.dq, p.beat)
		}
		if e.BitCount() != len(seen) {
			return false
		}
		if e.DQCount() > e.BitCount() || e.BeatCount() > e.BitCount() {
			return false
		}
		if e.DQInterval() > 3 || e.BeatInterval() > 7 {
			return false
		}
		if e.DQCount() >= 2 && e.DQInterval() < 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
