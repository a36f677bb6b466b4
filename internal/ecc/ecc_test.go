package ecc

import (
	"testing"
	"testing/quick"

	"memfp/internal/dram"
	"memfp/internal/xrand"
)

func bitsAt(w dram.Width, positions ...[2]int) dram.ErrorBits {
	e := dram.NewErrorBits(w)
	for _, p := range positions {
		e.Set(p[0], p[1])
	}
	return e
}

func singleDev(dev int, e dram.ErrorBits) Transaction {
	return Transaction{PerDevice: map[int]dram.ErrorBits{dev: e}}
}

func TestPurleySDDCRiskyPattern(t *testing.T) {
	c := NewPurleySDDC()
	// 2 DQs / 2 beats (the Fig. 5 precursor) must remain correctable.
	if got := c.Classify(singleDev(0, bitsAt(dram.X4, [2]int{0, 0}, [2]int{1, 4}))); got != Corrected {
		t.Errorf("2DQ/2beat should be CE: %v", got)
	}
	// Dense ≥3 DQ, ≥6 beat single-chip pattern escalates.
	dense := dram.NewErrorBits(dram.X4)
	for b := 0; b < 6; b++ {
		dense.Set(b%3, b)
	}
	if dense.DQCount() < 3 || dense.BeatCount() < 6 {
		t.Fatalf("test pattern wrong: %v", dense)
	}
	if got := c.Classify(singleDev(0, dense)); got != Uncorrected {
		t.Errorf("dense single-chip on Purley should be UE: %v", got)
	}
}

func TestWhitleyStrongerThanPurley(t *testing.T) {
	purley, whitley := NewPurleySDDC(), NewWhitleySDDC()
	// The pattern that kills Purley (3 DQ / 6 beats) is corrected by
	// Whitley — the paper's ECC-generation difference.
	dense := dram.NewErrorBits(dram.X4)
	for b := 0; b < 6; b++ {
		dense.Set(b%3, b)
	}
	if purley.Classify(singleDev(0, dense)) != Uncorrected {
		t.Error("Purley should fail the dense pattern")
	}
	if whitley.Classify(singleDev(0, dense)) != Corrected {
		t.Error("Whitley should correct the dense pattern")
	}
	// Both fail multi-device.
	two := Transaction{PerDevice: map[int]dram.ErrorBits{
		0: bitsAt(dram.X4, [2]int{0, 0}, [2]int{1, 1}),
		5: bitsAt(dram.X4, [2]int{2, 3}, [2]int{3, 4}),
	}}
	if purley.Classify(two) != Uncorrected || whitley.Classify(two) != Uncorrected {
		t.Error("Intel SDDC must fail multi-device errors")
	}
}

func TestK920SDDC(t *testing.T) {
	c := K920SDDC{}
	// Any single-device pattern corrected.
	dense := dram.NewErrorBits(dram.X4)
	for dq := 0; dq < 4; dq++ {
		for b := 0; b < 8; b++ {
			dense.Set(dq, b)
		}
	}
	if c.Classify(singleDev(0, dense)) != Corrected {
		t.Error("K920 should correct any single-device pattern")
	}
	// Two devices, second with one bit: corrected (erasure-assisted).
	mild := Transaction{PerDevice: map[int]dram.ErrorBits{
		0: dense,
		1: bitsAt(dram.X4, [2]int{0, 0}),
	}}
	if c.Classify(mild) != Corrected {
		t.Error("K920 should correct device + single-bit neighbor")
	}
	// Two devices multi-bit each: uncorrectable.
	bad := Transaction{PerDevice: map[int]dram.ErrorBits{
		0: bitsAt(dram.X4, [2]int{0, 0}, [2]int{1, 1}),
		1: bitsAt(dram.X4, [2]int{2, 2}, [2]int{3, 3}),
	}}
	if c.Classify(bad) != Uncorrected {
		t.Error("K920 should fail two multi-bit devices")
	}
	// Three devices: uncorrectable.
	three := Transaction{PerDevice: map[int]dram.ErrorBits{
		0: bitsAt(dram.X4, [2]int{0, 0}),
		1: bitsAt(dram.X4, [2]int{0, 0}),
		2: bitsAt(dram.X4, [2]int{0, 0}),
	}}
	if c.Classify(three) != Uncorrected {
		t.Error("K920 should fail three devices")
	}
}

// Property: correction-strength ordering. Any transaction corrected by
// Purley is corrected by Whitley; any corrected by Whitley-on-one-device
// is corrected by K920 (strict hierarchy the paper's findings rely on).
func TestStrengthOrderingQuick(t *testing.T) {
	purley, whitley, k920 := NewPurleySDDC(), NewWhitleySDDC(), K920SDDC{}
	f := func(seed uint64, nBits uint8, twoDev bool) bool {
		rng := xrand.New(seed)
		tx := Transaction{PerDevice: map[int]dram.ErrorBits{}}
		dev := rng.Intn(18)
		e := dram.NewErrorBits(dram.X4)
		for i := 0; i < int(nBits%16)+1; i++ {
			e.Set(rng.Intn(4), rng.Intn(8))
		}
		tx.PerDevice[dev] = e
		if twoDev {
			e2 := dram.NewErrorBits(dram.X4)
			e2.Set(rng.Intn(4), rng.Intn(8))
			tx.PerDevice[(dev+1)%18] = e2
		}
		if purley.Classify(tx) == Corrected && whitley.Classify(tx) == Uncorrected {
			return false
		}
		if whitley.Classify(tx) == Corrected && !twoDev && k920.Classify(tx) == Uncorrected {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOutcomeString(t *testing.T) {
	if Corrected.String() != "CE" || Uncorrected.String() != "UE" {
		t.Error("outcome strings wrong")
	}
}

func TestTransactionCounts(t *testing.T) {
	tx := Transaction{PerDevice: map[int]dram.ErrorBits{
		0: bitsAt(dram.X4, [2]int{0, 0}, [2]int{1, 1}),
		1: {Width: dram.X4}, // zero-bit entry must not count
		2: bitsAt(dram.X4, [2]int{2, 2}),
	}}
	if tx.Devices() != 2 {
		t.Errorf("devices %d, want 2", tx.Devices())
	}
}
