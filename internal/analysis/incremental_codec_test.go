package analysis

import (
	"bytes"
	"math/rand"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/trace"
)

func randCE(rng *rand.Rand) trace.Event {
	return trace.Event{
		Type: trace.TypeCE,
		Addr: dram.Addr{
			Rank:   rng.Intn(2),
			Device: rng.Intn(6),
			Bank:   rng.Intn(4),
			Row:    rng.Intn(32),
			Column: rng.Intn(32),
		},
	}
}

// assertIncrementalEqual compares every externally observable facet of
// two accumulators.
func assertIncrementalEqual(t *testing.T, got, want *Incremental, when string) {
	t.Helper()
	if got.Class() != want.Class() {
		t.Fatalf("%s: Class %+v, want %+v", when, got.Class(), want.Class())
	}
	if got.DistinctBanks() != want.DistinctBanks() ||
		got.DistinctRows() != want.DistinctRows() ||
		got.DistinctCols() != want.DistinctCols() ||
		got.MaxCellCEs() != want.MaxCellCEs() ||
		got.events != want.events {
		t.Fatalf("%s: distinct counts diverge", when)
	}
}

// TestIncrementalCodecRoundTrip serializes a populated accumulator,
// restores it, and then keeps feeding both copies the same events: the
// restored maps must behave identically to the originals, not just
// report equal snapshots.
func TestIncrementalCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		x := NewIncremental(DefaultThresholds())
		for i := 0; i < rng.Intn(400); i++ {
			x.Add(randCE(rng))
		}
		var w trace.BinWriter
		x.AppendBinary(&w)
		r := trace.NewBinReader(w.Buf)
		y := DecodeIncremental(r)
		if err := r.Err(); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: %d trailing bytes", trial, r.Remaining())
		}
		assertIncrementalEqual(t, y, x, "after restore")

		// Determinism: equal state encodes to equal bytes.
		var w2 trace.BinWriter
		y.AppendBinary(&w2)
		if !bytes.Equal(w.Buf, w2.Buf) {
			t.Fatalf("trial %d: encoding not deterministic", trial)
		}

		for i := 0; i < 200; i++ {
			e := randCE(rng)
			x.Add(e)
			y.Add(e)
		}
		assertIncrementalEqual(t, y, x, "after continued adds")
	}
}

// TestIncrementalCodecTruncation latches errors instead of panicking on
// truncated input.
func TestIncrementalCodecTruncation(t *testing.T) {
	x := NewIncremental(DefaultThresholds())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		x.Add(randCE(rng))
	}
	var w trace.BinWriter
	x.AppendBinary(&w)
	for cut := 0; cut < len(w.Buf); cut += 5 {
		r := trace.NewBinReader(w.Buf[:cut])
		DecodeIncremental(r)
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(w.Buf))
		}
	}
}
