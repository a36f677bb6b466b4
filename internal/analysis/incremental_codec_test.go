package analysis

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/trace"
)

func randCE(rng *rand.Rand) trace.Event {
	return trace.Event{
		Type: trace.TypeCE,
		Addr: dram.Addr{
			Rank:   uint8(rng.Intn(2)),
			Device: uint8(rng.Intn(6)),
			Bank:   uint8(rng.Intn(4)),
			Row:    uint32(rng.Intn(32)),
			Column: uint16(rng.Intn(32)),
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
		x := NewIncremental()
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
	x := NewIncremental()
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

// TestIncrementalCodecRefusesUnpackableCell: a cell the classifier could
// not key — a field negative or wider than its cell-ID field — is refused
// with the field, its value and the width named.
func TestIncrementalCodecRefusesUnpackableCell(t *testing.T) {
	for _, c := range []struct {
		cell [5]int64
		want string
	}{
		{[5]int64{0, 0, 0, 1 << 24, 0}, "row 16777216 outside its 24-bit cell-ID field"},
		{[5]int64{0, 0, 0, 0, -1}, "column -1 outside its 16-bit cell-ID field"},
		{[5]int64{256, 0, 0, 0, 0}, "rank 256 outside its 8-bit cell-ID field"},
		{[5]int64{0, 0, 0, 0, 1 << 16}, "column 65536 outside its 16-bit cell-ID field"},
	} {
		var w trace.BinWriter
		w.Uvarint(1)
		for _, v := range c.cell {
			w.Varint(v)
		}
		w.Varint(1)
		r := trace.NewBinReader(w.Buf)
		DecodeIncremental(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("cell %v: %v, want %q", c.cell, err, c.want)
		}
	}
}

// TestIncrementalCodecGoldenBytes pins the MFS4 cell list on one fixed
// multiset spanning all five address fields, each at values that order
// differently field by field than they would as one flat number (a high
// row under a low bank, a high column under a low row, every field at its
// widest): the cells must come out in (rank, device, bank, row, column)
// order, byte for byte.
func TestIncrementalCodecGoldenBytes(t *testing.T) {
	x := NewIncremental()
	for _, c := range []struct{ rank, dev, bank, row, col, n int }{
		{1, 17, 15, 1<<17 - 1, 1<<10 - 1, 3},
		{0, 0, 0, 0, 0, 1},
		{0, 5, 3, 70000, 513, 2},
		{0, 0, 1, 0, 0, 1},
		{0, 0, 0, 1 << 20, 0, 1},
		{0, 0, 0, 1, 0, 4},
		{0, 0, 0, 0, 1<<16 - 1, 1},
		{0, 1, 0, 0, 0, 1},
		{1, 0, 0, 0, 0, 2},
		{0, 17, 15, 1<<17 - 1, 1<<10 - 1, 1},
		{1<<8 - 1, 1<<8 - 1, 1<<8 - 1, 1<<24 - 1, 1<<16 - 1, 1},
	} {
		for i := 0; i < c.n; i++ {
			x.Add(ceOn(c.rank, c.dev, c.bank, c.row, c.col))
		}
	}
	const want = "0b00000000000200000000feff0702000000020008000000808080010002000002000002000200000002000a06e0c50882080400221efeff0ffe0f0202000000000402221efeff0ffe0f06fe03fe03fe03feffff0ffeff0702"
	if got := hex.EncodeToString(encodeIncremental(x)); got != want {
		t.Fatalf("MFS4 cell bytes moved:\n got %s\nwant %s", got, want)
	}
}
