package analysis

import (
	"bytes"
	"math/rand"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// randomCEs draws a clustered CE batch: addresses are confined to small
// rank/device/bank/row/column ranges so the threshold rules actually
// trigger (uniform draws over real geometry would almost never repeat a
// cell).
func randomCEs(rng *xrand.RNG, n int) []trace.Event {
	events := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, trace.Event{
			Time: trace.Minutes(i),
			Type: trace.TypeCE,
			Addr: dram.Addr{
				Rank:   rng.Intn(2),
				Device: rng.Intn(4),
				Bank:   rng.Intn(3),
				Row:    rng.Intn(6),
				Column: rng.Intn(6),
			},
		})
	}
	return events
}

// TestIncrementalMatchesClassify property-tests the O(1)-per-event
// incremental classifier against the batch Classify oracle at every
// prefix length, under both the default and randomized thresholds.
func TestIncrementalMatchesClassify(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 30; trial++ {
		th := DefaultThresholds()
		if trial%2 == 1 {
			th = Thresholds{
				CellCEs:         1 + rng.Intn(4),
				RowDistinctCols: 1 + rng.Intn(4),
				ColDistinctRows: 1 + rng.Intn(4),
				BankFaultyRows:  1 + rng.Intn(3),
				BankFaultyCols:  1 + rng.Intn(3),
				DeviceMinCEs:    1 + rng.Intn(4),
			}
		}
		events := randomCEs(rng, 1+rng.Intn(300))
		inc := NewIncremental(th)
		for i, e := range events {
			inc.Add(e)
			// Check every short prefix and a sample of long ones: the
			// batch oracle is quadratic over the whole test otherwise.
			if i > 40 && i%17 != 0 && i != len(events)-1 {
				continue
			}
			want := Classify(events[:i+1], th)
			if got := inc.Class(); got != want {
				t.Fatalf("trial %d prefix %d: incremental %+v != batch %+v (th=%+v)",
					trial, i+1, got, want, th)
			}
		}

		// Distinct-structure counts against direct set construction.
		banks := map[[3]int]struct{}{}
		rows := map[[4]int]struct{}{}
		cols := map[[4]int]struct{}{}
		cells := map[[5]int]int{}
		maxCell := 0
		for _, e := range events {
			a := e.Addr
			banks[[3]int{a.Rank, a.Device, a.Bank}] = struct{}{}
			rows[[4]int{a.Rank, a.Device, a.Bank, a.Row}] = struct{}{}
			cols[[4]int{a.Rank, a.Device, a.Bank, a.Column}] = struct{}{}
			k := [5]int{a.Rank, a.Device, a.Bank, a.Row, a.Column}
			cells[k]++
			if cells[k] > maxCell {
				maxCell = cells[k]
			}
		}
		if inc.DistinctBanks() != len(banks) || inc.DistinctRows() != len(rows) ||
			inc.DistinctCols() != len(cols) || inc.MaxCellCEs() != maxCell {
			t.Fatalf("trial %d: distinct counts (%d,%d,%d,max %d) != (%d,%d,%d,max %d)",
				trial, inc.DistinctBanks(), inc.DistinctRows(), inc.DistinctCols(), inc.MaxCellCEs(),
				len(banks), len(rows), len(cols), maxCell)
		}
		if inc.events != len(events) {
			t.Fatalf("trial %d: events = %d, want %d", trial, inc.events, len(events))
		}
	}
}

// TestIncrementalEmpty checks the zero-event classification.
func TestIncrementalEmpty(t *testing.T) {
	inc := NewIncremental(DefaultThresholds())
	if got, want := inc.Class(), Classify(nil, DefaultThresholds()); got != want {
		t.Fatalf("empty incremental %+v != batch %+v", got, want)
	}
}

// randCEs generates a CE stream concentrated on few structures so the
// thresholds actually trip (and un-trip as the window slides).
func randCEs(rng *rand.Rand, n int) []trace.Event {
	out := make([]trace.Event, n)
	for i := range out {
		out[i] = trace.Event{
			Time: trace.Minutes(i),
			Type: trace.TypeCE,
			Addr: dram.Addr{
				Rank:   rng.Intn(2),
				Device: rng.Intn(4),
				Bank:   rng.Intn(3),
				Row:    rng.Intn(5),
				Column: rng.Intn(5),
			},
		}
	}
	return out
}

func encodeIncremental(x *Incremental) []byte {
	var w trace.BinWriter
	x.AppendBinary(&w)
	return w.Buf
}

// TestSlidingMatchesClassify slides windows of random sizes over random
// CE streams: after each slide, the incremental classification must equal
// the batch Classify over the window's contents, and the whole state must
// be the one a classifier freshly built over those contents has — same
// read-outs, same bytes — so nothing remembers the path that led there.
func TestSlidingMatchesClassify(t *testing.T) {
	th := DefaultThresholds()
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		events := randCEs(rng, 400)
		s := NewIncremental(th)
		lo, hi := 0, 0
		for step := 0; step < 120; step++ {
			// Advance the window by random amounts on both ends.
			nhi := min(hi+rng.Intn(8), len(events))
			nlo := min(lo+rng.Intn(6), nhi)
			for ; hi < nhi; hi++ {
				s.Add(events[hi])
			}
			for ; lo < nlo; lo++ {
				s.Remove(events[lo])
			}
			got, want := s.Class(), Classify(events[lo:hi], th)
			if got != want {
				t.Fatalf("trial %d step %d window [%d,%d): sliding %+v != batch %+v",
					trial, step, lo, hi, got, want)
			}
			if s.events != hi-lo {
				t.Fatalf("trial %d step %d: events=%d, want %d", trial, step, s.events, hi-lo)
			}

			fresh := NewIncremental(th)
			for _, e := range events[lo:hi] {
				fresh.Add(e)
			}
			assertIncrementalEqual(t, s, fresh, "window state vs freshly built")
			enc := encodeIncremental(s)
			if !bytes.Equal(enc, encodeIncremental(fresh)) {
				t.Fatalf("trial %d step %d: encoding depends on add/remove history", trial, step)
			}
			r := trace.NewBinReader(enc)
			back := DecodeIncremental(r)
			if r.Err() != nil || r.Remaining() != 0 || !bytes.Equal(encodeIncremental(back), enc) {
				t.Fatalf("trial %d step %d: decode -> encode is not a fixpoint (err %v)", trial, step, r.Err())
			}
			if s.MemEstimate() != fresh.MemEstimate() {
				t.Fatalf("trial %d step %d: MemEstimate %d, freshly built %d", trial, step, s.MemEstimate(), fresh.MemEstimate())
			}
		}
		// Drain completely: the empty window must classify as empty and the
		// maps must not leak entries.
		for ; lo < hi; lo++ {
			s.Remove(events[lo])
		}
		if got := s.Class(); got != (Class{Mode: CompSporadic}) {
			t.Fatalf("trial %d: drained window classifies as %+v", trial, got)
		}
		if s.MemEstimate() != NewIncremental(th).MemEstimate() {
			t.Fatalf("trial %d: drained window retains map entries (est %d)", trial, s.MemEstimate())
		}
	}
}
