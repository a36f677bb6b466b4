package analysis

import (
	"math/rand"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/trace"
)

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

// TestSlidingMatchesClassify slides windows of random sizes over random
// CE streams: after each slide, the incremental classification must equal
// the batch Classify over the window's contents.
func TestSlidingMatchesClassify(t *testing.T) {
	th := DefaultThresholds()
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		events := randCEs(rng, 400)
		s := NewSliding(th)
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
		}
		// Drain completely: the empty window must classify as empty and the
		// maps must not leak entries.
		for ; lo < hi; lo++ {
			s.Remove(events[lo])
		}
		if got := s.Class(); got != (Class{Mode: CompSporadic}) {
			t.Fatalf("trial %d: drained window classifies as %+v", trial, got)
		}
		if s.MemEstimate() != NewSliding(th).MemEstimate() {
			t.Fatalf("trial %d: drained window retains map entries (est %d)", trial, s.MemEstimate())
		}
	}
}
