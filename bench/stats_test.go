package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	// The classic nearest-rank example: ranks ceil(p/100 · 5).
	xs := []float64{35, 20, 15, 50, 40} // sorted: 15 20 35 40 50
	cases := []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {21, 20}, {30, 20}, {40, 20}, {50, 35}, {60, 35}, {61, 40}, {95, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 35 {
		t.Error("percentile sorted its argument in place")
	}
	// 20 samples: p95 is the 19th, so exactly one sample lies beyond it.
	var ys []float64
	for i := 1; i <= 20; i++ {
		ys = append(ys, float64(i))
	}
	if got := percentile(ys, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSummarizeOverRepetitions(t *testing.T) {
	if got, want := summarize([]float64{3, 1, 2}), (summary{Median: 2, Min: 1, Max: 3, N: 3}); got != want {
		t.Errorf("three repetitions: got %+v, want %+v", got, want)
	}
	if got, want := summarize([]float64{4, 1, 3, 2}), (summary{Median: 2.5, Min: 1, Max: 4, N: 4}); got != want {
		t.Errorf("four repetitions: got %+v, want %+v", got, want)
	}
	if got, want := summarize([]float64{7}), (summary{Median: 7, Min: 7, Max: 7, N: 1}); got != want {
		t.Errorf("one repetition: got %+v, want %+v", got, want)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("no repetitions: got %+v, want zero", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		// A tick of 100 ns whose two node requests overlap each other
		// (10–50 and 30–70): together they cover 10–70, so 40 ns is the
		// tick's own.
		{ID: 0, Parent: -1, Name: spanTick, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanNodeIngest, Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: spanNodeIngest, Start: 30, End: 70},
		// A grandchild is charged to its parent, not to the tick.
		{ID: 3, Parent: 1, Name: spanNodeCkpt, Start: 20, End: 30},
		// A pipelined child that outlives its parent (80–150 under a
		// parent ending at 120) covers only the part inside it, and a
		// child nested inside another adds nothing.
		{ID: 4, Parent: -1, Name: spanTick, Start: 60, End: 120},
		{ID: 5, Parent: 4, Name: spanCPIngest, Start: 80, End: 150},
		{ID: 6, Parent: 4, Name: spanCPFlush, Start: 90, End: 100},
	}
	want := map[int]int64{0: 40, 1: 30, 2: 40, 3: 10, 4: 20, 5: 70, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestClassify(t *testing.T) {
	lowerIsBetter := metricDef{Name: "tick_p50_ms", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "replay_events_per_s", Better: higher, Bound: 0.10}
	s := func(med, lo, hi float64) summary { return summary{Median: med, Min: lo, Max: hi, N: 3} }
	cases := []struct {
		name     string
		def      metricDef
		old, cur summary
		want     string
	}{
		{"within the bound", lowerIsBetter, s(10, 9, 11), s(10.9, 10, 12), verdictSame},
		{"slower, ranges apart", lowerIsBetter, s(10, 9, 11), s(13, 12, 14), verdictWorse},
		{"slower, ranges overlap", lowerIsBetter, s(10, 9, 12.5), s(13, 12, 14), verdictUnresolved},
		{"faster, ranges apart", lowerIsBetter, s(10, 9, 11), s(7, 6, 8), verdictBetter},
		{"faster, ranges overlap", lowerIsBetter, s(10, 7.5, 11), s(7, 6, 8), verdictUnresolved},
		{"throughput up is better", higherIsBetter, s(100, 95, 105), s(130, 125, 135), verdictBetter},
		{"throughput down is worse", higherIsBetter, s(100, 95, 105), s(70, 65, 75), verdictWorse},
		{"throughput down within the bound", higherIsBetter, s(100, 95, 105), s(91, 90, 92), verdictSame},
		{"exactly at the bound", lowerIsBetter, s(10, 10, 10), s(11, 11, 11), verdictSame},
	}
	for _, c := range cases {
		if got, _ := classify(c.def, c.old, c.cur); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
	if _, change := classify(higherIsBetter, s(100, 95, 105), s(70, 65, 75)); change < 0.29 || change > 0.31 {
		t.Errorf("a 30%% throughput drop reported as change %v, want +0.30 (positive is worse)", change)
	}
}

func TestWatchdogExpiresOnlyArmedOperations(t *testing.T) {
	var fired atomic.Pointer[string]
	dog := startWatchdog(40*time.Millisecond, func(op string) { fired.Store(&op) })
	dog.arm("quick op", -1)
	dog.disarm()
	time.Sleep(80 * time.Millisecond)
	if op := fired.Load(); op != nil {
		t.Fatalf("watchdog fired on %q after it was disarmed", *op)
	}
	dog.arm("live tick", 7)
	deadline := time.Now().Add(2 * time.Second)
	for fired.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	dog.stopWatchdog()
	if op := fired.Load(); op == nil || *op != "live tick 7" {
		t.Fatalf("watchdog did not report the wedged operation: got %v", op)
	}
}
