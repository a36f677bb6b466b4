package features

import (
	"context"
	"reflect"
	"testing"

	"memfp/internal/faultsim"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// busyLogs returns generated DIMM logs with at least minCEs CE events.
func busyLogs(t *testing.T, minCEs, max int) []*trace.DIMMLog {
	t.Helper()
	res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.Purley, Scale: 0.01, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var out []*trace.DIMMLog
	for _, l := range res.Store.DIMMs() {
		if len(l.CEs()) >= minCEs {
			out = append(out, l)
			if len(out) == max {
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no busy DIMMs at this scale")
	}
	return out
}

// TestServeCursorMatchesFreshExtract replays real DIMM histories through
// a growing log — the serving engine's ingestion pattern — and checks
// that the cursor-backed vector at every CE instant equals the
// pre-cursor full-scan extraction over the log's state at that moment.
func TestServeCursorMatchesFreshExtract(t *testing.T) {
	for _, src := range busyLogs(t, 10, 5) {
		live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
		sc := x0.NewServeCursor(live)
		checked := 0
		for _, e := range src.Events {
			live.Append(e)
			if e.Type != trace.TypeCE {
				continue
			}
			got := sc.ExtractAt(e.Time)
			want := naiveExtract(x0, live, e.Time)
			if !reflect.DeepEqual(got, want) {
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s @%v: feature %q cursor %v != fresh %v",
							src.ID, e.Time, Names()[k], got[k], want[k])
					}
				}
			}
			checked++
		}
		if live.IndexGen() != 0 {
			t.Fatalf("%s: an in-order replay re-sorted the log", src.ID)
		}
		if checked == 0 {
			t.Fatalf("%s: no CE instants checked", src.ID)
		}
	}
}

// TestServeCursorOutOfOrderFallback appends a late event mid-stream: Append
// re-sorts the log, the cursor sees the new index generation and starts
// over, and every vector — at the late event's instant and after it —
// equals a fresh cursor over the live log and the full-scan oracle over a
// bulk load of the same events sorted by SortEvents.
func TestServeCursorOutOfOrderFallback(t *testing.T) {
	src := busyLogs(t, 20, 1)[0]
	ces := src.CEs()
	live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
	sc := x0.NewServeCursor(live)
	for _, e := range ces[:10] {
		live.Append(e)
		sc.ExtractAt(e.Time)
	}
	// A late-arriving event older than everything served so far.
	stale := ces[0]
	stale.Time = ces[0].Time - 10
	gen, before := live.IndexGen(), sc.inner
	live.Append(stale)
	if live.IndexGen() == gen {
		t.Fatal("a late append must re-sort the log and advance IndexGen")
	}
	if live.Events[0] != stale {
		t.Fatal("the late event was not sorted to the front")
	}
	check := func(at trace.Minutes, n int) {
		t.Helper()
		bulk := &trace.DIMMLog{ID: src.ID, Part: src.Part,
			Events: append([]trace.Event{stale}, ces[:n]...)}
		bulk.SortEvents()
		got := sc.ExtractAt(at)
		if want := x0.NewCursor(live).ExtractAt(at); !reflect.DeepEqual(got, want) {
			t.Fatalf("@%v: cursor diverged from a fresh cursor", at)
		}
		if want := naiveExtract(x0, bulk, at); !reflect.DeepEqual(got, want) {
			t.Fatalf("@%v: cursor diverged from the sorted bulk load", at)
		}
	}
	check(ces[9].Time+1, 10)
	if sc.inner == before {
		t.Fatal("cursor survived the re-sort")
	}
	for i, e := range ces[10:14] {
		live.Append(e)
		check(e.Time, 11+i)
	}
}

// TestServeCursorNonMonotonicInstant checks the rewind path: asking for
// an instant before the previous one rebuilds the incremental state and
// still answers exactly.
func TestServeCursorNonMonotonicInstant(t *testing.T) {
	src := busyLogs(t, 20, 1)[0]
	live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
	for _, e := range src.Events {
		live.Append(e)
	}
	ces := live.CEs()
	sc := x0.NewServeCursor(live)
	seq := []trace.Minutes{ces[10].Time, ces[3].Time, ces[15].Time, ces[15].Time, ces[2].Time - 1}
	for _, at := range seq {
		if got, want := sc.ExtractAt(at), naiveExtract(x0, live, at); !reflect.DeepEqual(got, want) {
			t.Fatalf("@%v: rewound cursor diverged", at)
		}
	}
}

// sameVec fails the test at the first feature where got and want differ.
func sameVec(t *testing.T, got, want []float64, format string, args ...any) {
	t.Helper()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf(format+": feature %q %v != %v", append(args, Names()[k], got[k], want[k])...)
		}
	}
}

// TestServeCursorRebasesAcrossCompaction drives the serving engine's
// pattern — append, ExtractAt(t), CompactLog(l, t−Δtd) — and checks two
// things at every instant: the vector equals the full-scan oracle over an
// uncompacted twin, and the cursor that computed it is still the one the
// first call built. A compaction behind the window costs the cursor a
// position shift, never the fold-state clone and window re-fold of a
// rebuild.
func TestServeCursorRebasesAcrossCompaction(t *testing.T) {
	w := x0.Windows.Observation
	for _, src := range busyLogs(t, 10, 5) {
		live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
		oracle := &trace.DIMMLog{ID: src.ID, Part: src.Part}
		sc := x0.NewServeCursor(live)
		var first *Cursor
		compactions := 0
		for _, e := range src.Events {
			live.Append(e)
			oracle.Append(e)
			if e.Type != trace.TypeCE {
				continue
			}
			got := sc.ExtractAt(e.Time)
			sameVec(t, got, naiveExtract(x0, oracle, e.Time), "%s @%v after %d compactions", src.ID, e.Time, compactions)
			if first == nil {
				first = sc.inner
			}
			if sc.inner != first {
				t.Fatalf("%s @%v: cursor rebuilt after %d compactions", src.ID, e.Time, compactions)
			}
			if x0.CompactLog(live, e.Time-w) > 0 {
				compactions++
			}
		}
		if compactions < 2 {
			t.Fatalf("%s: %d compactions; test proves nothing", src.ID, compactions)
		}
		if got := sc.inner.ceBase + len(sc.inner.ces); got != len(oracle.CEs()) {
			t.Fatalf("%s: rebased cursor accounts for %d CEs, log saw %d", src.ID, got, len(oracle.CEs()))
		}
	}
}

// TestServeCursorCompactionFallbacks pins the three cases where a
// compaction cannot be absorbed by shifting positions: each must rebuild
// the cursor and still answer like a fresh cursor over the same log.
func TestServeCursorCompactionFallbacks(t *testing.T) {
	w := x0.Windows.Observation
	src := busyLogs(t, 30, 1)[0]
	ces := src.CEs()
	// An instant whose window holds an earlier CE: cutting at the instant
	// itself then drops an event the cursor still counts in its window.
	at := len(ces) / 2
	for at < len(ces) && !(ces[at-1].Time < ces[at].Time && ces[at-1].Time >= ces[at].Time-w) {
		at++
	}
	if at == len(ces) {
		t.Fatal("no CE with a predecessor inside its window; pick a busier fixture")
	}
	lastT := ces[at].Time
	// serve returns a live log fed every event up to lastT, compacted once
	// behind the window, and the cursor that served it.
	serve := func() (*trace.DIMMLog, *ServeCursor) {
		live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
		sc := x0.NewServeCursor(live)
		for _, e := range src.Events {
			if e.Time > lastT {
				break
			}
			live.Append(e)
			if e.Type == trace.TypeCE {
				sc.ExtractAt(e.Time)
			}
		}
		if x0.CompactLog(live, lastT-w) == 0 {
			t.Fatal("compaction dropped nothing; pick a busier fixture")
		}
		sc.ExtractAt(lastT)
		return live, sc
	}

	t.Run("cut inside the window", func(t *testing.T) {
		live, sc := serve()
		before := sc.inner
		if x0.CompactLog(live, lastT) == 0 {
			t.Fatal("compaction dropped nothing")
		}
		sameVec(t, sc.ExtractAt(lastT+1), x0.NewCursor(live).ExtractAt(lastT+1), "@%v", lastT+1)
		if sc.inner == before {
			t.Fatal("cursor kept window state over dropped events")
		}
	})
	t.Run("SortEvents between compactions", func(t *testing.T) {
		live, sc := serve()
		before := sc.inner
		live.SortEvents()
		fed := len(live.Events) + live.CompactedEvents()
		now, again := lastT, false
		for ; fed < len(src.Events) && !again; fed++ {
			live.Append(src.Events[fed])
			now = src.Events[fed].Time
			again = x0.CompactLog(live, now-w) > 0
		}
		if !again {
			t.Fatal("no second compaction; pick a busier fixture")
		}
		oracle := &trace.DIMMLog{ID: src.ID, Part: src.Part, Events: src.Events[:fed]}
		sameVec(t, sc.ExtractAt(now), x0.NewCursor(live).ExtractAt(now), "@%v", now)
		sameVec(t, sc.ExtractAt(now), naiveExtract(x0, oracle, now), "@%v vs oracle", now)
		if sc.inner == before {
			t.Fatal("cursor survived an index rebuild")
		}
	})
	t.Run("instant goes backwards", func(t *testing.T) {
		live, sc := serve()
		before := sc.inner
		sameVec(t, sc.ExtractAt(lastT-1), x0.NewCursor(live).ExtractAt(lastT-1), "@%v", lastT-1)
		if sc.inner == before {
			t.Fatal("cursor did not rewind")
		}
	})
}

// TestServeCursorUEOnlyCompaction: a compaction that drops only UEs moves
// nothing the cursor indexes, so the cursor is left exactly as it was.
func TestServeCursorUEOnlyCompaction(t *testing.T) {
	src := busyLogs(t, 10, 1)[0]
	ces := src.CEs()
	ue := trace.Event{Time: ces[0].Time - 2, Type: trace.TypeUE, DIMM: src.ID}
	live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
	oracle := &trace.DIMMLog{ID: src.ID, Part: src.Part}
	for _, e := range append([]trace.Event{ue}, ces[:5]...) {
		live.Append(e)
		oracle.Append(e)
	}
	at := ces[4].Time
	sc := x0.NewServeCursor(live)
	sc.ExtractAt(at)
	before, state := sc.inner, *sc.inner
	if n := live.CompactBefore(ces[0].Time-1, nil); n != 1 || live.Compaction().UEs != 1 {
		t.Fatalf("dropped %d events, %d UEs; want the one UE", n, live.Compaction().UEs)
	}
	sameVec(t, sc.ExtractAt(at), naiveExtract(x0, oracle, at), "@%v", at)
	c := sc.inner
	if c != before || c.pos != state.pos || c.winStart != state.winStart || c.stormPos != state.stormPos ||
		c.ceBase != state.ceBase || c.stormBase != state.stormBase {
		t.Fatal("UE-only compaction moved the cursor")
	}
}
