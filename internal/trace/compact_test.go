package trace

import (
	"slices"
	"testing"

	"memfp/internal/xrand"
)

// compactPair builds an (oracle, compacted) log pair over the same random
// event mix: the oracle keeps full history, the twin is compacted at a
// random cut. Returns the pair and the cut.
func compactPair(t *testing.T, rng *xrand.RNG, nEvents int) (oracle, compacted *DIMMLog, cut Minutes) {
	t.Helper()
	oracle = randomLog(t, rng, nEvents)
	compacted = &DIMMLog{ID: oracle.ID, Part: oracle.Part,
		Events: append([]Event(nil), oracle.Events...)}
	compacted.SortEvents()
	cut = Minutes(rng.Int63n(int64(ObservationSpan)))
	compacted.CompactBefore(cut, nil)
	checkIndexMatchesRebuild(t, compacted)
	return oracle, compacted, cut
}

// checkIndexMatchesRebuild compares the index CompactBefore advanced in
// place with the one SortEvents builds from scratch over the same retained
// events and compaction bookkeeping — what CompactBefore itself used to do.
// It draws its query ranges from its own generator so the callers' trial
// streams are what they were without it.
func checkIndexMatchesRebuild(t *testing.T, comp *DIMMLog) {
	t.Helper()
	rng := xrand.New(uint64(comp.CompactedEvents()))
	if !isIndexed(comp) {
		t.Fatal("compaction left the log unindexed")
	}
	rebuilt := &DIMMLog{ID: comp.ID, Part: comp.Part, Events: append([]Event(nil), comp.Events...)}
	rebuilt.RestoreCompaction(comp.Compaction())
	rebuilt.SortEvents()

	sameEvents := func(what string, got, want []Event) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d events differ from the rebuilt index's %d", what, len(got), len(want))
		}
	}
	sameEvents("CEs", comp.CEs(), rebuilt.CEs())
	sameEvents("UEs", allOf(comp, TypeUE), allOf(rebuilt, TypeUE))
	if !slices.Equal(comp.StormTimes(), rebuilt.StormTimes()) {
		t.Fatalf("StormTimes %v, rebuilt index has %v", comp.StormTimes(), rebuilt.StormTimes())
	}
	gt, gok := comp.FirstCE()
	wt, wok := rebuilt.FirstCE()
	if gt != wt || gok != wok {
		t.Fatalf("FirstCE (%v,%v), rebuilt index has (%v,%v)", gt, gok, wt, wok)
	}
	gt, gok = comp.FirstUE()
	wt, wok = rebuilt.FirstUE()
	if gt != wt || gok != wok {
		t.Fatalf("FirstUE (%v,%v), rebuilt index has (%v,%v)", gt, gok, wt, wok)
	}
	for q := 0; q < 10; q++ {
		from := comp.Compaction().Horizon + Minutes(rng.Int63n(int64(ObservationSpan)))
		to := from + Minutes(rng.Int63n(int64(10*Day)))
		sameEvents("CEsBetween", comp.CEsBetween(from, to), rebuilt.CEsBetween(from, to))
	}
}

// TestCompactBeforeKeepsViewsAndGeneration pins what lets a view consumer
// survive a compaction: a view taken before it still reads its old
// contents (the log advanced into fresh arrays), and the index generation
// stands still because nothing was reordered — while SortEvents, which
// may reorder, still advances it.
func TestCompactBeforeKeepsViewsAndGeneration(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 40; trial++ {
		comp := randomLog(t, rng, 20+rng.Intn(150))
		ces, storms := comp.CEs(), comp.StormTimes()
		wantCEs := append([]Event(nil), ces...)
		wantStorms := append([]Minutes(nil), storms...)
		gen := comp.IndexGen()

		last := comp.Events[len(comp.Events)-1]
		for _, cut := range []Minutes{ObservationSpan / 3, 2 * ObservationSpan / 3} {
			comp.CompactBefore(cut, nil)
			// In-order appends after the drop must land in the new arrays.
			comp.Append(Event{Time: last.Time, Type: TypeCE, DIMM: comp.ID})
			comp.Append(Event{Time: last.Time, Type: TypeStorm, DIMM: comp.ID})
			checkIndexMatchesRebuild(t, comp)
		}
		if comp.CompactedEvents() == 0 {
			continue
		}
		if comp.IndexGen() != gen {
			t.Fatalf("trial %d: compaction moved IndexGen %d -> %d", trial, gen, comp.IndexGen())
		}
		if !slices.Equal(ces, wantCEs) || !slices.Equal(storms, wantStorms) {
			t.Fatalf("trial %d: a view taken before the compactions changed under its holder", trial)
		}
		comp.SortEvents()
		if comp.IndexGen() == gen {
			t.Fatalf("trial %d: SortEvents on a compacted log did not advance IndexGen", trial)
		}
	}
}

// TestCompactBeforeQueriesMatchOracle property-tests that every query the
// serving path relies on is unchanged by compaction: FirstCE/FirstUE
// exactly, and the window queries for any window at or above the horizon.
func TestCompactBeforeQueriesMatchOracle(t *testing.T) {
	rng := xrand.New(4711)
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(200)
		oracle, comp, cut := compactPair(t, rng, n)

		of, ohas := oracle.FirstCE()
		cf, chas := comp.FirstCE()
		if of != cf || ohas != chas {
			t.Fatalf("trial %d: FirstCE (%v,%v) != oracle (%v,%v)", trial, cf, chas, of, ohas)
		}
		ou, ohas := oracle.FirstUE()
		cu, chas := comp.FirstUE()
		if ou != cu || ohas != chas {
			t.Fatalf("trial %d: FirstUE (%v,%v) != oracle (%v,%v)", trial, cu, chas, ou, ohas)
		}

		dropped := comp.CompactedEvents()
		if got := dropped + len(comp.Events); got != len(oracle.Events) {
			t.Fatalf("trial %d: %d dropped + %d retained != %d total",
				trial, dropped, len(comp.Events), len(oracle.Events))
		}
		if h := comp.Compaction().Horizon; dropped > 0 && h != cut {
			t.Fatalf("trial %d: horizon %v, want %v", trial, h, cut)
		}

		// Window queries with from >= horizon are exact.
		for q := 0; q < 20; q++ {
			from := cut + Minutes(rng.Int63n(int64(ObservationSpan)))
			to := from + Minutes(rng.Int63n(int64(10*Day)))
			want := oracle.CEsBetween(from, to)
			got := comp.CEsBetween(from, to)
			if len(want) != len(got) {
				t.Fatalf("trial %d: CEsBetween[%v,%v) %d CEs, oracle %d",
					trial, from, to, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("trial %d: CEsBetween[%v,%v) event %d differs", trial, from, to, i)
				}
			}
		}
	}
}

// TestCompactBeforeOutOfOrderFallback: late events appended to a
// compacted log re-sort it (IndexGen advances) and leave it indexed, with
// Events and every query equal to a bulk load of the same retained and
// late events restored onto the same compaction snapshot and sorted;
// lifetime firsts and windows at or above the horizon still equal the
// uncompacted log given the same events, and the log compacts again.
func TestCompactBeforeOutOfOrderFallback(t *testing.T) {
	rng := xrand.New(271828)
	for trial := 0; trial < 60; trial++ {
		oracle, comp, cut := compactPair(t, rng, 5+rng.Intn(150))
		retained, snap := append([]Event(nil), comp.Events...), comp.Compaction()

		for k := 0; k < 1+rng.Intn(4); k++ {
			late := Event{
				Time: Minutes(rng.Int63n(int64(ObservationSpan))),
				Type: []EventType{TypeCE, TypeUE, TypeStorm}[rng.Intn(3)],
				DIMM: oracle.ID,
			}
			n := len(comp.Events)
			isLate := n > 0 && late.Time < comp.Events[n-1].Time
			gen := comp.IndexGen()
			oracle.Append(late)
			comp.Append(late)
			retained = append(retained, late)
			if moved := comp.IndexGen() != gen; moved != isLate {
				t.Fatalf("trial %d: late=%v but IndexGen moved=%v", trial, isLate, moved)
			}
		}
		sameAsBulkLoad(t, trial, comp, retained, snap)
		checkIndexMatchesRebuild(t, comp)

		of, ohas := oracle.FirstCE()
		cf, chas := comp.FirstCE()
		if of != cf || ohas != chas {
			t.Fatalf("trial %d: FirstCE (%v,%v) != oracle (%v,%v)", trial, cf, chas, of, ohas)
		}
		ou, ouhas := oracle.FirstUE()
		cu, cuhas := comp.FirstUE()
		if ou != cu || ouhas != cuhas {
			t.Fatalf("trial %d: FirstUE (%v,%v) != oracle (%v,%v)", trial, cu, cuhas, ou, ouhas)
		}
		for q := 0; q < 10; q++ {
			from := cut + Minutes(rng.Int63n(int64(ObservationSpan)))
			to := from + Minutes(rng.Int63n(int64(10*Day)))
			if got, want := len(comp.CEsBetween(from, to)), len(oracle.CEsBetween(from, to)); got != want {
				t.Fatalf("trial %d: CEsBetween %d CEs, oracle %d", trial, got, want)
			}
		}

		// The late events are part of the log like any other: a later
		// compaction drops them too.
		comp.CompactBefore(ObservationSpan, nil)
		checkIndexMatchesRebuild(t, comp)
		if len(comp.Events) != 0 {
			t.Fatalf("trial %d: %d events survived a compaction at the end of time", trial, len(comp.Events))
		}
	}
}

// TestCompactBeforeFoldAndRepeat checks the fold callback sees exactly the
// dropped events in time order, repeated compaction accumulates, and the
// retained slice no longer aliases the pre-compaction backing array.
func TestCompactBeforeFoldAndRepeat(t *testing.T) {
	rng := xrand.New(13)
	oracle := randomLog(t, rng, 300)
	comp := &DIMMLog{ID: oracle.ID, Part: oracle.Part,
		Events: append([]Event(nil), oracle.Events...)}
	comp.SortEvents()

	var folded []Event
	cuts := []Minutes{ObservationSpan / 4, ObservationSpan / 2, ObservationSpan / 2, 3 * ObservationSpan / 4}
	total := 0
	for _, cut := range cuts {
		total += comp.CompactBefore(cut, func(e Event) { folded = append(folded, e) })
		checkIndexMatchesRebuild(t, comp)
	}
	if total != comp.CompactedEvents() {
		t.Fatalf("CompactedEvents %d, want %d", comp.CompactedEvents(), total)
	}
	if len(folded) != total {
		t.Fatalf("fold saw %d events, %d dropped", len(folded), total)
	}
	for i, e := range folded {
		if e != oracle.Events[i] {
			t.Fatalf("fold event %d differs from oracle prefix", i)
		}
		if e.Time >= 3*ObservationSpan/4 {
			t.Fatalf("fold event %d at %v is past the final cut", i, e.Time)
		}
	}
	ces, ues, storms := 0, 0, 0
	for _, e := range folded {
		switch e.Type {
		case TypeCE:
			ces++
		case TypeUE:
			ues++
		case TypeStorm:
			storms++
		}
	}
	if cs := comp.Compaction(); cs.CEs != ces || cs.UEs != ues || cs.Storms != storms || cs.Events != total {
		t.Fatalf("compacted counts (%d,%d,%d of %d), want (%d,%d,%d of %d)",
			cs.CEs, cs.UEs, cs.Storms, cs.Events, ces, ues, storms, total)
	}
}

// TestCompactionSnapshotRoundTrip pins the eviction path: rebuilding a log
// from its retained events plus the snapshot restores every query exactly.
func TestCompactionSnapshotRoundTrip(t *testing.T) {
	rng := xrand.New(29)
	for trial := 0; trial < 40; trial++ {
		oracle, comp, cut := compactPair(t, rng, 5+rng.Intn(150))
		snap := comp.Compaction()

		rebuilt := &DIMMLog{ID: comp.ID, Part: comp.Part,
			Events: append([]Event(nil), comp.Events...)}
		rebuilt.RestoreCompaction(snap)
		rebuilt.SortEvents()

		of, ohas := oracle.FirstCE()
		rf, rhas := rebuilt.FirstCE()
		if of != rf || ohas != rhas {
			t.Fatalf("trial %d: rebuilt FirstCE (%v,%v) != oracle (%v,%v)", trial, rf, rhas, of, ohas)
		}
		ou, ouhas := oracle.FirstUE()
		ru, ruhas := rebuilt.FirstUE()
		if ou != ru || ouhas != ruhas {
			t.Fatalf("trial %d: rebuilt FirstUE (%v,%v) != oracle (%v,%v)", trial, ru, ruhas, ou, ouhas)
		}
		if rebuilt.CompactedEvents() != comp.CompactedEvents() ||
			rebuilt.Compaction().Horizon != comp.Compaction().Horizon {
			t.Fatalf("trial %d: snapshot counts/horizon not restored", trial)
		}
		for q := 0; q < 10; q++ {
			from := cut + Minutes(rng.Int63n(int64(ObservationSpan)))
			to := from + Minutes(rng.Int63n(int64(10*Day)))
			if len(oracle.CEsBetween(from, to)) != len(rebuilt.CEsBetween(from, to)) {
				t.Fatalf("trial %d: rebuilt CEsBetween differs", trial)
			}
		}
	}
}
