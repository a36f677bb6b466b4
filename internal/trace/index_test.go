package trace

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"memfp/internal/platform"
	"memfp/internal/xrand"
)

// randomLog builds a sorted DIMM log with a random mix of CE/UE/storm
// events.
func randomLog(t *testing.T, rng *xrand.RNG, nEvents int) *DIMMLog {
	t.Helper()
	parts := platform.Catalog()
	id := DIMMID{Platform: platform.Purley, Server: rng.Intn(1000), Slot: rng.Intn(16)}
	events := make([]Event, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		var typ EventType
		switch {
		case rng.Bool(0.85):
			typ = TypeCE
		case rng.Bool(0.5):
			typ = TypeUE
		default:
			typ = TypeStorm
		}
		events = append(events, Event{
			Time: Minutes(rng.Int63n(int64(ObservationSpan))),
			Type: typ,
			DIMM: id,
		})
	}
	l := &DIMMLog{ID: id, Part: parts[0], Events: events}
	l.SortEvents()
	return l
}

// isIndexed reports whether l's index covers its events.
func isIndexed(l *DIMMLog) bool { return l.idxLen == len(l.Events) }

// filterEvents is the linear reference every indexed query must agree
// with: the log's events of type typ with Time in [from, to), in Events
// order.
func filterEvents(l *DIMMLog, typ EventType, from, to Minutes) []Event {
	var out []Event
	for _, e := range l.Events {
		if e.Type == typ && e.Time >= from && e.Time < to {
			out = append(out, e)
		}
	}
	return out
}

// allOf is filterEvents over all time: every event of one type, in order.
func allOf(l *DIMMLog, typ EventType) []Event {
	return filterEvents(l, typ, math.MinInt64, math.MaxInt64)
}

// TestIndexedQueriesMatchLinear property-tests the binary-searched /
// cached query paths against linear filters over Events on randomized
// logs, including empty and single-event logs.
func TestIndexedQueriesMatchLinear(t *testing.T) {
	const lo, hi = Minutes(math.MinInt64), Minutes(math.MaxInt64)
	first := func(l *DIMMLog, typ EventType) (Minutes, bool) {
		if es := filterEvents(l, typ, lo, hi); len(es) > 0 {
			return es[0].Time, true
		}
		return 0, false
	}
	rng := xrand.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 0
		if trial > 0 {
			n = 1 + rng.Intn(400)
		}
		idx := randomLog(t, rng, n)
		if !isIndexed(idx) {
			t.Fatal("sorted log should be indexed")
		}

		if got, want := idx.CEs(), filterEvents(idx, TypeCE, lo, hi); !sameEvents(got, want) {
			t.Fatalf("trial %d: CEs() mismatch: %d vs %d events", trial, len(got), len(want))
		}
		gotT, gotOK := idx.FirstUE()
		wantT, wantOK := first(idx, TypeUE)
		if gotT != wantT || gotOK != wantOK {
			t.Fatalf("trial %d: FirstUE (%v,%v) vs (%v,%v)", trial, gotT, gotOK, wantT, wantOK)
		}
		gotT, gotOK = idx.FirstCE()
		wantT, wantOK = first(idx, TypeCE)
		if gotT != wantT || gotOK != wantOK {
			t.Fatalf("trial %d: FirstCE (%v,%v) vs (%v,%v)", trial, gotT, gotOK, wantT, wantOK)
		}
		var storms []Minutes
		for _, e := range filterEvents(idx, TypeStorm, lo, hi) {
			storms = append(storms, e.Time)
		}
		if got := idx.StormTimes(); !reflect.DeepEqual(
			append([]Minutes{}, got...), append([]Minutes{}, storms...)) {
			t.Fatalf("trial %d: StormTimes mismatch", trial)
		}

		// Random windows, plus degenerate ones.
		windows := [][2]Minutes{
			{0, 0}, {0, ObservationSpan}, {-10, 5}, {ObservationSpan, 2 * ObservationSpan},
		}
		for k := 0; k < 20; k++ {
			a := Minutes(rng.Int63n(int64(ObservationSpan)))
			b := Minutes(rng.Int63n(int64(ObservationSpan)))
			if a > b {
				a, b = b, a
			}
			windows = append(windows, [2]Minutes{a, b})
		}
		for _, w := range windows {
			want := filterEvents(idx, TypeCE, w[0], w[1])
			if got := idx.CEsBetween(w[0], w[1]); !sameEvents(got, want) {
				t.Fatalf("trial %d: CEsBetween(%v,%v): %d vs %d events",
					trial, w[0], w[1], len(got), len(want))
			}
		}
	}
}

// TestQueryBeforeSortPanics: a bulk load leaves the index behind until
// SortEvents, and a query in between panics with a message that says so
// instead of answering from a stale index.
func TestQueryBeforeSortPanics(t *testing.T) {
	s := NewStore()
	id := DIMMID{Platform: platform.Purley, Server: 1}
	l, err := s.Register(id, platform.Catalog()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents(id, []Event{{Time: 9, DIMM: id}, {Time: 3, Type: TypeUE, DIMM: id}}); err != nil {
		t.Fatal(err)
	}
	queries := map[string]func(){
		"CEs":           func() { l.CEs() },
		"FirstCE":       func() { l.FirstCE() },
		"FirstUE":       func() { l.FirstUE() },
		"CEsBetween":    func() { l.CEsBetween(0, 10) },
		"StormTimes":    func() { l.StormTimes() },
		"Compaction":    func() { l.Compaction() },
		"CompactBefore": func() { l.CompactBefore(5, nil) },
	}
	for name, q := range queries {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "SortEvents") {
					t.Errorf("%s on an unsorted bulk load: recovered %q, want a panic naming SortEvents", name, msg)
				}
			}()
			q()
		}()
	}
	s.SortAll()
	if ue, ok := l.FirstUE(); !ok || ue != 3 {
		t.Fatalf("FirstUE after SortAll = %v, %v; want 3, true", ue, ok)
	}
	for _, q := range queries {
		q()
	}
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCEsBetweenSharesIndex checks the documented no-allocation contract:
// on an indexed log a range that holds only CEs comes back as a subslice
// of Events, capped at its length, without allocating; a range that holds
// a UE or storm record comes back as a filtered copy.
func TestCEsBetweenSharesIndex(t *testing.T) {
	rng := xrand.New(7)
	idx := randomLog(t, rng, 200)
	ev := idx.Events
	// ev[lo:hi] is the log's longest run of CEs. A UE or storm sorts after
	// a CE of equal time, so ev[lo-1] is strictly earlier than ev[lo].
	lo, hi := 0, 0
	for i := 0; i < len(ev); i++ {
		j := i
		for j < len(ev) && ev[j].Type == TypeCE {
			j++
		}
		if j-i > hi-lo {
			lo, hi = i, j
		}
		i = j
	}
	if hi-lo < 3 || hi == len(ev) {
		t.Skip("log too small")
	}
	from, to := ev[lo].Time, ev[hi-1].Time
	win := idx.CEsBetween(from, to)
	if len(win) == 0 || &win[0] != &ev[lo] || cap(win) != len(win) {
		t.Error("CEsBetween copied a range that holds only CEs, or left its capacity open")
	}
	if n := testing.AllocsPerRun(10, func() { idx.CEsBetween(from, to) }); n != 0 {
		t.Errorf("CEsBetween over a range of CEs allocated %v times", n)
	}
	mixed := idx.CEsBetween(from, ev[hi].Time+1) // ev[hi] is a UE or storm
	if want := filterEvents(idx, TypeCE, from, ev[hi].Time+1); !slices.Equal(mixed, want) {
		t.Fatalf("CEsBetween over a UE or storm has %d events, filtering Events gives %d", len(mixed), len(want))
	}
	if &mixed[0] == &ev[lo] {
		t.Error("CEsBetween handed out Events over a range that holds a UE or storm")
	}
}

// TestCountEventsCounters checks the O(1) per-type counters against a
// recount over the logs, across Append, AppendEvents and storm
// annotation.
func TestCountEventsCounters(t *testing.T) {
	s := NewStore()
	part := platform.Catalog()[0]
	idA := DIMMID{Platform: platform.Purley, Server: 1, Slot: 0}
	idB := DIMMID{Platform: platform.Purley, Server: 2, Slot: 0}
	if _, err := s.Register(idA, part); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(idB, part); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	want := map[EventType]int{}
	for i := 0; i < 500; i++ {
		typ := TypeCE
		if rng.Bool(0.1) {
			typ = TypeUE
		}
		e := Event{Time: Minutes(rng.Int63n(int64(ObservationSpan))), Type: typ, DIMM: idA}
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		want[typ]++
	}
	bulk := make([]Event, 0, 50)
	for i := 0; i < 50; i++ {
		bulk = append(bulk, Event{Time: Minutes(i), Type: TypeCE, DIMM: idB})
		want[TypeCE]++
	}
	if err := s.AppendEvents(idB, bulk); err != nil {
		t.Fatal(err)
	}
	s.SortAll()
	want[TypeStorm] = AnnotateStorms(s, DefaultStormConfig())

	for _, typ := range []EventType{TypeCE, TypeUE, TypeStorm} {
		recount := 0
		for _, l := range s.DIMMs() {
			for _, e := range l.Events {
				if e.Type == typ {
					recount++
				}
			}
		}
		if recount != want[typ] {
			t.Fatalf("%v: recount %d disagrees with expectation %d", typ, recount, want[typ])
		}
		if got := s.CountEvents(typ); got != want[typ] {
			t.Errorf("CountEvents(%v) = %d, want %d", typ, got, want[typ])
		}
	}
}

// TestAppendEventsRejectsForeignDIMM guards the bulk-merge invariant.
func TestAppendEventsRejectsForeignDIMM(t *testing.T) {
	s := NewStore()
	part := platform.Catalog()[0]
	idA := DIMMID{Platform: platform.Purley, Server: 1, Slot: 0}
	idB := DIMMID{Platform: platform.Purley, Server: 2, Slot: 0}
	if _, err := s.Register(idA, part); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents(idA, []Event{{Type: TypeCE, DIMM: idB}}); err == nil {
		t.Error("foreign-DIMM event accepted")
	}
	if err := s.AppendEvents(idB, []Event{{Type: TypeCE, DIMM: idB}}); err == nil {
		t.Error("unregistered DIMM accepted")
	}
}

// TestSortAllWorkersDeterministic checks that the sharded sort+index pass
// produces the same store state at every worker count (GOMAXPROCS) as on
// one worker.
func TestSortAllWorkersDeterministic(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		part := platform.Catalog()[0]
		rng := xrand.New(11)
		for d := 0; d < 20; d++ {
			id := DIMMID{Platform: platform.Purley, Server: d, Slot: 0}
			if _, err := s.Register(id, part); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				typ := TypeCE
				if rng.Bool(0.05) {
					typ = TypeUE
				}
				if err := s.Append(Event{
					Time: Minutes(rng.Int63n(int64(ObservationSpan))), Type: typ, DIMM: id,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	seq := build()
	withProcs(1, seq.SortAll)
	for _, procs := range []int{2, 8} {
		s := build()
		withProcs(procs, s.SortAll)
		la, lb := seq.DIMMs(), s.DIMMs()
		for i := range la {
			if !sameEvents(la[i].Events, lb[i].Events) {
				t.Fatalf("GOMAXPROCS=%d: DIMM %d events differ from the one-worker sort", procs, i)
			}
		}
	}
}

// withProcs runs fn with GOMAXPROCS pinned to n — the worker count the
// store's sharded passes fan out to — and restores the previous value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}
