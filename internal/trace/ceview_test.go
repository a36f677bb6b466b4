package trace

import (
	"slices"
	"testing"

	"memfp/internal/xrand"
)

// checkCEQueries compares CEs and CEsBetween with the same questions
// answered by filtering Events (filterEvents).
func checkCEQueries(t *testing.T, trial, step int, l *DIMMLog, rng *xrand.RNG, span int64) {
	t.Helper()
	if got, want := l.CEs(), filterEvents(l, TypeCE, 0, Minutes(span)); !slices.Equal(got, want) {
		t.Fatalf("trial %d step %d: CEs has %d events, filtering Events gives %d", trial, step, len(got), len(want))
	}
	for q := 0; q < 8; q++ {
		a, b := Minutes(rng.Int63n(span)), Minutes(rng.Int63n(span))
		if a > b {
			a, b = b, a
		}
		want := filterEvents(l, TypeCE, a, b)
		if got := l.CEsBetween(a, b); !slices.Equal(got, want) {
			t.Fatalf("trial %d step %d: CEsBetween(%v, %v) has %d events, filtering Events gives %d", trial, step, a, b, len(got), len(want))
		}
	}
}

// TestCEViewMatchesEvents drives logs through every operation that moves
// the CE view between sharing the event array and owning one — in-order
// and out-of-order Appends of CEs, UEs and storms, CompactBefore and
// SortEvents — and checks after every step that the CE queries agree with
// a filter over Events. Half the trials stay all-CE for a long stretch
// before their first UE or storm.
func TestCEViewMatchesEvents(t *testing.T) {
	const span = int64(60 * Day)
	rng := xrand.New(37)
	for trial := 0; trial < 100; trial++ {
		id := DIMMID{Server: trial}
		l := &DIMMLog{ID: id}
		pCE := []float64{1, 0.99, 0.9, 0.6}[trial%4]
		clock := Minutes(0)
		for step := 0; step < 120; step++ {
			switch r := rng.Float64(); {
			case r < 0.04:
				l.SortEvents()
			case r < 0.08:
				l.CompactBefore(Minutes(rng.Int63n(int64(clock)+1)), nil)
			default:
				e := randomEvent(rng, id, span)
				if rng.Bool(pCE) {
					e.Type = TypeCE
				}
				if rng.Bool(0.9) {
					clock += Minutes(rng.Int63n(int64(Hour)))
					e.Time = clock // in order (ties included)
				} else {
					e.Time = Minutes(rng.Int63n(int64(clock) + 1))
				}
				l.Append(e)
			}
			checkCEQueries(t, trial, step, l, rng, int64(clock)+1)
		}
	}
}

// TestCEViewIsTheLog pins the layout: in an all-CE log the CE view is the
// event array, however the log was filled, and an in-order CE Append
// allocates nothing beyond Events' own growth. The first UE gives the
// view an array of its own.
func TestCEViewIsTheLog(t *testing.T) {
	ce := func(m Minutes) Event { return Event{Time: m, Type: TypeCE} }
	aliased := func(what string, l *DIMMLog) {
		t.Helper()
		if len(l.CEs()) != len(l.Events) || &l.CEs()[0] != &l.Events[0] {
			t.Fatalf("%s: the CE view is not the event array", what)
		}
	}

	l := &DIMMLog{}
	for m := Minutes(0); m < 10; m++ {
		l.Append(ce(m))
	}
	aliased("appended", l)

	bulk := []Event{ce(3), ce(1), ce(2)}
	b := &DIMMLog{Events: bulk}
	b.SortEvents()
	if &b.Events[0] != &bulk[0] {
		t.Fatal("SortEvents copied a log that was never indexed")
	}
	aliased("bulk-loaded", b)

	if l.CompactBefore(4, nil) != 4 {
		t.Fatal("CompactBefore dropped the wrong prefix")
	}
	aliased("compacted", l)

	l.Append(Event{Time: 20, Type: TypeUE})
	l.Append(ce(21))
	if &l.CEs()[0] == &l.Events[0] {
		t.Fatal("the CE view still shares the event array after a UE")
	}
	if want := filterEvents(l, TypeCE, 0, 100); !slices.Equal(l.CEs(), want) {
		t.Fatalf("CE view %v after the first UE, want %v", l.CEs(), want)
	}

	// Steady state: Events has room, so an in-order CE allocates nothing.
	var steady DIMMLog
	buf := make([]Event, 0, 64)
	if n := testing.AllocsPerRun(20, func() {
		steady = DIMMLog{Events: buf[:0]}
		for m := Minutes(0); m < 64; m++ {
			steady.Append(ce(m))
		}
	}); n != 0 {
		t.Fatalf("64 in-order CE Appends into spare capacity allocated %v times, want 0", n)
	}
	// From empty, Appends allocate exactly what growing Events does.
	var plain []Event
	want := testing.AllocsPerRun(20, func() {
		plain = nil
		for m := Minutes(0); m < 64; m++ {
			plain = append(plain, ce(m))
		}
	})
	if got := testing.AllocsPerRun(20, func() {
		steady = DIMMLog{}
		for m := Minutes(0); m < 64; m++ {
			steady.Append(ce(m))
		}
	}); got != want {
		t.Fatalf("64 in-order CE Appends from empty allocated %v times, growing Events alone %v", got, want)
	}
}

// TestCEViewKeepsContents holds the read-only views' promise across each
// operation that ends the sharing: a CE view taken before the first UE,
// before a SortEvents that reorders the event array, or before a
// CompactBefore still reads what it read when it was taken.
func TestCEViewKeepsContents(t *testing.T) {
	ce := func(m Minutes, row int) Event {
		e := Event{Time: m, Type: TypeCE}
		e.Addr.Row = uint32(row)
		return e
	}
	fresh := func() *DIMMLog {
		l := &DIMMLog{Events: make([]Event, 0, 16)} // room: nothing below reallocates
		for i, m := range []Minutes{10, 20, 30, 40} {
			l.Append(ce(m, i))
		}
		return l
	}
	keeps := func(what string, view, was []Event) {
		t.Helper()
		if !slices.Equal(view, was) {
			t.Fatalf("%s: an earlier CE view now reads %v, it read %v", what, view, was)
		}
	}

	l := fresh()
	view := l.CEs()
	was := slices.Clone(view)
	l.Append(Event{Time: 50, Type: TypeUE})
	l.Append(ce(60, 9))
	keeps("first UE", view, was)

	l = fresh()
	view = l.CEs()
	was = slices.Clone(view)
	l.Append(ce(5, 7)) // out of order: the sort moves it to the front
	l.SortEvents()
	keeps("SortEvents", view, was)
	if got := l.CEs(); got[0].Time != 5 || len(got) != 5 {
		t.Fatalf("after SortEvents the CE view is %v", got)
	}

	l = fresh()
	view = l.CEs()
	was = slices.Clone(view)
	l.CompactBefore(25, nil)
	l.Append(ce(70, 8))
	keeps("CompactBefore", view, was)
}
