package trace

import (
	"slices"
	"sort"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/platform"
	"memfp/internal/xrand"
)

// randomEvent builds one event for id with a random type, address and
// time drawn from [0, span).
func randomEvent(rng *xrand.RNG, id DIMMID, span int64) Event {
	var typ EventType
	switch {
	case rng.Bool(0.8):
		typ = TypeCE
	case rng.Bool(0.5):
		typ = TypeUE
	default:
		typ = TypeStorm
	}
	return Event{
		Time: Minutes(rng.Int63n(span)),
		Type: typ,
		DIMM: id,
		Addr: dram.Addr{
			Rank: uint8(rng.Intn(2)), Device: uint8(rng.Intn(16)), Bank: uint8(rng.Intn(16)),
			Row: uint32(rng.Intn(1 << 12)), Column: uint16(rng.Intn(1 << 8)),
		},
	}
}

// queriesMatch compares every indexed query of got against the oracle
// log. exact demands identical slices; otherwise CE/UE views are compared
// as multisets (an unstable sort may reorder equal-time twins).
func queriesMatch(t *testing.T, trial int, got, oracle *DIMMLog, exact bool) {
	t.Helper()
	cmp := func(name string, a, b []Event) {
		t.Helper()
		if !exact {
			a, b = canonEvents(a), canonEvents(b)
		}
		if !sameEvents(a, b) {
			t.Fatalf("trial %d: %s mismatch (%d vs %d events)", trial, name, len(a), len(b))
		}
	}
	cmp("CEs", got.CEs(), oracle.CEs())
	cmp("UEs", allOf(got, TypeUE), allOf(oracle, TypeUE))
	gt, gok := got.FirstUE()
	wt, wok := oracle.FirstUE()
	if gt != wt || gok != wok {
		t.Fatalf("trial %d: FirstUE (%v,%v) vs (%v,%v)", trial, gt, gok, wt, wok)
	}
	gt, gok = got.FirstCE()
	wt, wok = oracle.FirstCE()
	if gt != wt || gok != wok {
		t.Fatalf("trial %d: FirstCE (%v,%v) vs (%v,%v)", trial, gt, gok, wt, wok)
	}
	gs, ws := got.StormTimes(), oracle.StormTimes()
	if len(gs) != len(ws) {
		t.Fatalf("trial %d: StormTimes length %d vs %d", trial, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("trial %d: StormTimes[%d] %v vs %v", trial, i, gs[i], ws[i])
		}
	}
	rng := xrand.New(uint64(trial) + 17)
	for k := 0; k < 25; k++ {
		a := Minutes(rng.Int63n(int64(ObservationSpan)))
		b := Minutes(rng.Int63n(int64(ObservationSpan)))
		if a > b {
			a, b = b, a
		}
		cmp("CEsBetween", got.CEsBetween(a, b), oracle.CEsBetween(a, b))
	}
}

// sameAsBulkLoad checks what Append promises: l is indexed, and its
// Events and every query equal those of a bulk load of events (plus the
// compaction snapshot cs) sorted by SortEvents. Equal-time twins compare
// as multisets, since sort.Sort is not stable.
func sameAsBulkLoad(t *testing.T, trial int, l *DIMMLog, events []Event, cs CompactionSnapshot) {
	t.Helper()
	bulk := &DIMMLog{ID: l.ID, Part: l.Part, Events: append([]Event(nil), events...)}
	bulk.RestoreCompaction(cs)
	bulk.SortEvents()
	if !isIndexed(l) {
		t.Fatalf("trial %d: Append left the log unindexed", trial)
	}
	if !sort.IsSorted(ByTime(l.Events)) {
		t.Fatalf("trial %d: Append left Events out of time order", trial)
	}
	if !sameEvents(canonEvents(l.Events), canonEvents(bulk.Events)) {
		t.Fatalf("trial %d: Events differ from the sorted bulk load's", trial)
	}
	queriesMatch(t, trial, l, bulk, false)
}

// canonEvents sorts a copy into a canonical total order so equal-time
// twins compare as multisets.
func canonEvents(es []Event) []Event {
	out := append([]Event(nil), es...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.Addr.Rank != b.Addr.Rank {
			return a.Addr.Rank < b.Addr.Rank
		}
		if a.Addr.Device != b.Addr.Device {
			return a.Addr.Device < b.Addr.Device
		}
		if a.Addr.Bank != b.Addr.Bank {
			return a.Addr.Bank < b.Addr.Bank
		}
		if a.Addr.Row != b.Addr.Row {
			return a.Addr.Row < b.Addr.Row
		}
		return a.Addr.Column < b.Addr.Column
	})
	return out
}

// TestAppendMaintainsIndex property-tests that a log grown one event at a
// time through Append answers every query identically to a copy that was
// bulk-loaded and indexed by SortEvents — the online-ingestion contract
// of the serving engine.
func TestAppendMaintainsIndex(t *testing.T) {
	rng := xrand.New(4242)
	id := DIMMID{Platform: platform.Purley, Server: 7, Slot: 3}
	part := platform.Catalog()[0]
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(300)
		events := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			events = append(events, randomEvent(rng, id, int64(ObservationSpan)))
		}
		// Oracle: bulk load + sort-time index.
		oracle := &DIMMLog{ID: id, Part: part, Events: append([]Event(nil), events...)}
		oracle.SortEvents()

		// Candidate: the same events appended in time order. Appending the
		// oracle's sorted stream keeps per-DIMM arrival order identical to
		// what a time-ordered replay would deliver.
		grown := &DIMMLog{ID: id, Part: part}
		for _, e := range oracle.Events {
			grown.Append(e)
		}
		if !isIndexed(grown) {
			t.Fatalf("trial %d: in-order appends should keep the log indexed", trial)
		}
		if grown.IndexGen() != 0 {
			t.Fatalf("trial %d: Append must not advance the index generation", trial)
		}
		// Equal-time twins may be ordered differently by the (unstable)
		// sort than by arrival, so compare per-type views as multisets.
		queriesMatch(t, trial, grown, oracle, false)
	}
}

// TestAppendOutOfOrderFallsBack checks Append on a stream in random
// order: a late event re-sorts the log, which advances IndexGen, while an
// in-order one leaves IndexGen alone; after every Append the log is
// indexed and answers exactly as a bulk load of the same events sorted by
// SortEvents.
func TestAppendOutOfOrderFallsBack(t *testing.T) {
	rng := xrand.New(99)
	id := DIMMID{Platform: platform.Purley, Server: 1, Slot: 1}
	part := platform.Catalog()[0]
	late := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(200)
		grown := &DIMMLog{ID: id, Part: part}
		var arrived []Event
		for i := 0; i < n; i++ {
			e := randomEvent(rng, id, int64(ObservationSpan))
			isLate := len(grown.Events) > 0 && e.Time < grown.Events[len(grown.Events)-1].Time
			gen := grown.IndexGen()
			grown.Append(e)
			arrived = append(arrived, e)
			if moved := grown.IndexGen() != gen; moved != isLate {
				t.Fatalf("trial %d event %d: late=%v but IndexGen moved=%v", trial, i, isLate, moved)
			}
			if isLate {
				late++
			}
			if i%16 == 0 || i == n-1 {
				sameAsBulkLoad(t, trial, grown, arrived, CompactionSnapshot{})
			}
		}
	}
	if late == 0 {
		t.Fatal("no late event in any trial; the test proves nothing")
	}
}

// TestStoreAppendKeepsIndexAndCounters: an in-order stream through
// Store.Append leaves every log indexed with correct O(1) counters — no
// SortAll needed before serving queries.
func TestStoreAppendKeepsIndexAndCounters(t *testing.T) {
	s := NewStore()
	part := platform.Catalog()[0]
	ids := make([]DIMMID, 4)
	for i := range ids {
		ids[i] = DIMMID{Platform: platform.Purley, Server: i, Slot: 0}
		if _, err := s.Register(ids[i], part); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(5)
	want := map[EventType]int{}
	for tm := Minutes(0); tm < 5000; tm += Minutes(1 + rng.Int63n(40)) {
		e := randomEvent(rng, ids[rng.Intn(len(ids))], 1)
		e.Time = tm // monotonic stream, interleaved across DIMMs
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		want[e.Type]++
	}
	for _, l := range s.DIMMs() {
		if !isIndexed(l) || l.IndexGen() != 0 {
			t.Fatalf("DIMM %s re-sorted under an in-order stream", l.ID)
		}
	}
	for _, typ := range []EventType{TypeCE, TypeUE, TypeStorm} {
		if got := s.CountEvents(typ); got != want[typ] {
			t.Errorf("CountEvents(%v) = %d, want %d", typ, got, want[typ])
		}
	}
}

// TestLogHoldsEachCEOnce pins that a log holding a storm record keeps its
// CEs once, in Events: a storm followed by N CEs through Append allocates
// what an all-CE log of the same length does, plus the storm's one entry
// in StormTimes. CEsBetween still answers with the right CEs over ranges
// with and without the storm, and a slice it returned keeps its contents
// across a late Append that re-sorts the log.
func TestLogHoldsEachCEOnce(t *testing.T) {
	const n = 64
	ce := func(m Minutes, row int) Event {
		e := Event{Time: m, Type: TypeCE}
		e.Addr.Row = uint32(row)
		return e
	}
	stormed := func() *DIMMLog {
		l := &DIMMLog{}
		l.Append(Event{Time: 0, Type: TypeStorm})
		for i := 1; i <= n; i++ {
			l.Append(ce(Minutes(i), i))
		}
		return l
	}
	var sink *DIMMLog
	allCE := testing.AllocsPerRun(20, func() {
		sink = &DIMMLog{}
		for i := 0; i <= n; i++ {
			sink.Append(ce(Minutes(i), i))
		}
	})
	if got := testing.AllocsPerRun(20, func() { sink = stormed() }); got != allCE+1 {
		t.Fatalf("a storm and %d CEs allocated %v times, %d CEs %v: the log copies its CEs", n, got, n+1, allCE)
	}

	l := stormed()
	for _, r := range []struct{ from, to Minutes }{{0, n + 1}, {1, n + 1}, {10, 20}, {0, 1}, {n, n + 1}} {
		got := l.CEsBetween(r.from, r.to)
		if want := filterEvents(l, TypeCE, r.from, r.to); !slices.Equal(got, want) {
			t.Fatalf("CEsBetween(%v, %v) has %d events, filtering Events gives %d", r.from, r.to, len(got), len(want))
		}
	}

	view := l.CEsBetween(1, n+1) // CEs only: a subslice of Events
	was := slices.Clone(view)
	l.Append(ce(5, n+1)) // late: the log re-sorts
	if !slices.Equal(view, was) {
		t.Fatal("a CEsBetween result changed under a late Append")
	}
	if got := l.CEs(); len(got) != n+1 || !slices.Equal(got, filterEvents(l, TypeCE, 0, n+1)) {
		t.Fatalf("after the late Append the log has %d CEs, want %d in time order", len(got), n+1)
	}
}
