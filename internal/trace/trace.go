// Package trace defines the memory-error event records that flow from the
// (simulated) BMC log collection into analysis and feature extraction:
// correctable-error (CE) observations with decoded bit-level signatures,
// uncorrectable-error (UE) events, and CE-storm events. It also provides an
// in-memory, time-indexed event store and a BMC-style text log codec so the
// data pipeline has a concrete serialization format to parse.
//
// A DIMM log answers queries only while it is sorted and indexed.
// DIMMLog.Append keeps it so for streamed events in any order; a bulk load
// (Store.AppendEvents, the generator, ReadStore) is sorted once by
// Store.SortAll before the first query.
package trace

import (
	"fmt"
	"sort"

	"memfp/internal/dram"
	"memfp/internal/par"
	"memfp/internal/platform"
)

// Minutes is simulation time in minutes since the start of the observation
// period (the paper's dataset spans January–October 2023).
type Minutes int64

// Convenient durations in Minutes.
const (
	Minute Minutes = 1
	Hour   Minutes = 60
	Day    Minutes = 24 * Hour
)

// ObservationSpan is the length of the simulated collection period:
// January through October 2023 ≈ 273 days.
const ObservationSpan = 273 * Day

// String renders the time as d:hh:mm.
func (m Minutes) String() string {
	d := m / Day
	h := (m % Day) / Hour
	mm := m % Hour
	return fmt.Sprintf("%dd%02dh%02dm", d, h, mm)
}

// EventType distinguishes log record kinds.
type EventType uint8

// Event kinds recorded by the BMC.
const (
	TypeCE EventType = iota
	TypeUE
	TypeStorm
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case TypeCE:
		return "CE"
	case TypeUE:
		return "UE"
	case TypeStorm:
		return "CE_STORM"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// DIMMID uniquely identifies a DIMM in the fleet.
type DIMMID struct {
	Platform platform.ID
	Server   int // server index within the platform fleet
	Slot     int // DIMM slot within the server
}

// String implements fmt.Stringer.
func (id DIMMID) String() string {
	return fmt.Sprintf("%s/srv%06d/dimm%02d", id.Platform, id.Server, id.Slot)
}

// Less orders DIMM IDs lexicographically.
func (id DIMMID) Less(o DIMMID) bool {
	if id.Platform != o.Platform {
		return id.Platform < o.Platform
	}
	if id.Server != o.Server {
		return id.Server < o.Server
	}
	return id.Slot < o.Slot
}

// Event is one BMC log record. CE events carry the full decoded location
// and bit signature; UE events carry the location only (the data was lost);
// storm events mark suppression episodes. A served DIMM's log holds every
// event it was sent, so the fields are ordered to leave no padding
// (72 bytes; TestEventLayout pins it).
type Event struct {
	Time Minutes
	DIMM DIMMID
	Bits dram.ErrorBits // decoded DQ/beat signature (CE only)
	Addr dram.Addr      // error location (CE and UE)
	Type EventType
}

// ByTime sorts events by (Time, DIMM, Type) for deterministic iteration.
type ByTime []Event

func (s ByTime) Len() int      { return len(s) }
func (s ByTime) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s ByTime) Less(i, j int) bool {
	if s[i].Time != s[j].Time {
		return s[i].Time < s[j].Time
	}
	if s[i].DIMM != s[j].DIMM {
		return s[i].DIMM.Less(s[j].DIMM)
	}
	return s[i].Type < s[j].Type
}

// DIMMLog is the time-ordered event history of one DIMM together with its
// static part attributes — the unit of analysis for fault classification,
// feature extraction, and labeling.
//
// A log keeps a per-type index — cached CE/UE subsets and first-CE/UE
// instants — that turns the window queries (CEsBetween, FirstUE, FirstCE,
// CEs, UEs, StormTimes) into O(log n) or O(1) lookups with no allocation.
// Append keeps the log sorted and indexed whatever order events arrive in.
// A bulk load (Store.AppendEvents, a direct write to Events) leaves the
// index behind until SortEvents (Store.SortAll) rebuilds it, and a query
// in between panics. While every event in the log is a CE, the CE view is
// the event array itself (Events[:n:n]), so the log holds each event
// once. The view's capacity ends at its length, so after the first UE or
// storm the next CE's append copies it into an array of its own, once: a
// copy of what is then the log's CE prefix. Queries never mutate the log,
// so a sorted log is safe for concurrent readers.
type DIMMLog struct {
	ID     DIMMID
	Part   platform.DIMMPart
	Events []Event // sorted by time

	// Index caches, valid while idxLen == len(Events). The zero value is a
	// valid index for an empty log.
	idxLen  int
	idxGen  uint64    // bumped on every full index rebuild (buildIndex)
	ces     []Event   // CE events in time order; Events[:n:n] while all are CEs
	ues     []Event   // UE events in time order
	storms  []Minutes // storm event times in order
	firstCE Minutes
	firstUE Minutes
	hasCE   bool
	hasUE   bool

	// Compaction bookkeeping (see CompactBefore): counts of dropped
	// events, the horizon below which history is gone, and the lifetime
	// first-CE/UE instants captured before the drop, which every index
	// rebuild merges back so FirstCE/FirstUE stay exact.
	compEvents, compCEs, compUEs, compStorms int
	compBefore                               Minutes
	lifeFirstCE, lifeFirstUE                 Minutes
	lifeHasCE, lifeHasUE                     bool
	foldState                                FoldState
}

// SortEvents sorts the events by time and rebuilds the query index. The
// sort is in place, except when the CE view shares the event array: then
// it sorts a copy of the same capacity, so a CE view handed out earlier
// keeps its contents. A log that was never indexed (a bulk load) pays no
// copy.
func (d *DIMMLog) SortEvents() {
	if len(d.ces) > 0 && len(d.Events) > 0 && &d.ces[0] == &d.Events[0] {
		events := make([]Event, len(d.Events), cap(d.Events))
		copy(events, d.Events)
		d.Events = events
	}
	sort.Sort(ByTime(d.Events))
	d.buildIndex()
}

// buildIndex recomputes the cached per-type views from Events. The UE,
// storm and (in a log that holds anything but CEs) CE views are allocated
// fresh rather than reusing the old backing arrays: views handed out
// before a re-sort (CEs, UEs, CEsBetween, StormTimes) then stay
// stale-but-consistent snapshots instead of being overwritten in place
// under the holder. An all-CE log's view is Events itself, which
// SortEvents has already made fresh when an earlier view shared it.
func (d *DIMMLog) buildIndex() {
	nCE := 0
	for i := range d.Events {
		if d.Events[i].Type == TypeCE {
			nCE++
		}
	}
	n := len(d.Events)
	switch {
	case nCE == 0:
		d.ces = nil
	case nCE == n:
		d.ces = d.Events[:n:n]
	default:
		d.ces = make([]Event, 0, nCE)
	}
	d.ues = nil
	d.storms = nil
	d.hasCE, d.hasUE = false, false
	d.firstCE, d.firstUE = 0, 0
	for _, e := range d.Events {
		switch e.Type {
		case TypeCE:
			if !d.hasCE {
				d.hasCE, d.firstCE = true, e.Time
			}
			if nCE < n {
				d.ces = append(d.ces, e)
			}
		case TypeUE:
			if !d.hasUE {
				d.hasUE, d.firstUE = true, e.Time
			}
			d.ues = append(d.ues, e)
		case TypeStorm:
			d.storms = append(d.storms, e.Time)
		}
	}
	if d.compEvents > 0 {
		// Compacted history may hold the true lifetime firsts; a late
		// out-of-order event can still precede them, so merge by minimum.
		if d.lifeHasCE && (!d.hasCE || d.lifeFirstCE < d.firstCE) {
			d.hasCE, d.firstCE = true, d.lifeFirstCE
		}
		if d.lifeHasUE && (!d.hasUE || d.lifeFirstUE < d.firstUE) {
			d.hasUE, d.firstUE = true, d.lifeFirstUE
		}
	}
	d.idxLen = len(d.Events)
	d.idxGen++
}

// mustBeIndexed panics unless the index covers Events: only a bulk load
// that SortEvents has not yet followed leaves it behind.
func (d *DIMMLog) mustBeIndexed() {
	if d.idxLen != len(d.Events) {
		panic("trace: DIMM log queried after a bulk load; call SortEvents first")
	}
}

// IndexGen returns a generation counter that advances on every full index
// rebuild (SortEvents, or an Append out of time order). In-order Appends
// extend the index and CompactBefore drops a prefix of it without
// advancing the generation — neither reorders an event — so a consumer
// that cached view positions can detect a rebuild, which may reorder
// events beneath it, and start over.
func (d *DIMMLog) IndexGen() uint64 { return d.idxGen }

// Append adds one event to the log and leaves it sorted and indexed. An
// event in time order (e.Time >= the last event's time) extends the
// per-type index incrementally, so streaming ingestion keeps every query
// at its indexed O(1)/O(log n) cost. A late event — or any event appended
// to a bulk-loaded log that was never sorted — is appended and then
// SortEvents runs, which advances IndexGen.
//
// While the log holds only CEs, an in-order CE re-slices the CE view over
// Events instead of copying the event a second time. The view's capacity
// ends at its length, so after the first UE or storm the next CE's append
// copies it into an array of its own, once, and nothing written to Events
// ever lands inside a view handed out earlier.
func (d *DIMMLog) Append(e Event) {
	n := len(d.Events)
	if d.idxLen != n || (n > 0 && e.Time < d.Events[n-1].Time) {
		d.Events = append(d.Events, e)
		d.SortEvents()
		return
	}
	allCE := len(d.ces) == n
	d.Events = append(d.Events, e)
	switch e.Type {
	case TypeCE:
		if !d.hasCE {
			d.hasCE, d.firstCE = true, e.Time
		}
		if allCE {
			d.ces = d.Events[: n+1 : n+1]
		} else {
			d.ces = append(d.ces, e)
		}
	case TypeUE:
		if !d.hasUE {
			d.hasUE, d.firstUE = true, e.Time
		}
		d.ues = append(d.ues, e)
	case TypeStorm:
		d.storms = append(d.storms, e.Time)
	}
	d.idxLen = len(d.Events)
}

// CEs returns the CE events in time order. The slice is cached and shared
// — callers must treat it as read-only.
func (d *DIMMLog) CEs() []Event {
	d.mustBeIndexed()
	return d.ces
}

// UEs returns the UE events in time order. The slice is cached and shared
// — callers must treat it as read-only.
func (d *DIMMLog) UEs() []Event {
	d.mustBeIndexed()
	return d.ues
}

// FirstUE returns the time of the first UE and true, or (0, false) when the
// DIMM never experienced a UE. O(1); a compacted-away first UE still counts.
func (d *DIMMLog) FirstUE() (Minutes, bool) {
	d.mustBeIndexed()
	return d.firstUE, d.hasUE
}

// FirstCE returns the time of the first CE and true, or (0, false). O(1); a
// compacted-away first CE still counts.
func (d *DIMMLog) FirstCE() (Minutes, bool) {
	d.mustBeIndexed()
	return d.firstCE, d.hasCE
}

// CEsBetween returns CE events with Time in [from, to): a binary-searched
// subslice of the cached CE view — O(log n), no allocation — that must be
// treated as read-only.
func (d *DIMMLog) CEsBetween(from, to Minutes) []Event {
	d.mustBeIndexed()
	ces := d.ces
	lo := sort.Search(len(ces), func(i int) bool { return ces[i].Time >= from })
	hi := sort.Search(len(ces), func(i int) bool { return ces[i].Time >= to })
	return ces[lo:hi]
}

// StormTimes returns the times of the DIMM's storm events in time order.
// The slice is cached and shared — callers must treat it as read-only.
func (d *DIMMLog) StormTimes() []Minutes {
	d.mustBeIndexed()
	return d.storms
}

// Store is an in-memory event store for a fleet: the "data lake" stage of
// the paper's pipeline. It indexes logs per DIMM and keeps them sorted.
type Store struct {
	logs  map[DIMMID]*DIMMLog
	order []DIMMID // insertion order for deterministic iteration
	// counts maintains per-type event totals as events are appended, so
	// CountEvents is O(1) instead of a double loop over the fleet. Only
	// events added through Store methods (Append, AppendEvents,
	// AnnotateStorms) are counted; direct DIMMLog.Events mutation is not
	// visible here.
	counts [3]int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{logs: make(map[DIMMID]*DIMMLog)}
}

// Register adds a DIMM with its part attributes. Registering twice is an
// error to catch generator bugs.
func (s *Store) Register(id DIMMID, part platform.DIMMPart) (*DIMMLog, error) {
	if _, ok := s.logs[id]; ok {
		return nil, fmt.Errorf("trace: DIMM %s registered twice", id)
	}
	l := &DIMMLog{ID: id, Part: part}
	s.logs[id] = l
	s.order = append(s.order, id)
	return l, nil
}

// Append adds an event to its DIMM's log via DIMMLog.Append, so every log
// stays sorted and indexed: an in-order stream without re-sorting, a late
// event at the cost of one sort of its DIMM's log. The DIMM must be
// registered.
func (s *Store) Append(e Event) error {
	l, ok := s.logs[e.DIMM]
	if !ok {
		return fmt.Errorf("trace: event for unregistered DIMM %s", e.DIMM)
	}
	l.Append(e)
	s.count(e.Type, 1)
	return nil
}

// AppendEvents bulk-appends events to one DIMM's log with a single map
// lookup — the merge path of the parallel fleet generator and the log
// reader. Every event must belong to the given DIMM. The log is not
// indexed again until SortAll (or its SortEvents) runs, and a query
// before that panics.
func (s *Store) AppendEvents(id DIMMID, events []Event) error {
	if len(events) == 0 {
		return nil
	}
	l, ok := s.logs[id]
	if !ok {
		return fmt.Errorf("trace: events for unregistered DIMM %s", id)
	}
	for _, e := range events {
		if e.DIMM != id {
			return fmt.Errorf("trace: event for DIMM %s appended to log of %s", e.DIMM, id)
		}
		s.count(e.Type, 1)
	}
	l.Events = append(l.Events, events...)
	return nil
}

// count bumps the per-type counter, ignoring unknown types defensively.
func (s *Store) count(t EventType, n int) {
	if int(t) < len(s.counts) {
		s.counts[t] += int64(n)
	}
}

// Get returns the log for a DIMM, or nil when absent.
func (s *Store) Get(id DIMMID) *DIMMLog { return s.logs[id] }

// Len returns the number of registered DIMMs.
func (s *Store) Len() int { return len(s.order) }

// DIMMs iterates logs in registration order.
func (s *Store) DIMMs() []*DIMMLog {
	out := make([]*DIMMLog, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.logs[id])
	}
	return out
}

// Stream returns every log's events, in registration order, stably sorted
// ByTime, and each failed DIMM's first UE instant.
func (s *Store) Stream() (all []Event, firstUE map[DIMMID]Minutes) {
	firstUE = map[DIMMID]Minutes{}
	for _, l := range s.DIMMs() {
		all = append(all, l.Events...)
		if t, ok := l.FirstUE(); ok {
			firstUE[l.ID] = t
		}
	}
	sort.Stable(ByTime(all))
	return all, firstUE
}

// SortAll sorts every DIMM's events by time and builds each log's query
// index; call once after bulk loading. The logs are sharded across one
// worker per CPU; sorting and indexing are per-log operations, so the
// result is identical for any worker count.
func (s *Store) SortAll() {
	logs := s.DIMMs()
	par.ForEachN(0, len(logs), func(i int) { logs[i].SortEvents() })
}

// CountEvents returns the total number of events of the given type that
// were appended through Store methods. O(1): the store maintains per-type
// counters on Append instead of rescanning the fleet.
func (s *Store) CountEvents(t EventType) int {
	if int(t) < len(s.counts) {
		return int(s.counts[t])
	}
	return 0
}
