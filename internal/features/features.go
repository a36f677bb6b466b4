// Package features implements §VI's feature engineering and the §IV/Fig. 3
// sample construction: at a prediction instant t, features summarize the
// observation window [t−Δtd, t] of a DIMM's CE history (temporal, spatial,
// bit-level, and static attributes), and the label states whether a UE
// occurs inside the prediction validation window [t+Δtl, t+Δtl+Δtp]. The
// three windows are the paper's constants (ObservationWindow, LeadTime,
// PredictionWindow), which evaluation, alarm resolution and the RAS
// simulation read too; extraction, labelling and compaction are package
// functions over them.
package features

import (
	"fmt"
	"sort"

	"memfp/internal/analysis"
	"memfp/internal/dram"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// The §IV problem-formulation windows, at the paper's settings.
const (
	// ObservationWindow is Δtd, the history a prediction summarizes.
	ObservationWindow = 5 * trace.Day
	// LeadTime is Δtl, the lead time before failure: a UE inside
	// (t, t+Δtl) strikes before any proactive action could complete.
	LeadTime = 3 * trace.Hour
	// PredictionWindow is Δtp, the prediction validation window: a UE in
	// [t+Δtl, t+Δtl+Δtp] makes the prediction at t positive.
	PredictionWindow = 30 * trace.Day
)

// Label is a sample's class.
type Label int

// Sample labels. LabelDropped marks samples inside the ambiguous
// (t, t+Δtl) zone — a UE strikes before any proactive action could
// complete — which are excluded from training, per the paper's protocol.
const (
	LabelNegative Label = 0
	LabelPositive Label = 1
	LabelDropped  Label = -1
)

// Names lists the feature vector layout. Cursor.ExtractAt fills exactly
// these, in order. The set follows §VI: "DRAM characteristics such as
// manufacturer, data width, frequency, chip process, CE error rate, our
// conducted failure analysis, and memory events."
func Names() []string {
	return []string{
		// Temporal CE statistics over nested windows.
		"ce_15m", "ce_1h", "ce_6h", "ce_1d", "ce_5d",
		"ce_total", "ce_rate_accel", "storms_5d", "storms_total",
		"mins_since_first_ce", "mins_since_last_ce", "active_days_5d",
		// Spatial fault-analysis features (observation window).
		"faulty_cells_w", "faulty_rows_w", "faulty_cols_w", "faulty_banks_w",
		"faulty_devices_w", "multi_device_w",
		// Spatial fault-analysis features (lifetime up to t).
		"faulty_cells_l", "faulty_rows_l", "faulty_cols_l", "faulty_banks_l",
		"faulty_devices_l", "multi_device_l",
		"distinct_banks_l", "distinct_rows_l", "distinct_cols_l", "max_cell_ces_l",
		// Bit-level signature features (observation window).
		"frac_dq1", "frac_dq2", "frac_dq4", "frac_dq3plus",
		"frac_beat2", "frac_beat5", "frac_beatint4",
		"mean_bits", "max_bits", "dom_dq", "dom_beat", "dom_dqint", "dom_beatint",
		// Static DIMM attributes.
		"vendor_a", "vendor_b", "vendor_c", "vendor_d",
		"width_x8", "speed_mts", "process_nm", "capacity_gib",
	}
}

// Dim is the feature vector length.
func Dim() int { return len(Names()) }

// Cursor walks one DIMM's event history forward, extracting feature
// vectors at a nondecreasing sequence of prediction instants in a single
// pass: lifetime statistics (CE totals, first/last CE, the §V fault
// classification, distinct-structure counts) are folded in incrementally
// as each CE is consumed exactly once, while window-bounded features are
// kept as events enter and leave the window. The cursor keeps positions
// in the log's Events, steps over its UE and storm records, and holds no
// view of its own: it reads each CE where the log holds it. BuildSamples
// replaces its per-instant full-history re-extraction (up to 48 scans per
// DIMM) with one cursor walk. The lifetime and the window classification
// are the two lanes of one analysis.Incremental, life: a window CE is a
// lifetime CE, so the window's keys are stored once.
//
// A Cursor reads the log but never mutates it, so concurrent cursors may
// share one DIMM log; a single Cursor is not safe for concurrent use.
// In-order Appends between calls are read like any other event; a log
// that is re-sorted or compacted under a cursor needs a ServeCursor,
// which notices both.
type Cursor struct {
	l *trace.DIMMLog

	pos      int // l.Events consumed so far: Events[:pos] all have Time <= last t
	stormPos int // l.StormTimes() consumed so far

	// The log's CompactedEvents and CompactedStorms as of pos and
	// stormPos: how far those sit from their places in the uncompacted log.
	evBase, stormBase int

	// Lifetime accumulators over the fold seed plus the CEs of
	// Events[:pos]; ceTotal counts them (the log's CompactedCEs when the
	// cursor started, plus every CE consumed since), and life's lifetime
	// lane is the lifetime classification.
	ceTotal         int
	firstCE, lastCE trace.Minutes
	life            *analysis.Incremental

	// Observation-window state over Events[winStart:pos]: its CE count,
	// the positions of its UE and storm records (ascending, few), the §V
	// classification (life's window lane), the per-day CE tallies and the
	// bit-level statistics, folded in as events enter the window and
	// folded out as they expire past t−Δtd — so the window-bounded
	// features cost O(events entering + leaving) per instant instead of a
	// rebuild over the whole window.
	winStart int
	winCEs   int
	winOther []int
	days     windowDays
	bits     winBits
}

// windowDays counts the window's CEs per day index (Time / trace.Day), a
// day in the slot its index falls on modulo the slot count: the window
// [t−Δtd, t] spans ObservationWindow / trace.Day + 1 consecutive day
// indices at most, so no two of its days share a slot. A slot whose count
// is zero is free.
type windowDays [ObservationWindow/trace.Day + 1]struct {
	day trace.Minutes
	n   int32
}

// move moves day's count by n (+1 as a CE enters the window, -1 as it
// expires).
func (d *windowDays) move(day trace.Minutes, n int32) {
	k := trace.Minutes(len(d))
	s := &d[(day%k+k)%k] // Time may be negative: the slot is day's residue
	if s.n != 0 && s.day != day || s.n+n < 0 {
		panic(fmt.Sprintf("features: day %d moved by %d in a window holding %v", day, n, *d))
	}
	s.day, s.n = day, s.n+n
}

// active returns the number of days with a CE in the window.
func (d *windowDays) active() int {
	n := 0
	for i := range d {
		if d[i].n > 0 {
			n++
		}
	}
	return n
}

// winBits maintains the window's bit-level signature statistics under the
// same enter/expire discipline: per-event mask decompositions happen once
// on entry and once on expiry, and the dominant signature reduces to an
// argmax over the (few) distinct tuples present instead of a rescan.
type winBits struct {
	nBits, dq1, dq2, dq4, dq3p, beat2, beat5, bint4, sumBits int
	bitCounts                                                [65]int32 // histogram over BitCount (mask is 64-bit)
	sigs                                                     map[trace.Signature]int
}

// update folds one event in (n = +1, entering the window) or out
// (n = -1, expiring from it).
func (w *winBits) update(e trace.Event, n int) {
	s, ok := e.Signature()
	if !ok {
		return
	}
	w.nBits += n
	switch s.DQ {
	case 1:
		w.dq1 += n
	case 2:
		w.dq2 += n
	case 4:
		w.dq4 += n
	}
	if s.DQ >= 3 {
		w.dq3p += n
	}
	if s.Beat == 2 {
		w.beat2 += n
	}
	if s.Beat == 5 {
		w.beat5 += n
	}
	if s.BI == 4 {
		w.bint4 += n
	}
	b := e.Bits.BitCount()
	w.sumBits += n * b
	w.bitCounts[b] += int32(n)
	if w.sigs[s] += n; w.sigs[s] == 0 {
		delete(w.sigs, s)
	}
}

// maxBits returns the largest per-event bit count in the window.
func (w *winBits) maxBits() int {
	for b := 64; b > 0; b-- {
		if w.bitCounts[b] > 0 {
			return b
		}
	}
	return 0
}

// NewCursor starts an extraction pass over l from the beginning of its
// retained history. When the log carries a FoldState from CompactLog, the
// cursor seeds its lifetime accumulators from it, so extraction over a
// compacted log equals extraction over the uncompacted original at every
// instant whose observation window clears the compaction horizon.
func NewCursor(l *trace.DIMMLog) *Cursor {
	c := &Cursor{
		l:       l,
		firstCE: -1,
		lastCE:  -1,
	}
	c.bits.sigs = map[trace.Signature]int{}
	c.evBase, c.stormBase = l.CompactedEvents(), l.CompactedStorms()
	c.ceTotal = l.CompactedCEs()
	if fs, ok := l.FoldState().(*FoldState); ok {
		c.firstCE, c.lastCE = fs.firstCE, fs.lastCE
		c.life = fs.life.Clone()
	} else {
		c.life = analysis.NewIncremental()
	}
	return c
}

// advance consumes events up to and including instant t, and expires
// window state for events that fell out of [t−Δtd, t]. Expiry comes first,
// and a consumed CE already older than t−Δtd never enters the window
// state, so that state only ever holds CEs of [t−Δtd, t].
func (c *Cursor) advance(t trace.Minutes) {
	from := t - ObservationWindow
	events := c.l.Events
	for ; c.winStart < c.pos && events[c.winStart].Time < from; c.winStart++ {
		e := events[c.winStart]
		if e.Type != trace.TypeCE {
			c.winOther = c.winOther[1:] // the window's oldest non-CE record
			continue
		}
		c.winCEs--
		c.life.RemoveWindow(e)
		c.bits.update(e, -1)
		c.days.move(e.Time/trace.Day, -1)
	}
	for c.pos < len(events) && events[c.pos].Time <= t {
		e := events[c.pos]
		c.pos++
		inWindow := e.Time >= from
		if !inWindow {
			c.winStart = c.pos // the window held nothing older: events is time-sorted
		}
		if e.Type != trace.TypeCE {
			if inWindow {
				c.winOther = append(c.winOther, c.pos-1)
			}
			continue
		}
		if c.firstCE < 0 {
			c.firstCE = e.Time
		}
		c.lastCE = e.Time
		c.ceTotal++
		c.life.Add(e)
		if !inWindow {
			continue
		}
		c.winCEs++
		c.life.AddWindow(e)
		c.bits.update(e, 1)
		c.days.move(e.Time/trace.Day, 1)
	}
	storms := c.l.StormTimes()
	for c.stormPos < len(storms) && storms[c.stormPos] <= t {
		c.stormPos++
	}
}

// ceCountSince returns the number of consumed CEs with Time >= from, i.e.
// CEs in [from, t] after advance(t), for a from inside the window
// (from >= t−Δtd): the window's events from the first at or after from,
// less its UE and storm records among them.
func (c *Cursor) ceCountSince(from trace.Minutes) int {
	window := c.l.Events[c.winStart:c.pos]
	lo := c.winStart + sort.Search(len(window), func(i int) bool { return window[i].Time >= from })
	return c.pos - lo - (len(c.winOther) - sort.SearchInts(c.winOther, lo))
}

// ExtractAt computes the feature vector at instant t. Instants must be
// passed in nondecreasing order over the life of the cursor.
func (c *Cursor) ExtractAt(t trace.Minutes) []float64 {
	c.advance(t)
	l := c.l
	f := make([]float64, Dim())
	w := ObservationWindow

	ce5d := c.winCEs
	ceTotal := c.ceTotal

	stormsTotal := c.stormBase + c.stormPos
	storms := c.l.StormTimes()
	storms5d := c.stormPos - sort.Search(c.stormPos, func(i int) bool { return storms[i] >= t-w })

	i := 0
	next := func(v float64) { f[i] = v; i++ }

	next(float64(c.ceCountSince(t - 15)))
	next(float64(c.ceCountSince(t - trace.Hour)))
	next(float64(c.ceCountSince(t - 6*trace.Hour)))
	ce1d := c.ceCountSince(t - trace.Day)
	next(float64(ce1d))
	next(float64(ce5d))
	next(float64(ceTotal))
	// Acceleration: last-day rate vs the 5-day average rate.
	accel := 0.0
	if ce5d > 0 {
		accel = float64(ce1d) / (float64(ce5d) / 5.0)
	}
	next(accel)
	next(float64(storms5d))
	next(float64(stormsTotal))
	if c.firstCE >= 0 {
		next(float64(t - c.firstCE))
		next(float64(t - c.lastCE))
	} else {
		next(-1)
		next(-1)
	}
	next(float64(c.days.active()))

	clsW := c.life.WindowClass()
	next(float64(clsW.FaultyCells))
	next(float64(clsW.FaultyRows))
	next(float64(clsW.FaultyCols))
	next(float64(clsW.FaultyBanks))
	next(float64(clsW.FaultyDevices))
	next(boolf(clsW.MultiDevice))

	clsL := c.life.Class()
	next(float64(clsL.FaultyCells))
	next(float64(clsL.FaultyRows))
	next(float64(clsL.FaultyCols))
	next(float64(clsL.FaultyBanks))
	next(float64(clsL.FaultyDevices))
	next(boolf(clsL.MultiDevice))

	next(float64(c.life.DistinctBanks()))
	next(float64(c.life.DistinctRows()))
	next(float64(c.life.DistinctCols()))
	next(float64(c.life.MaxCellCEs()))

	wb := &c.bits
	frac := func(n int) float64 {
		if wb.nBits == 0 {
			return 0
		}
		return float64(n) / float64(wb.nBits)
	}
	next(frac(wb.dq1))
	next(frac(wb.dq2))
	next(frac(wb.dq4))
	next(frac(wb.dq3p))
	next(frac(wb.beat2))
	next(frac(wb.beat5))
	next(frac(wb.bint4))
	if wb.nBits > 0 {
		next(float64(wb.sumBits) / float64(wb.nBits))
	} else {
		next(0)
	}
	next(float64(wb.maxBits()))
	dom := trace.DominantOf(wb.sigs)
	next(float64(dom.DQ))
	next(float64(dom.Beat))
	next(float64(dom.DQI))
	next(float64(dom.BI))

	next(boolf(l.Part.Manufacturer == platform.VendorA))
	next(boolf(l.Part.Manufacturer == platform.VendorB))
	next(boolf(l.Part.Manufacturer == platform.VendorC))
	next(boolf(l.Part.Manufacturer == platform.VendorD))
	next(boolf(l.Part.Width == dram.X8))
	next(float64(l.Part.SpeedMTs))
	next(float64(l.Part.ProcessNm))
	next(float64(l.Part.CapacityGiB))

	if i != Dim() {
		panic(fmt.Sprintf("features: filled %d features, expected %d", i, Dim()))
	}
	return f
}

// Labelize returns the §IV label for a prediction made at t.
func Labelize(l *trace.DIMMLog, t trace.Minutes) Label {
	ue, ok := l.FirstUE()
	if !ok || ue <= t {
		// No UE, or prediction after the failure (callers should not
		// emit samples at/after the UE; treat defensively as dropped).
		if ok && ue <= t {
			return LabelDropped
		}
		return LabelNegative
	}
	start := t + LeadTime
	end := start + PredictionWindow
	switch {
	case ue < start:
		return LabelDropped // UE inside the lead gap: too late to act
	case ue <= end:
		return LabelPositive
	default:
		return LabelNegative
	}
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
