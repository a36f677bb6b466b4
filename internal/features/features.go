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
// computed over binary-searched subslices of the time-sorted CE view.
// BuildSamples replaces its per-instant full-history re-extraction (up to
// 48 scans per DIMM) with one cursor walk.
//
// A Cursor reads the log but never mutates it, so concurrent cursors may
// share one DIMM log; a single Cursor is not safe for concurrent use.
type Cursor struct {
	l      *trace.DIMMLog
	ces    []trace.Event // time-sorted CE view (shared with the log's index)
	storms []trace.Minutes

	pos      int // CEs consumed so far: ces[:pos] all have Time <= last t
	stormPos int // storms consumed so far

	// The log's CompactedCEs and CompactedStorms as of the views above:
	// the counts a compacted-away prefix contributes.
	ceBase, stormBase int

	// Lifetime accumulators over the fold seed plus ces[:pos].
	firstCE, lastCE trace.Minutes
	life            *analysis.Incremental

	// Observation-window state over ces[winStart:pos]: the §V
	// classification and the per-day CE tallies, folded in as events enter
	// the window and folded out as they expire past t−Δtd — so the
	// window-bounded features cost O(events entering + leaving) per
	// instant instead of a rebuild over the whole window.
	winStart int
	win      *analysis.Incremental
	dayCEs   map[trace.Minutes]int
	bits     winBits
}

// winBits maintains the window's bit-level signature statistics under the
// same enter/expire discipline: per-event mask decompositions happen once
// on entry and once on expiry, and the dominant signature reduces to an
// argmax over the (few) distinct tuples present instead of a rescan.
type winBits struct {
	nBits, dq1, dq2, dq4, dq3p, beat2, beat5, bint4, sumBits int
	bitCounts                                                [65]int // histogram over BitCount (mask is 64-bit)
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
	w.bitCounts[b] += n
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
		ces:     l.CEs(),
		storms:  l.StormTimes(),
		firstCE: -1,
		lastCE:  -1,
		win:     analysis.NewIncremental(),
		dayCEs:  map[trace.Minutes]int{},
	}
	c.bits.sigs = map[trace.Signature]int{}
	c.ceBase, c.stormBase = l.CompactedCEs(), l.CompactedStorms()
	if fs, ok := l.FoldState().(*FoldState); ok {
		c.firstCE, c.lastCE = fs.firstCE, fs.lastCE
		c.life = fs.life.Clone()
	} else {
		c.life = analysis.NewIncremental()
	}
	return c
}

// advance consumes events up to and including instant t, and expires
// window state for events that fell out of [t−Δtd, t].
func (c *Cursor) advance(t trace.Minutes) {
	for c.pos < len(c.ces) && c.ces[c.pos].Time <= t {
		e := c.ces[c.pos]
		if c.firstCE < 0 {
			c.firstCE = e.Time
		}
		c.lastCE = e.Time
		c.life.Add(e)
		c.win.Add(e)
		c.bits.update(e, 1)
		c.dayCEs[e.Time/trace.Day]++
		c.pos++
	}
	for from := t - ObservationWindow; c.winStart < c.pos && c.ces[c.winStart].Time < from; c.winStart++ {
		e := c.ces[c.winStart]
		c.win.Remove(e)
		c.bits.update(e, -1)
		if day := e.Time / trace.Day; c.dayCEs[day] == 1 {
			delete(c.dayCEs, day)
		} else {
			c.dayCEs[day]--
		}
	}
	for c.stormPos < len(c.storms) && c.storms[c.stormPos] <= t {
		c.stormPos++
	}
}

// ceCountSince returns the number of consumed CEs with Time >= from, i.e.
// CEs in [from, t] after advance(t).
func (c *Cursor) ceCountSince(from trace.Minutes) int {
	return c.pos - sort.Search(c.pos, func(i int) bool { return c.ces[i].Time >= from })
}

// ExtractAt computes the feature vector at instant t. Instants must be
// passed in nondecreasing order over the life of the cursor.
func (c *Cursor) ExtractAt(t trace.Minutes) []float64 {
	c.advance(t)
	l := c.l
	f := make([]float64, Dim())
	w := ObservationWindow

	windowCEs := c.ces[c.winStart:c.pos]
	ce5d := len(windowCEs)
	ceTotal := c.ceBase + c.pos

	stormsTotal := c.stormBase + c.stormPos
	storms5d := c.stormPos - sort.Search(c.stormPos, func(i int) bool { return c.storms[i] >= t-w })

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
	next(float64(len(c.dayCEs)))

	clsW := c.win.Class()
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
