package analysis

import (
	"fmt"
	"sort"
	"strings"

	"memfp/internal/dram"
	"memfp/internal/trace"
)

// DatasetStats reproduces one row of Table I for a platform fleet.
type DatasetStats struct {
	Platform        string
	DIMMsWithCEs    int
	DIMMsWithUEs    int
	PredictableUEs  int // UEs preceded by at least one CE
	SuddenUEs       int // UEs with no preceding CE
	PredictablePct  float64
	SuddenPct       float64
	TotalUERatePct  float64 // UE DIMMs / (CE DIMMs + sudden-only DIMMs)
	TotalCEs        int
	StormEpisodes   int
	TotalPopulation int // all DIMMs seen in the logs
}

// TableI computes Table I statistics from a fleet's logs.
func TableI(s *trace.Store) DatasetStats {
	var st DatasetStats
	for _, l := range s.DIMMs() {
		st.TotalPopulation++
		if st.Platform == "" {
			st.Platform = string(l.ID.Platform)
		}
		ceTime, hasCE := l.FirstCE()
		ueTime, hasUE := l.FirstUE()
		if hasCE {
			st.DIMMsWithCEs++
		}
		if hasUE {
			st.DIMMsWithUEs++
			if hasCE && ceTime < ueTime {
				st.PredictableUEs++
			} else {
				st.SuddenUEs++
			}
		}
		for _, e := range l.Events {
			switch e.Type {
			case trace.TypeCE:
				st.TotalCEs++
			case trace.TypeStorm:
				st.StormEpisodes++
			}
		}
	}
	if st.DIMMsWithUEs > 0 {
		st.PredictablePct = 100 * float64(st.PredictableUEs) / float64(st.DIMMsWithUEs)
		st.SuddenPct = 100 * float64(st.SuddenUEs) / float64(st.DIMMsWithUEs)
	}
	if st.TotalPopulation > 0 {
		st.TotalUERatePct = 100 * float64(st.DIMMsWithUEs) / float64(st.TotalPopulation)
	}
	return st
}

// FaultCategory is one x-axis entry of Figure 4.
type FaultCategory string

// Figure 4 categories.
const (
	CatCell         FaultCategory = "Cell"
	CatColumn       FaultCategory = "Column"
	CatRow          FaultCategory = "Row"
	CatBank         FaultCategory = "Bank"
	CatSingleDevice FaultCategory = "Single device"
	CatMultiDevice  FaultCategory = "Multi-device"
)

// FaultCategories lists Figure 4's x-axis in order.
func FaultCategories() []FaultCategory {
	return []FaultCategory{CatCell, CatColumn, CatRow, CatBank, CatSingleDevice, CatMultiDevice}
}

// CategoryStats holds both Figure-4 readings for one category.
type CategoryStats struct {
	Category FaultCategory
	// DIMMs is the number of CE DIMMs classified into the category.
	DIMMs int
	// UEDIMMs is how many of those developed a UE.
	UEDIMMs int
	// RelativeUEPct is the share of all UE DIMMs falling in this
	// category — the "Relative % of UE" bar of Figure 4.
	RelativeUEPct float64
	// ConditionalUERatePct is P(UE | category) as a percentage, the
	// complementary reading reported alongside.
	ConditionalUERatePct float64
}

// Figure4 classifies every CE DIMM and computes per-category UE statistics.
// Component-level categories (cell..bank) and device-span categories
// (single/multi) are two projections of the same classification, exactly as
// the paper plots them side by side.
func Figure4(s *trace.Store) []CategoryStats {
	counts := map[FaultCategory]*CategoryStats{}
	for _, c := range FaultCategories() {
		counts[c] = &CategoryStats{Category: c}
	}
	totalUE := 0
	for _, l := range s.DIMMs() {
		ces := l.CEs()
		if len(ces) == 0 {
			continue // sudden-UE DIMMs carry no fault evidence
		}
		ueTime, hasUE := l.FirstUE()
		// Classify on pre-UE evidence only, as a deployed analysis would.
		if hasUE {
			ces = l.CEsBetween(0, ueTime)
			if len(ces) == 0 {
				continue
			}
		}
		cl := Classify(ces)
		var cats []FaultCategory
		switch cl.Mode {
		case CompCell:
			cats = append(cats, CatCell)
		case CompColumn:
			cats = append(cats, CatColumn)
		case CompRow:
			cats = append(cats, CatRow)
		case CompBank:
			cats = append(cats, CatBank)
		}
		if cl.MultiDevice {
			cats = append(cats, CatMultiDevice)
		} else {
			cats = append(cats, CatSingleDevice)
		}
		for _, cat := range cats {
			counts[cat].DIMMs++
			if hasUE {
				counts[cat].UEDIMMs++
			}
		}
		if hasUE {
			totalUE++
		}
	}
	out := make([]CategoryStats, 0, len(counts))
	for _, cat := range FaultCategories() {
		cs := counts[cat]
		if totalUE > 0 {
			cs.RelativeUEPct = 100 * float64(cs.UEDIMMs) / float64(totalUE)
		}
		if cs.DIMMs > 0 {
			cs.ConditionalUERatePct = 100 * float64(cs.UEDIMMs) / float64(cs.DIMMs)
		}
		out = append(out, *cs)
	}
	return out
}

// BitStat is one Figure-5 panel.
type BitStat string

// The four bit-level statistics of Figure 5.
const (
	StatDQCount      BitStat = "DQ count"
	StatBeatCount    BitStat = "Beat count"
	StatDQInterval   BitStat = "DQ interval"
	StatBeatInterval BitStat = "Beat interval"
)

// BitStats lists the Figure 5 panels in order.
func BitStats() []BitStat {
	return []BitStat{StatDQCount, StatBeatCount, StatDQInterval, StatBeatInterval}
}

// BitBucket is one bar of a Figure-5 panel: DIMMs whose dominant CE
// signature takes the given statistic value, and their UE rate.
type BitBucket struct {
	Value   int
	DIMMs   int
	UEDIMMs int
	// RelativeUERate is P(UE | dominant signature statistic == Value).
	RelativeUERate float64
}

// Figure5 computes, per bit statistic, the relative UE rate across DIMMs
// bucketed by their dominant CE signature value — the paper's error-bit
// analysis for x4 DRAM on the Intel platforms.
func Figure5(s *trace.Store) map[BitStat][]BitBucket {
	type agg struct{ dimms, ue int }
	panels := map[BitStat]map[int]*agg{}
	for _, st := range BitStats() {
		panels[st] = map[int]*agg{}
	}
	for _, l := range s.DIMMs() {
		if l.Part.Width != dram.X4 {
			continue // the paper's Figure 5 covers x4 devices
		}
		ces := l.CEs()
		if len(ces) == 0 {
			continue
		}
		ueTime, hasUE := l.FirstUE()
		if hasUE {
			ces = l.CEsBetween(0, ueTime)
			if len(ces) == 0 {
				continue
			}
		}
		dq, beat, dqi, bi := trace.DominantSignature(ces)
		for st, v := range map[BitStat]int{
			StatDQCount: dq, StatBeatCount: beat,
			StatDQInterval: dqi, StatBeatInterval: bi,
		} {
			b := panels[st][v]
			if b == nil {
				b = &agg{}
				panels[st][v] = b
			}
			b.dimms++
			if hasUE {
				b.ue++
			}
		}
	}
	out := map[BitStat][]BitBucket{}
	for st, m := range panels {
		vals := make([]int, 0, len(m))
		for v := range m {
			vals = append(vals, v)
		}
		sort.Ints(vals)
		for _, v := range vals {
			a := m[v]
			rate := 0.0
			if a.dimms > 0 {
				rate = float64(a.ue) / float64(a.dimms)
			}
			out[st] = append(out[st], BitBucket{Value: v, DIMMs: a.dimms, UEDIMMs: a.ue, RelativeUERate: rate})
		}
	}
	return out
}

// FormatTableI renders Table I rows as an aligned text table.
func FormatTableI(rows []DatasetStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %10s %16s %12s %12s\n",
		"Platform", "CE DIMMs", "UE DIMMs", "Predictable %", "Sudden %", "UE rate %")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %10d %10d %16.1f %12.1f %12.2f\n",
			r.Platform, r.DIMMsWithCEs, r.DIMMsWithUEs, r.PredictablePct, r.SuddenPct, r.TotalUERatePct)
	}
	return sb.String()
}

// FormatFigure4 renders Figure 4 bars for one platform.
func FormatFigure4(platformName string, cats []CategoryStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4 — %s (relative %% of UE DIMMs per fault category)\n", platformName)
	for _, c := range cats {
		fmt.Fprintf(&sb, "  %-14s %6.1f%%  (P(UE|cat)=%5.1f%%, n=%d)\n",
			c.Category, c.RelativeUEPct, c.ConditionalUERatePct, c.DIMMs)
	}
	return sb.String()
}

// FormatFigure5 renders the four Figure 5 panels for one platform.
func FormatFigure5(platformName string, panels map[BitStat][]BitBucket) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5 — %s (relative UE rate by dominant CE signature)\n", platformName)
	for _, st := range BitStats() {
		fmt.Fprintf(&sb, "  %s:\n", st)
		for _, b := range panels[st] {
			fmt.Fprintf(&sb, "    %2d: %.3f  (n=%d)\n", b.Value, b.RelativeUERate, b.DIMMs)
		}
	}
	return sb.String()
}
