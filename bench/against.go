package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of the -against comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// classify compares a metric's earlier and current summaries. The change
// is the current median's distance from the earlier one as a share of
// the earlier, signed so that positive is worse. Within the bound the row
// is the same; beyond it the row is better or worse only when the two
// runs' min–max ranges are disjoint, and unresolved when they overlap —
// the medians moved, but no further than the repetitions themselves
// scatter.
func classify(d metricDef, old, cur summary) (verdict string, change float64) {
	if old.Median == 0 {
		if cur.Median == 0 {
			return verdictSame, 0
		}
		return verdictUnresolved, 0
	}
	change = (cur.Median - old.Median) / old.Median
	if d.Better == higher {
		change = -change
	}
	if change <= d.Bound && change >= -d.Bound {
		return verdictSame, change
	}
	if old.Min <= cur.Max && cur.Min <= old.Max {
		return verdictUnresolved, change
	}
	if change > 0 {
		return verdictWorse, change
	}
	return verdictBetter, change
}

// compare prints one row per (workload, end-to-end metric) present in
// both reports and returns whether the current report regressed: any
// worse row, or any rise in failed ÷ attempted ops.
func compare(out io.Writer, old, cur *report) (regressed bool) {
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tearlier\tcurrent\tchange\tbound\tverdict")
	for _, cw := range cur.Workloads {
		ow := old.workload(cw.Name)
		if ow == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tnot in the earlier report\n", cw.Name)
			continue
		}
		for _, d := range endToEnd {
			om, ok1 := ow.Metrics[d.Name]
			cm, ok2 := cw.Metrics[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			verdict, change := classify(d, om.summary, cm.summary)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t±%.0f%%\t%s\n",
				cw.Name, d.Name, om.Median, cm.Median, 100*change, 100*d.Bound, verdict)
			regressed = regressed || verdict == verdictWorse
		}
		oldRate := ratio(float64(ow.OpsFailed), float64(ow.OpsAttempted))
		curRate := ratio(float64(cw.OpsFailed), float64(cw.OpsAttempted))
		if curRate > oldRate {
			fmt.Fprintf(tw, "%s\tops_failed/ops_attempted\t%d/%d\t%d/%d\t-\t-\t%s\n",
				cw.Name, ow.OpsFailed, ow.OpsAttempted, cw.OpsFailed, cw.OpsAttempted, verdictWorse)
			regressed = true
		}
	}
	tw.Flush()
	return regressed
}
