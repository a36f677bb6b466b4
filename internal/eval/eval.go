// Package eval implements §IV's performance measures: windowed DIMM-level
// confusion counting, precision/recall/F1, the VM Interruption Reduction
// Rate (VIRR), threshold tuning on validation data, and PR sweeps. The
// protocol's values are constants: units span Δtp
// (features.PredictionWindow), VIRR is taken at yc = YC, and the Table II
// tuning rule's positive count and budget factor are declared below.
// VIRR(p, r, yc) keeps yc as an argument for the Figure 2 sweep.
package eval

import (
	"fmt"
	"math"
	"sort"

	"memfp/internal/features"
	"memfp/internal/trace"
)

// YC is §IV's yc: the fraction of VMs that must cold-migrate when a
// prediction fires (the paper sets a conservative 0.1).
const YC = 0.1

// The Table II tuning rule (TuneThreshold): validation max-F1 is trusted
// alone from minValPositives positive units up; below that, the alarm
// budget is alarmBudgetFactor × the pre-deployment positive-unit rate.
const (
	minValPositives   = 20
	alarmBudgetFactor = 1.6
)

// Confusion is a DIMM-level confusion matrix.
type Confusion struct {
	TP, FP, FN, TN int
}

// Add accumulates another confusion matrix.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
	c.TN += o.TN
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// VIRR is the §IV closed form of the VM Interruption Reduction Rate,
// (1 − yc/precision) · recall: negative when precision < yc, and 0 when
// precision is 0 (no alarm fired, so nothing changed).
func VIRR(precision, recall, yc float64) float64 {
	if precision == 0 {
		return 0
	}
	return (1 - yc/precision) * recall
}

// VIRR computes the VM Interruption Reduction Rate of the matrix at yc =
// YC.
func (c Confusion) VIRR() float64 {
	return VIRR(c.Precision(), c.Recall(), YC)
}

// Metrics bundles the Table II cell values.
type Metrics struct {
	Precision, Recall, F1, VIRR float64
	Confusion                   Confusion
}

// Compute derives metrics from a confusion matrix.
func Compute(c Confusion) Metrics {
	return Metrics{
		Precision: c.Precision(), Recall: c.Recall(), F1: c.F1(),
		VIRR: c.VIRR(), Confusion: c,
	}
}

// String renders the metrics like a Table II cell group.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.2f R=%.2f F1=%.2f VIRR=%.2f", m.Precision, m.Recall, m.F1, m.VIRR)
}

// DIMMScore aggregates per-sample scores to DIMM level: a DIMM's score is
// the maximum over its sample scores in the evaluation period (a single
// alarm anywhere flags the DIMM).
type DIMMScore struct {
	DIMM  trace.DIMMID
	Score float64
	// Actual is whether the DIMM truly failed within its prediction
	// window during the evaluation period.
	Actual bool
}

// AggregateByDIMM folds per-sample (dimm, score, label) triples into
// per-DIMM scores. A DIMM counts as actually-positive when any of its
// samples is labeled positive (a UE fell inside some sample's prediction
// window).
func AggregateByDIMM(dimms []trace.DIMMID, scores []float64, labels []int) []DIMMScore {
	return aggregate(dimms, nil, scores, labels, 0)
}

// AggregateByDIMMWindow folds samples into (DIMM, window)-bucket units of
// length Δtp (features.PredictionWindow, the paper's evaluation
// granularity). Bucketing
// equalizes exposure between evaluation periods of different lengths: a
// DIMM observed for three months contributes three units, so the max-score
// statistic is comparable between a 30-day validation period and a 90-day
// test period.
func AggregateByDIMMWindow(dimms []trace.DIMMID, times []trace.Minutes,
	scores []float64, labels []int) []DIMMScore {
	return aggregate(dimms, times, scores, labels, features.PredictionWindow)
}

func aggregate(dimms []trace.DIMMID, times []trace.Minutes,
	scores []float64, labels []int, window trace.Minutes) []DIMMScore {
	type key struct {
		d trace.DIMMID
		w trace.Minutes
	}
	idx := map[key]int{}
	var out []DIMMScore
	for i, d := range dimms {
		k := key{d: d}
		if window > 0 {
			k.w = times[i] / window
		}
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, DIMMScore{DIMM: d, Score: math.Inf(-1)})
		}
		if scores[i] > out[j].Score {
			out[j].Score = scores[i]
		}
		if labels[i] == 1 {
			out[j].Actual = true
		}
	}
	return out
}

// ConfusionAt thresholds DIMM scores and counts the confusion matrix.
func ConfusionAt(ds []DIMMScore, threshold float64) Confusion {
	var c Confusion
	for _, d := range ds {
		pred := d.Score >= threshold
		switch {
		case pred && d.Actual:
			c.TP++
		case pred && !d.Actual:
			c.FP++
		case !pred && d.Actual:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// PRPoint is one point of a precision-recall sweep.
type PRPoint struct {
	Threshold                   float64
	Precision, Recall, F1, VIRR float64
}

// PRSweep evaluates every distinct score as a threshold, high to low.
func PRSweep(ds []DIMMScore) []PRPoint {
	set := map[float64]struct{}{}
	for _, d := range ds {
		set[d.Score] = struct{}{}
	}
	ths := make([]float64, 0, len(set))
	for t := range set {
		ths = append(ths, t)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ths)))
	out := make([]PRPoint, 0, len(ths))
	for _, t := range ths {
		c := ConfusionAt(ds, t)
		out = append(out, PRPoint{
			Threshold: t, Precision: c.Precision(), Recall: c.Recall(),
			F1: c.F1(), VIRR: c.VIRR(),
		})
	}
	return out
}

// BestF1Threshold returns the threshold maximizing F1 over the sweep
// (tuned on validation scores, then applied to test).
func BestF1Threshold(ds []DIMMScore) (float64, PRPoint) {
	sweep := PRSweep(ds)
	best := PRPoint{Threshold: 0.5}
	for _, p := range sweep {
		if p.F1 > best.F1 {
			best = p
		}
	}
	return best.Threshold, best
}

// TuneThreshold selects a decision threshold combining two estimators:
//
//   - the validation max-F1 threshold, which is accurate when validation
//     carries enough positive units but degenerates (usually too low)
//     when positives are scarce; and
//   - an alarm-budget threshold: the quantile of the deployment-period
//     score distribution at alarmBudgetFactor × the base positive-unit
//     rate.
//     The rate comes from labels observed before deployment and the
//     quantile uses only score *order* on the new period, so there is no
//     label leakage. This mirrors production practice, where migration
//     capacity bounds the alarm rate regardless of model calibration.
//
// With at least minValPositives validation positives the max-F1 estimate is
// trusted alone; otherwise the more conservative (higher) of the two is
// returned, since sparse-positive max-F1 errs toward over-alarming and
// VIRR punishes precision collapse hardest.
func TuneThreshold(valDS []DIMMScore, baseRate float64, deployScores []float64) float64 {
	pos := 0
	for _, d := range valDS {
		if d.Actual {
			pos++
		}
	}
	th, _ := BestF1Threshold(valDS)
	if pos >= minValPositives || len(deployScores) == 0 || baseRate <= 0 {
		return th
	}
	k := int(math.Ceil(alarmBudgetFactor * baseRate * float64(len(deployScores))))
	if k < 1 {
		k = 1
	}
	scores := append([]float64(nil), deployScores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if k > len(scores) {
		k = len(scores)
	}
	if budget := scores[k-1]; budget > th {
		return budget
	}
	return th
}

// PositiveUnitRate returns the fraction of units with Actual=true —
// the base rate used for alarm budgeting.
func PositiveUnitRate(ds []DIMMScore) float64 {
	if len(ds) == 0 {
		return 0
	}
	pos := 0
	for _, d := range ds {
		if d.Actual {
			pos++
		}
	}
	return float64(pos) / float64(len(ds))
}

// AUPRC returns the area under the precision-recall curve via trapezoids
// over the sweep (a threshold-free quality summary used in tests).
func AUPRC(ds []DIMMScore) float64 {
	sweep := PRSweep(ds)
	if len(sweep) == 0 {
		return 0
	}
	area := 0.0
	prevR, prevP := 0.0, 1.0
	for _, p := range sweep {
		area += (p.Recall - prevR) * (p.Precision + prevP) / 2
		prevR, prevP = p.Recall, p.Precision
	}
	return area
}
