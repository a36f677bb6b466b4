package memfp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"memfp/internal/analysis"
	"memfp/internal/eval"
	"memfp/internal/features"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
	"memfp/internal/ras"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// Experiment is one artifact of the reproduction report: a paper table or
// figure, or an extension beyond the paper.
type Experiment struct {
	// Name selects the experiment (`memfp repro -exp table2`).
	Name string
	// Run computes the artifact and writes its report to w.
	Run func(ctx context.Context, cfg Config, w io.Writer) error
}

// Experiments lists the paper's artifacts in report order; `memfp repro`
// runs them.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", runTable1},     // Table I — dataset description per platform
		{"fig2", runFig2},         // Figure 2 — VIRR cost model sweep + RAS simulation
		{"fig3", runFig3},         // Figure 3 — prediction window configuration
		{"fig4", runFig4},         // Figure 4 — fault mode vs UE correlation
		{"fig5", runFig5},         // Figure 5 — error-bit analysis (Intel platforms)
		{"table2", runTable2},     // Table II — algorithm comparison across platforms
		{"fig6", runFig6},         // Figure 6 — the MLOps loop on the Purley fleet
		{"transfer", runTransfer}, // cross-platform transfer matrix (extension)
	}
}

func runTable1(ctx context.Context, cfg Config, w io.Writer) error {
	rows, err := RunTableI(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table I — Description of Dataset (synthetic fleet, scale-adjusted)\n")
	fmt.Fprintf(w, "%s", analysis.FormatTableI(rows))
	var shares []string
	for _, s := range Paper.TableI {
		shares = append(shares, fmt.Sprintf("%s %d%%/%d%%", s.Platform.Short(), s.PredictablePct, s.SuddenPct))
	}
	fmt.Fprintf(w, "\npaper: %s predictable/sudden\n", strings.Join(shares, ", "))
	return nil
}

func runFig2(ctx context.Context, cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "Figure 2 — VIRR cost model: VIRR = (1 − yc/precision)·recall\n")
	var points []eval.Metrics
	var op PaperCell // the operating point the RAS simulation replays
	for _, c := range Paper.TableII {
		if c.Algo != model.NameGBDT {
			continue
		}
		points = append(points, eval.Metrics{Precision: c.Precision, Recall: c.Recall})
		if c.Platform == platform.Purley {
			op = c
		}
	}
	points = append(points, eval.Metrics{Precision: 0.09, Recall: 0.90}) // below-yc pathology
	sort.Slice(points, func(i, j int) bool { return points[i].Precision < points[j].Precision })
	fmt.Fprintf(w, "%8s %10s %8s %8s\n", "yc", "precision", "recall", "VIRR")
	for _, m := range points {
		for _, yc := range []float64{0.05, 0.10, 0.20, 0.30} {
			fmt.Fprintf(w, "%8.2f %10.2f %8.2f %8.3f\n", yc, m.Precision, m.Recall, eval.VIRR(m.Precision, m.Recall, yc))
		}
	}
	fmt.Fprintf(w, "\nVIRR < 0 whenever precision < yc: prediction then *adds* interruptions\n")

	// Executable version of the cost model: replay synthetic alarms and
	// failures at the operating point through the RAS mitigation pipeline
	// and compare the simulated VIRR against the closed form.
	fmt.Fprintf(w, "\nRAS pipeline simulation (P=%.2f, R=%.2f operating point):\n", op.Precision, op.Recall)
	// DIMMs [0, tp) are TPs, [tp, fpEnd) FPs and [fpEnd, fnEnd) FNs.
	const tp = 1600
	fpEnd := tp + int(math.Round(tp*(1-op.Precision)/op.Precision))
	fnEnd := fpEnd + int(math.Round(tp*(1-op.Recall)/op.Recall))
	rng := xrand.New(cfg.Seed)
	var alarms []ras.Alarm
	var failures []ras.Failure
	for i := 0; i < fnEnd; i++ {
		d := trace.DIMMID{Platform: platform.Purley, Server: i}
		if i < fpEnd {
			alarms = append(alarms, ras.Alarm{Time: 100, DIMM: d})
		}
		switch {
		case i < tp:
			failures = append(failures, ras.Failure{Time: 200 + trace.Minutes(rng.Intn(20000)), DIMM: d})
		case i >= fpEnd:
			failures = append(failures, ras.Failure{Time: 500, DIMM: d})
		}
	}
	out, err := ras.Simulate(ras.DefaultConfig(), alarms, failures)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  simulated: P=%.2f R=%.2f VIRR=%.3f (closed form %.3f)\n",
		out.Precision(), out.Recall(), out.VIRR(),
		eval.VIRR(out.Precision(), out.Recall(), eval.YC))
	fmt.Fprintf(w, "  actions: live=%d cold=%d offline=%d sparing=%d\n",
		out.Actions[ras.ActionLiveMigration], out.Actions[ras.ActionColdMigration],
		out.Actions[ras.ActionPageOffline], out.Actions[ras.ActionSparing])
	return nil
}

func runFig3(ctx context.Context, cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "Figure 3 — failure prediction problem definition (window configuration)\n")
	fmt.Fprintf(w, "  observation window Δtd = %v\n", features.ObservationWindow)
	fmt.Fprintf(w, "  lead window        Δtl = %v\n", features.LeadTime)
	fmt.Fprintf(w, "  prediction window  Δtp = %v\n", features.PredictionWindow)
	fmt.Fprintf(w, "  collection span        = %d days (paper: Jan–Oct 2023)\n", int(trace.ObservationSpan/trace.Day))
	return nil
}

func runFig4(ctx context.Context, cfg Config, w io.Writer) error {
	res, err := RunFigure4(ctx, cfg)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Fprintf(w, "%s", analysis.FormatFigure4(string(r.Platform), r.Cats))
	}
	fmt.Fprintf(w, "paper: single-device dominant on Purley; multi-device dominant on Whitley & K920\n")
	return nil
}

func runFig5(ctx context.Context, cfg Config, w io.Writer) error {
	res, err := RunFigure5(ctx, cfg)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Fprintf(w, "%s", analysis.FormatFigure5(string(r.Platform), r.Panels))
	}
	var risky []string
	for _, r := range Paper.Figure5 {
		s := fmt.Sprintf("%s risky = %d DQs / %d beats", r.Platform.Short(), r.DQs, r.Beats)
		if r.BeatInterval > 0 {
			s += fmt.Sprintf(" / %d-beat interval", r.BeatInterval)
		}
		risky = append(risky, s)
	}
	fmt.Fprintf(w, "paper: %s\n", strings.Join(risky, "; "))
	return nil
}

func runTable2(ctx context.Context, cfg Config, w io.Writer) error {
	t2, err := RunTableII(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table II — Algorithm performance comparison (X = not applicable)\n")
	fmt.Fprintf(w, "%s", t2.Format())
	var best []string
	for _, c := range Paper.Best() {
		best = append(best, fmt.Sprintf("%s %.2f (%s)", c.Platform.Short(), c.F1, c.Algo))
	}
	fmt.Fprintf(w, "\npaper best F1: %s\n", strings.Join(best, ", "))
	return nil
}

func runTransfer(ctx context.Context, cfg Config, w io.Writer) error {
	cfg.Scale *= 0.5 // 9 train/eval cells; keep it tractable
	res, err := RunTransferMatrix(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Cross-platform transfer (%s; extension beyond the paper)\n", transferTrainer)
	fmt.Fprintf(w, "%s", FormatTransferMatrix(res))
	fmt.Fprintf(w, "\ndiagonal dominance = per-platform models are necessary (paper Findings 2-4)\n")
	return nil
}
