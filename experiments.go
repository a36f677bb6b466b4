package memfp

import (
	"context"
	"fmt"
	"strings"

	"memfp/internal/analysis"
	"memfp/internal/eval"
	"memfp/internal/faultsim"
	"memfp/internal/ml/model"
	"memfp/internal/par"
	"memfp/internal/platform"
)

// The experiment runners below all share one shape: fan the run's cells
// (one per platform, or one per platform × algorithm) out across the
// internal/par worker pool, fetching fleets through the run's FleetCache, and
// reassemble results in stable platform/algorithm order regardless of
// which cell finished first. Each cell is deterministic for a given seed
// and touches no state shared with its siblings, so the parallel output is
// identical to the sequential one.

// RunTableI generates every platform fleet and computes Table I rows.
func RunTableI(ctx context.Context, cfg Config) ([]analysis.DatasetStats, error) {
	return perPlatform(ctx, cfg, "table1", platform.All(), func(_ platform.ID, res *faultsim.Result) analysis.DatasetStats {
		return analysis.TableI(res.Store)
	})
}

// Figure4Result is one platform's Figure 4 bars.
type Figure4Result struct {
	Platform platform.ID
	Cats     []analysis.CategoryStats
}

// RunFigure4 computes the fault-mode/UE correlation for each platform.
func RunFigure4(ctx context.Context, cfg Config) ([]Figure4Result, error) {
	return perPlatform(ctx, cfg, "fig4", platform.All(), func(id platform.ID, res *faultsim.Result) Figure4Result {
		return Figure4Result{Platform: id, Cats: analysis.Figure4(res.Store)}
	})
}

// Figure5Result is one platform's four Figure 5 panels.
type Figure5Result struct {
	Platform platform.ID
	Panels   map[analysis.BitStat][]analysis.BitBucket
}

// RunFigure5 computes the error-bit analysis for the Intel platforms (the
// paper's Figure 5 scope).
func RunFigure5(ctx context.Context, cfg Config) ([]Figure5Result, error) {
	intel := []platform.ID{platform.Purley, platform.Whitley}
	return perPlatform(ctx, cfg, "fig5", intel, func(id platform.ID, res *faultsim.Result) Figure5Result {
		return Figure5Result{Platform: id, Panels: analysis.Figure5(res.Store)}
	})
}

// perPlatform fetches each platform's fleet, one cell per platform named
// exp/<platform>, and maps it through analyze.
func perPlatform[T any](ctx context.Context, cfg Config, exp string, ids []platform.ID,
	analyze func(platform.ID, *faultsim.Result) T) ([]T, error) {
	cfg = cfg.withDefaults()
	return par.Map(ctx, cfg.Workers, ids,
		func(id platform.ID) string { return exp + "/" + string(id) },
		func(ctx context.Context, id platform.ID) (T, error) {
			res, err := cfg.generate(ctx, id)
			if err != nil {
				var zero T
				return zero, err
			}
			return analyze(id, res), nil
		})
}

// Cell is one Table II cell group (one algorithm on one platform).
type Cell struct {
	Metrics    eval.Metrics
	Applicable bool
}

// TableII is the full comparison: platform → algorithm → metrics.
type TableII struct {
	Cells map[platform.ID]map[Algo]Cell
}

// RunTableII trains and evaluates every registered algorithm on every
// platform as a two-stage pipeline: stage one builds each platform's
// fleet (generation, feature extraction, splitting) in parallel; stage
// two fans every platform × algorithm cell out across the worker pool.
// Cell results are keyed by (platform, algorithm), so the assembled table
// is independent of completion order.
func RunTableII(ctx context.Context, cfg Config) (*TableII, error) {
	cfg = cfg.withDefaults()
	ids := platform.All()
	fleets, err := par.Map(ctx, cfg.Workers, ids,
		func(id platform.ID) string { return "table2/fleet/" + string(id) },
		func(ctx context.Context, id platform.ID) (*Fleet, error) {
			return BuildFleet(ctx, cfg, id)
		})
	if err != nil {
		return nil, err
	}

	type cellKey struct {
		id   platform.ID
		algo Algo
	}
	var tasks []par.Task[Cell]
	var keys []cellKey
	for i, id := range ids {
		fleet := fleets[i]
		for _, a := range Algos() {
			a := a
			keys = append(keys, cellKey{id, a})
			tasks = append(tasks, par.Task[Cell]{
				Name: fmt.Sprintf("table2/%s/%s", id, a),
				Run: func(ctx context.Context) (Cell, error) {
					return EvaluateAlgo(ctx, cfg, fleet, a)
				},
			})
		}
	}
	cells, err := par.Run(ctx, cfg.Workers, tasks)
	if err != nil {
		return nil, fmt.Errorf("memfp: evaluate: %w", err)
	}

	t2 := &TableII{Cells: map[platform.ID]map[Algo]Cell{}}
	for _, id := range ids {
		t2.Cells[id] = map[Algo]Cell{}
	}
	for i, c := range cells {
		t2.Cells[keys[i].id][keys[i].algo] = c
	}
	return t2, nil
}

// EvaluateAlgo trains one algorithm on the fleet's training partition,
// tunes its decision threshold on validation DIMMs (max F1), and reports
// test-partition DIMM-level metrics. It reads the fleet but never mutates
// it, so concurrent evaluations may share one fleet. Cancellation is
// checked between the cell's phases (before training and before each
// scoring pass) — model fitting itself runs to completion, so
// cancellation latency is bounded by the longest single fit.
//
// The algorithm comes from the predictor registry: any trainer
// registered with internal/ml/model evaluates here (and therefore in
// Table II) with no changes to this function.
func EvaluateAlgo(ctx context.Context, cfg Config, fleet *Fleet, a Algo) (Cell, error) {
	cfg = cfg.withDefaults()
	cell := Cell{Applicable: true}

	trainer, ok := model.Get(string(a))
	if !ok {
		return cell, fmt.Errorf("unknown algorithm %q (registered: %v)", a, model.Names())
	}
	if !trainer.Applicable(fleet.Platform.ID) {
		cell.Applicable = false
		return cell, nil
	}
	if err := ctx.Err(); err != nil {
		return cell, err
	}
	m, err := trainer.Fit(ctx, fleet.TrainSet(cfg))
	if err != nil {
		return cell, err
	}
	if err := ctx.Err(); err != nil {
		return cell, err
	}

	test := fleet.Split.Test
	testScores := m.ScoreBatch(fleet.batch(test))

	// Models emitting calibrated decisions (the rule baseline) carry
	// their own threshold; everything else tunes one on validation.
	if ft, ok := m.(model.FixedThresholder); ok {
		ds := eval.AggregateByDIMMWindow(test.DIMMs, test.Times, testScores, test.Y)
		cell.Metrics = eval.Compute(eval.ConfusionAt(ds, ft.FixedThreshold()))
		return cell, nil
	}

	val := fleet.Split.Val
	tr := fleet.Split.Train
	cell.Metrics = eval.EvaluateWindowed(
		eval.Series{DIMMs: tr.DIMMs, Times: tr.Times, Y: tr.Y},
		eval.Series{DIMMs: val.DIMMs, Times: val.Times, Scores: m.ScoreBatch(fleet.batch(val)), Y: val.Y},
		eval.Series{DIMMs: test.DIMMs, Times: test.Times, Scores: testScores, Y: test.Y})
	return cell, nil
}

// Format renders the comparison like the paper's Table II. The label
// column stretches to the longest registered algorithm name, so registry
// extensions stay aligned.
func (t *TableII) Format() string {
	var sb strings.Builder
	ids := make([]platform.ID, 0, len(t.Cells))
	for _, id := range platform.All() {
		if _, ok := t.Cells[id]; ok {
			ids = append(ids, id)
		}
	}
	width := 18
	for _, a := range Algos() {
		if len(a) >= width {
			width = len(a) + 1
		}
	}
	fmt.Fprintf(&sb, "%-*s", width, "Algorithm")
	for _, id := range ids {
		fmt.Fprintf(&sb, " | %-27s", id)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-*s", width, "")
	for range ids {
		fmt.Fprintf(&sb, " | %5s %5s %5s %5s  ", "P", "R", "F1", "VIRR")
	}
	sb.WriteByte('\n')
	for _, a := range Algos() {
		fmt.Fprintf(&sb, "%-*s", width, a)
		for _, id := range ids {
			c := t.Cells[id][a]
			if !c.Applicable {
				fmt.Fprintf(&sb, " | %5s %5s %5s %5s  ", "X", "X", "X", "X")
				continue
			}
			m := c.Metrics
			fmt.Fprintf(&sb, " | %5.2f %5.2f %5.2f %5.2f  ", m.Precision, m.Recall, m.F1, m.VIRR)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
