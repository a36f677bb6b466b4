package memfp

import (
	"context"
	"fmt"
	"strings"

	"memfp/internal/eval"
	"memfp/internal/ml/model"
	"memfp/internal/par"
	"memfp/internal/platform"
)

// Cross-platform transfer experiment: train a predictor on one platform's
// fleet, apply it to another's. This is the repository's extension of the
// paper's central motivation — if failure patterns were
// architecture-independent, transfer would be free; the measured diagonal
// dominance quantifies why the paper builds per-platform models.

// TransferResult is one (train platform, test platform) cell.
type TransferResult struct {
	TrainOn, TestOn platform.ID
	Metrics         eval.Metrics
}

// transferTrainer is the predictor the transfer matrix trains: the
// paper's LightGBM, applicable on every platform.
const transferTrainer = model.NameGBDT

// RunTransferMatrix trains transferTrainer per platform and evaluates
// every model on every platform's test partition, as a two-stage
// pipeline: stage one builds and trains one model per platform in
// parallel; stage two fans the source × destination evaluation cells out
// across the pool.
func RunTransferMatrix(ctx context.Context, cfg Config) ([]TransferResult, error) {
	cfg = cfg.withDefaults()
	trainer, ok := model.Get(transferTrainer)
	if !ok {
		return nil, fmt.Errorf("memfp: transfer: trainer %q is not registered", transferTrainer)
	}
	ids := platform.All()
	type trained struct {
		fleet *Fleet
		model model.Model
	}
	ts, err := par.Map(ctx, ids,
		func(id platform.ID) string { return "transfer/train/" + string(id) },
		func(ctx context.Context, id platform.ID) (trained, error) {
			fleet, err := BuildFleet(ctx, cfg, id)
			if err != nil {
				return trained{}, err
			}
			m, err := trainer.Fit(ctx, fleet.TrainSet(cfg))
			if err != nil {
				return trained{}, fmt.Errorf("memfp: transfer train %s: %w", id, err)
			}
			return trained{fleet: fleet, model: m}, nil
		})
	if err != nil {
		return nil, err
	}
	models := map[platform.ID]trained{}
	for i, id := range ids {
		models[id] = ts[i]
	}

	type pair struct{ src, dst platform.ID }
	var pairs []pair
	for _, src := range ids {
		for _, dst := range ids {
			pairs = append(pairs, pair{src, dst})
		}
	}
	return par.Map(ctx, pairs,
		func(p pair) string { return fmt.Sprintf("transfer/%s->%s", p.src, p.dst) },
		func(ctx context.Context, p pair) (TransferResult, error) {
			srcT, dstT := models[p.src], models[p.dst]
			// Threshold tuned on the *source* platform's validation —
			// exactly what naive reuse of a foreign model would do.
			val := srcT.fleet.Split.Val
			tr := srcT.fleet.Split.Train
			test := dstT.fleet.Split.Test
			metrics := eval.EvaluateWindowed(
				eval.Series{DIMMs: tr.DIMMs, Times: tr.Times, Y: tr.Y},
				eval.Series{DIMMs: val.DIMMs, Times: val.Times,
					Scores: srcT.model.ScoreBatch(srcT.fleet.batch(val)), Y: val.Y},
				eval.Series{DIMMs: test.DIMMs, Times: test.Times,
					Scores: srcT.model.ScoreBatch(dstT.fleet.batch(test)), Y: test.Y})
			return TransferResult{TrainOn: p.src, TestOn: p.dst, Metrics: metrics}, nil
		})
}

// FormatTransferMatrix renders the matrix with F1 cells.
func FormatTransferMatrix(results []TransferResult) string {
	ids := platform.All()
	cell := map[[2]platform.ID]eval.Metrics{}
	for _, r := range results {
		cell[[2]platform.ID{r.TrainOn, r.TestOn}] = r.Metrics
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s", "train \\ test F1")
	for _, dst := range ids {
		fmt.Fprintf(&sb, " %14s", dst)
	}
	sb.WriteByte('\n')
	for _, src := range ids {
		fmt.Fprintf(&sb, "%-16s", src)
		for _, dst := range ids {
			m, ok := cell[[2]platform.ID{src, dst}]
			if !ok {
				fmt.Fprintf(&sb, " %14s", "-")
				continue
			}
			fmt.Fprintf(&sb, " %14.2f", m.F1)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
