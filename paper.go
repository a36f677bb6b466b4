package memfp

import (
	"memfp/internal/ml/model"
	"memfp/internal/platform"
)

// Paper is the ledger of the paper's published numbers that memfp prints
// beside its own results, each field tagged by the table, figure or
// finding that publishes it. The repro report and the examples read them
// here, so no published value is written anywhere else.
var Paper = Ledger{
	TableI: []PaperShare{
		{platform.Purley, 73, 27},
		{platform.Whitley, 42, 58},
		{platform.K920, 82, 18},
	},
	TableII: []PaperCell{
		{platform.Purley, model.NameGBDT, 0.54, 0.80, 0.64},
		{platform.Purley, model.NameRiskyCE, 0.53, 0.46, 0},
		{platform.Whitley, model.NameGBDT, 0.46, 0.54, 0},
		{platform.Whitley, model.NameFTT, 0.53, 0.49, 0.50},
		{platform.K920, model.NameGBDT, 0.51, 0.57, 0.54},
	},
	Figure5: []PaperRisky{
		{platform.Purley, 2, 2, 4},
		{platform.Whitley, 4, 5, 0},
	},
}

// Ledger groups the published numbers by where the paper gives them.
type Ledger struct {
	// TableI: each platform's UE DIMMs split into predictable and sudden.
	TableI []PaperShare
	// TableII: the cited algorithm cells. Figure 2 sweeps the LightGBM
	// cells, and a nonzero F1 marks the platform's best cell (Finding 4).
	TableII []PaperCell
	// Figure5: the riskiest CE error-bit signature per Intel platform.
	Figure5 []PaperRisky
}

// PaperShare is one Table I row: the percentage of UE DIMMs with CE
// precursors (predictable) and without (sudden).
type PaperShare struct {
	Platform                  platform.ID
	PredictablePct, SuddenPct int
}

// PaperCell is one Table II cell; F1 is zero where the paper's is not cited.
type PaperCell struct {
	Platform              platform.ID
	Algo                  Algo
	Precision, Recall, F1 float64
}

// PaperRisky is one platform's riskiest Figure 5 buckets. A zero
// BeatInterval is one the paper does not single out.
type PaperRisky struct {
	Platform                 platform.ID
	DQs, Beats, BeatInterval int
}

// Best returns each platform's best cited Table II cell, in platform order.
func (l Ledger) Best() []PaperCell {
	var out []PaperCell
	for _, c := range l.TableII {
		if c.F1 > 0 {
			out = append(out, c)
		}
	}
	return out
}
