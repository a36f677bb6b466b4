package gbdt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"memfp/internal/ml/tree"
)

// modelJSON is the on-disk form of a trained booster — the artifact the
// MLOps model registry stores and the serving layer loads. Trees are kept
// as raw JSON blobs so the tree package owns its own format.
type modelJSON struct {
	Format   string            `json:"format"`
	Shrink   float64           `json:"shrink"`
	BasePred float64           `json:"base_pred"`
	Rounds   int               `json:"rounds"`
	Dim      int               `json:"dim"`
	Trees    []json.RawMessage `json:"trees"`
}

const formatName = "memfp-gbdt-v1"

// Encode writes the model as JSON.
func (m *Model) Encode(w io.Writer) error {
	out := modelJSON{
		Format: formatName, Shrink: m.Shrink, BasePred: m.BasePred,
		Rounds: m.Rounds, Dim: m.Dim,
	}
	for _, t := range m.Trees {
		var buf bytes.Buffer
		if err := t.Encode(&buf); err != nil {
			return fmt.Errorf("gbdt: encode tree: %w", err)
		}
		out.Trees = append(out.Trees, json.RawMessage(bytes.TrimSpace(buf.Bytes())))
	}
	return json.NewEncoder(w).Encode(out)
}

// Decode loads a model written by Encode.
func Decode(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("gbdt: decode: %w", err)
	}
	if in.Format != formatName {
		return nil, fmt.Errorf("gbdt: unknown model format %q", in.Format)
	}
	if in.Dim < 0 {
		return nil, fmt.Errorf("gbdt: negative feature dimension %d", in.Dim)
	}
	m := &Model{Shrink: in.Shrink, BasePred: in.BasePred, Rounds: in.Rounds, Dim: in.Dim}
	for i, raw := range in.Trees {
		t, err := tree.Decode(bytes.NewReader(raw), in.Dim)
		if err != nil {
			return nil, fmt.Errorf("gbdt: tree %d: %w", i, err)
		}
		m.Trees = append(m.Trees, t)
	}
	return m, nil
}
