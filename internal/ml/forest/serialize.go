package forest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"memfp/internal/ml/tree"
)

// modelJSON is the on-disk form of a trained forest. Trees are kept as
// raw JSON blobs so the tree package owns its own format.
type modelJSON struct {
	Format string            `json:"format"`
	Dim    int               `json:"dim"`
	Trees  []json.RawMessage `json:"trees"`
}

const formatName = "memfp-forest-v1"

// Encode writes the model as JSON.
func (m *Model) Encode(w io.Writer) error {
	out := modelJSON{Format: formatName, Dim: m.Dim}
	for _, t := range m.TreesList {
		var buf bytes.Buffer
		if err := t.Encode(&buf); err != nil {
			return fmt.Errorf("forest: encode tree: %w", err)
		}
		out.Trees = append(out.Trees, json.RawMessage(bytes.TrimSpace(buf.Bytes())))
	}
	return json.NewEncoder(w).Encode(out)
}

// Decode loads a model written by Encode.
func Decode(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("forest: decode: %w", err)
	}
	if in.Format != formatName {
		return nil, fmt.Errorf("forest: unknown model format %q", in.Format)
	}
	if in.Dim < 0 {
		return nil, fmt.Errorf("forest: negative feature dimension %d", in.Dim)
	}
	m := &Model{Dim: in.Dim}
	for i, raw := range in.Trees {
		t, err := tree.Decode(bytes.NewReader(raw), in.Dim)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		m.TreesList = append(m.TreesList, t)
	}
	return m, nil
}
