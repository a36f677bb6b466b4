package ftt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// modelJSON is the on-disk form of a trained FT-Transformer: the
// configuration needed to rebuild the parameter graph plus every
// parameter tensor's data, in construction order. Rebuilding through
// New() and copying data back reproduces the forward pass exactly.
type modelJSON struct {
	Format  string      `json:"format"`
	NF      int         `json:"nf"`
	Params  Params      `json:"params"`
	Tensors [][]float32 `json:"tensors"`
}

// formatName is the current (float32 weights) format; formatNameV1 is
// the float64 predecessor, still decodable — its JSON numbers parse into
// float32 with one rounding, matching what the float32 kernels would
// compute from those weights anyway.
const (
	formatName   = "memfp-ftt-v2"
	formatNameV1 = "memfp-ftt-v1"
)

// Encode writes the model as JSON.
func (m *Model) Encode(w io.Writer) error {
	out := modelJSON{Format: formatName, NF: m.nf, Params: m.p}
	for _, p := range m.params {
		out.Tensors = append(out.Tensors, p.Data)
	}
	return json.NewEncoder(w).Encode(out)
}

// paramCount is the number of values New(nf, p) allocates, for
// non-negative nf and p fields. Its arithmetic saturates at
// math.MaxUint64 instead of wrapping, so a hostile configuration cannot
// pass for a small one: Decode checks it against the payload before New
// allocates anything.
func paramCount(nf int, p Params) uint64 {
	n, d, f, l := uint64(nf), uint64(p.Dim), uint64(p.FFNMult), uint64(p.Layers)
	block := satSum(satProd(4, d), satProd(4, d, d), satProd(4, d), // two norms, q/k/v/o
		satProd(2, d, d, f), satProd(d, f), d) // FFN
	return satSum(satProd(2, n, d), d, satProd(l, block), satProd(3, d), 1)
}

// satProd multiplies its arguments, sticking at math.MaxUint64 on
// overflow.
func satProd(xs ...uint64) uint64 {
	p := uint64(1)
	for _, x := range xs {
		if x == 0 {
			return 0
		}
		hi, lo := bits.Mul64(p, x)
		if hi != 0 {
			p = math.MaxUint64
			continue
		}
		p = lo
	}
	return p
}

// satSum adds its arguments, sticking at math.MaxUint64 on overflow.
func satSum(xs ...uint64) uint64 {
	var s uint64
	for _, x := range xs {
		var carry uint64
		if s, carry = bits.Add64(s, x, 0); carry != 0 {
			return math.MaxUint64
		}
	}
	return s
}

// Decode loads a model written by Encode (current or v1 format).
func Decode(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("ftt: decode: %w", err)
	}
	if in.Format != formatName && in.Format != formatNameV1 {
		return nil, fmt.Errorf("ftt: unknown model format %q", in.Format)
	}
	p := in.Params
	if in.NF <= 0 || p.Dim <= 0 || p.Heads <= 0 || p.Layers < 0 || p.FFNMult <= 0 || p.Dim%p.Heads != 0 {
		return nil, fmt.Errorf("ftt: invalid serialized configuration (nf=%d dim=%d heads=%d)", in.NF, p.Dim, p.Heads)
	}
	carried := 0
	for _, data := range in.Tensors {
		carried += len(data)
	}
	if need := paramCount(in.NF, p); need != uint64(carried) {
		return nil, fmt.Errorf("ftt: configuration needs %d values, payload carries %d", need, carried)
	}
	m := New(in.NF, p)
	if len(in.Tensors) != len(m.params) {
		return nil, fmt.Errorf("ftt: serialized model has %d tensors, configuration needs %d", len(in.Tensors), len(m.params))
	}
	for i, data := range in.Tensors {
		if len(data) != len(m.params[i].Data) {
			return nil, fmt.Errorf("ftt: tensor %d has %d values, want %d", i, len(data), len(m.params[i].Data))
		}
		copy(m.params[i].Data, data)
	}
	return m, nil
}
