package tensor

import "math"

// Adam is the Adam optimizer (Kingma & Ba) over a fixed parameter list.
// Parameters are float32 but the moment estimates and the update
// arithmetic stay float64: the optimizer runs once per step over a few
// thousand scalars, so precision is free here, and only the final
// parameter value rounds to float32.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64
	params                []*Tensor
	m, v                  [][]float64
	t                     int
}

// NewAdam builds an optimizer for the given parameters.
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.Data)))
		a.v = append(a.v, make([]float64, len(p.Data)))
	}
	return a
}

// Step applies one update from accumulated gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for pi, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[pi], a.v[pi]
		for i, gf := range p.Grad {
			g := float64(gf)
			if a.WeightDecay > 0 {
				g += float64(a.WeightDecay * float64(p.Data[i]))
			}
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*g)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*g*g)
			p.Data[i] = float32(float64(p.Data[i]) - a.LR*(m[i]/bc1)/(math.Sqrt(v[i]/bc2)+a.Eps))
		}
	}
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}
