package tensor

import "math"

// Deterministic fast transcendentals. math.Exp and math.Tanh dominate the
// softmax and GELU inner loops once the matmuls are tiled; these
// replacements are ~3× cheaper and — unlike libm, whose implementation
// may change across Go releases — are part of this package's frozen
// floating-point specification: both the fast and the reference kernels
// call them, so fast-vs-oracle comparisons stay bitwise even through
// nonlinearities. Internals are float64, rounded once to float32 at the
// end; every intermediate rounding below is pinned by the expression
// order and by the explicit float64(...) around each product that feeds
// an add, which keeps arm64 from fusing the pair into one FMA (amd64 at
// GOAMD64=v1 never fuses). fexpCore's inline cost is at the budget of 80.
//
// fexp4/ftanh4 are 4-lane variants for the hot loops: each lane performs
// EXACTLY the scalar function's operation sequence (TestFexp4MatchesScalar
// enforces bit equality), interleaved so the four dependency chains hide
// each other's latency. Keep them in lockstep with the scalars.

const (
	fexpLog2E = 1.4426950408889634 // 1/ln(2)
	fexpLn2   = 0.6931471805599453 // ln(2)
	fexpLo    = -103.0             // below: exp underflows float32 to 0
	fexpHi    = 88.8               // above: exp overflows float32

	// fexpMagic = 2^52 + 2^51. Adding it to a float64 t with |t| < 2^51
	// forces rounding to the nearest integer (ties to even); subtracting
	// it back yields round(t) exactly. Branch- and call-free (math.Floor
	// compiles to a function call at the baseline GOAMD64), and part of
	// the frozen spec: n = roundEven(x·log2e).
	fexpMagic = 6755399441055744.0
)

// fexpCore evaluates exp on a pre-clamped float64. Range reduction
// x = n*ln2 + r with n = roundEven(x·log2e) via the fexpMagic trick
// (|r| <= ln2/2), then a degree-5 Taylor polynomial (max relative error
// ~2.4e-6 — a few float32 ulps, frozen as spec), scaled by 2^n through
// exponent-field construction.
func fexpCore(xd float64) float32 {
	n := float64(xd*fexpLog2E) + fexpMagic - fexpMagic
	r := xd - float64(n*fexpLn2)
	p := float64(r*(1.0/120)) + 1.0/24
	p = float64(p*r) + 1.0/6
	p = float64(p*r) + 0.5
	p = float64(p*r) + 1
	p = float64(p*r) + 1
	return float32(p * math.Float64frombits(uint64(1023+int64(n))<<52))
}

// fexp32 returns exp(x) rounded to float32, with the argument clamped to
// [fexpLo, fexpHi] (the clamped tails land on subnormals/0 and huge
// values deterministically).
func fexp32(x float32) float32 {
	xd := float64(x)
	if xd < fexpLo {
		xd = fexpLo
	}
	if xd > fexpHi {
		xd = fexpHi
	}
	return fexpCore(xd)
}

// fexp4 is fexp32 over four independent lanes.
func fexp4(x0, x1, x2, x3 float32) (float32, float32, float32, float32) {
	d0, d1, d2, d3 := float64(x0), float64(x1), float64(x2), float64(x3)
	if d0 < fexpLo {
		d0 = fexpLo
	}
	if d1 < fexpLo {
		d1 = fexpLo
	}
	if d2 < fexpLo {
		d2 = fexpLo
	}
	if d3 < fexpLo {
		d3 = fexpLo
	}
	if d0 > fexpHi {
		d0 = fexpHi
	}
	if d1 > fexpHi {
		d1 = fexpHi
	}
	if d2 > fexpHi {
		d2 = fexpHi
	}
	if d3 > fexpHi {
		d3 = fexpHi
	}
	n0 := float64(d0*fexpLog2E) + fexpMagic - fexpMagic
	n1 := float64(d1*fexpLog2E) + fexpMagic - fexpMagic
	n2 := float64(d2*fexpLog2E) + fexpMagic - fexpMagic
	n3 := float64(d3*fexpLog2E) + fexpMagic - fexpMagic
	r0 := d0 - float64(n0*fexpLn2)
	r1 := d1 - float64(n1*fexpLn2)
	r2 := d2 - float64(n2*fexpLn2)
	r3 := d3 - float64(n3*fexpLn2)
	p0 := float64(r0*(1.0/120)) + 1.0/24
	p1 := float64(r1*(1.0/120)) + 1.0/24
	p2 := float64(r2*(1.0/120)) + 1.0/24
	p3 := float64(r3*(1.0/120)) + 1.0/24
	p0 = float64(p0*r0) + 1.0/6
	p1 = float64(p1*r1) + 1.0/6
	p2 = float64(p2*r2) + 1.0/6
	p3 = float64(p3*r3) + 1.0/6
	p0 = float64(p0*r0) + 0.5
	p1 = float64(p1*r1) + 0.5
	p2 = float64(p2*r2) + 0.5
	p3 = float64(p3*r3) + 0.5
	p0 = float64(p0*r0) + 1
	p1 = float64(p1*r1) + 1
	p2 = float64(p2*r2) + 1
	p3 = float64(p3*r3) + 1
	p0 = float64(p0*r0) + 1
	p1 = float64(p1*r1) + 1
	p2 = float64(p2*r2) + 1
	p3 = float64(p3*r3) + 1
	return float32(p0 * math.Float64frombits(uint64(1023+int64(n0))<<52)),
		float32(p1 * math.Float64frombits(uint64(1023+int64(n1))<<52)),
		float32(p2 * math.Float64frombits(uint64(1023+int64(n2))<<52)),
		float32(p3 * math.Float64frombits(uint64(1023+int64(n3))<<52))
}

// ftanh32 returns tanh(x) rounded to float32 via the exp identity
// tanh(t) = (1-e^(-2t))/(1+e^(-2t)), symmetric in the sign of x.
func ftanh32(x float32) float32 {
	t := x
	neg := false
	if t < 0 {
		t = -t
		neg = true
	}
	if t > 9 {
		// tanh(9) rounds to 1 in float32 already.
		if neg {
			return -1
		}
		return 1
	}
	e := float64(fexp32(-2 * t))
	th := float32((1 - e) / (1 + e))
	if neg {
		return -th
	}
	return th
}

// ftanh4 is ftanh32 over four independent lanes.
func ftanh4(x0, x1, x2, x3 float32) (float32, float32, float32, float32) {
	t0, t1, t2, t3 := x0, x1, x2, x3
	if t0 < 0 {
		t0 = -t0
	}
	if t1 < 0 {
		t1 = -t1
	}
	if t2 < 0 {
		t2 = -t2
	}
	if t3 < 0 {
		t3 = -t3
	}
	e0, e1, e2, e3 := fexp4(-2*t0, -2*t1, -2*t2, -2*t3)
	th0 := float32((1 - float64(e0)) / (1 + float64(e0)))
	th1 := float32((1 - float64(e1)) / (1 + float64(e1)))
	th2 := float32((1 - float64(e2)) / (1 + float64(e2)))
	th3 := float32((1 - float64(e3)) / (1 + float64(e3)))
	if t0 > 9 {
		th0 = 1
	}
	if t1 > 9 {
		th1 = 1
	}
	if t2 > 9 {
		th2 = 1
	}
	if t3 > 9 {
		th3 = 1
	}
	if x0 < 0 {
		th0 = -th0
	}
	if x1 < 0 {
		th1 = -th1
	}
	if x2 < 0 {
		th2 = -th2
	}
	if x3 < 0 {
		th3 = -th3
	}
	return th0, th1, th2, th3
}
