//go:build amd64 && !purego

package tensor

// asmMM routes eligible matmuls through the SSE2 broadcast micro-kernel
// in mm_amd64.s. The kernel changes only scheduling, not numerics: each
// output element is still a single ascending-p float32 chain (packed
// MULPS/ADDPS lanes are IEEE-identical to the scalar MULSS/ADDSS
// sequence per element), so results are bitwise equal to the pure-Go
// kernels and the oracle on every architecture.
const asmMM = true

// mmRowsBcast computes dst[r*n+j] (+)= bias[j] + Σ_p a[r*k+p]·b[p*n+j]
// for r ∈ [0, rows), j ∈ [0, n&^3) — the widest multiple-of-4 column
// prefix; the caller finishes the j tail. a is rows×k row-major, b is
// k×n row-major, dst is rows×n row-major (tail columns left untouched).
// bias may be nil (chains seed with zero); accum != 0 adds the finished
// chain to dst in one rounding instead of storing it. Per element the
// reduction runs p ascending with one float32 rounding per multiply and
// per add, exactly like the scalar kernels. k and rows must be > 0.
//
//go:noescape
func mmRowsBcast(dst, a, b, bias []float32, k, n, rows, accum int)
