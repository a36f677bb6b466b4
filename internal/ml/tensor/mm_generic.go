//go:build !amd64 || purego

package tensor

// Without the amd64 micro-kernel (any other architecture, or amd64 built
// with -tags purego, which is how CI runs this path) every matmul takes
// the packed-panel Go path, which computes the same bits (one
// ascending-p float32 chain per element), so models and tests behave
// identically across architectures.
const asmMM = false

// mmRowsBcast mirrors the amd64 kernel's contract for these builds;
// unreachable while asmMM is false, kept so the package API is uniform.
func mmRowsBcast(dst, a, b, bias []float32, k, n, rows, accum int) {
	n4 := n &^ 3
	for r := 0; r < rows; r++ {
		arow := a[r*k : (r+1)*k]
		drow := dst[r*n : (r+1)*n]
		for j := 0; j < n4; j++ {
			var s float32
			if bias != nil {
				s = bias[j]
			}
			for p, av := range arow {
				s += av * b[p*n+j]
			}
			if accum != 0 {
				drow[j] += s
			} else {
				drow[j] = s
			}
		}
	}
}
