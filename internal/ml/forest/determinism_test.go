package forest

import (
	"bytes"
	"runtime"
	"testing"
)

// withProcs runs fn with GOMAXPROCS pinned to n — the number of trees Fit
// grows at once — and restores the previous value on return.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// serialize flattens a forest to bytes for exact model comparison.
func serialize(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range m.TreesList {
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestForestWorkerCountInvariant trains at worker counts (GOMAXPROCS)
// {1, 2, 8} and requires byte-identical serialized models: per-tree RNG streams are
// index-derived, so scheduling cannot leak into the output. The training
// set is above the tree package's parallelRows (4096), so each tree's top
// nodes also fan their histogram features out on the pool its tree runs on.
func TestForestWorkerCountInvariant(t *testing.T) {
	X, y := synth(6000, 22)
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		p := DefaultParams()
		p.Trees = 25
		p.Seed = 5
		var m *Model
		var err error
		withProcs(workers, func() { m, err = Fit(X, y, p) })
		if err != nil {
			t.Fatal(err)
		}
		got := serialize(t, m)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d produced a different model", workers)
		}
	}
}
