package faultsim

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"memfp/internal/platform"
	"memfp/internal/trace"
)

// fleetBytes serializes a generated fleet's full event stream (time-ordered
// within each DIMM, DIMMs in registration order) for byte-level comparison.
func fleetBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteStore(&buf, res.Store); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withProcs runs fn with GOMAXPROCS pinned to n — the generator's worker
// count — and restores the previous value on return.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// generateAt generates cfg's fleet on procs workers.
func generateAt(t *testing.T, procs int, cfg Config) *Result {
	t.Helper()
	var res *Result
	var err error
	withProcs(procs, func() { res, err = GenerateCtx(context.Background(), cfg) })
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGenerateParallelByteIdentical is the determinism contract of the
// sharded generator: for the same (platform, scale, seed), every worker
// count (GOMAXPROCS) must produce a byte-identical event stream and
// identical ground truth — each DIMM draws from an index-addressable
// xrand.Derive stream and shards are merged in DIMM order, so scheduling
// cannot leak in.
func TestGenerateParallelByteIdentical(t *testing.T) {
	for _, id := range platform.All() {
		cfg := Config{Platform: id, Scale: 0.01, Seed: 42}
		seq := generateAt(t, 1, cfg)
		want := fleetBytes(t, seq)
		for _, workers := range []int{2, 4, 8} {
			par := generateAt(t, workers, cfg)
			if got := fleetBytes(t, par); !bytes.Equal(got, want) {
				t.Fatalf("%s: workers=%d event stream diverged from sequential (%d vs %d bytes)",
					id, workers, len(got), len(want))
			}
			if len(par.Truth.List) != len(seq.Truth.List) {
				t.Fatalf("%s: workers=%d truth count %d, want %d",
					id, workers, len(par.Truth.List), len(seq.Truth.List))
			}
			for i, tr := range par.Truth.List {
				if *tr != *seq.Truth.List[i] {
					t.Fatalf("%s: workers=%d truth %d differs: %+v vs %+v",
						id, workers, i, *tr, *seq.Truth.List[i])
				}
			}
			for _, typ := range []trace.EventType{trace.TypeCE, trace.TypeUE, trace.TypeStorm} {
				if par.Store.CountEvents(typ) != seq.Store.CountEvents(typ) {
					t.Fatalf("%s: workers=%d %v count differs", id, workers, typ)
				}
			}
		}
	}
}

// TestGenerateCtxCanceled checks that a pre-canceled context aborts
// generation before any DIMM is simulated.
func TestGenerateCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GenerateCtx(ctx, Config{Platform: platform.Purley, Scale: 0.01, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
