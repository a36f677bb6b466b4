package faultsim

import (
	"bytes"
	"context"
	"errors"
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

// TestGenerateParallelByteIdentical is the determinism contract of the
// sharded generator: for the same (platform, scale, seed), every worker
// count must produce a byte-identical event stream and identical ground
// truth — each DIMM draws from an index-addressable xrand.Derive stream
// and shards are merged in DIMM order, so scheduling cannot leak in.
func TestGenerateParallelByteIdentical(t *testing.T) {
	for _, id := range platform.All() {
		cfg := Config{Platform: id, Scale: 0.01, Seed: 42, Workers: 1}
		seq, err := GenerateCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fleetBytes(t, seq)
		for _, workers := range []int{2, 4, 8} {
			cfg.Workers = workers
			par, err := GenerateCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
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
