package features

import (
	"context"
	"reflect"
	"testing"

	"memfp/internal/faultsim"
	"memfp/internal/platform"
)

// TestBuildAllDeterministic regression-tests the dominant-signature
// tie-break: extraction over the same store must be identical call to
// call (the fleet cache shares one store across every consumer, and the
// concurrent pipeline requires bit-for-bit reproducible features).
func TestBuildAllDeterministic(t *testing.T) {
	res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.Purley, Scale: 0.02, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s1 := BuildAll(DefaultSamplerConfig(), res.Store)
	s2 := BuildAll(DefaultSamplerConfig(), res.Store)
	if len(s1) != len(s2) {
		t.Fatalf("sample counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if !reflect.DeepEqual(s1[i], s2[i]) {
			t.Fatalf("sample %d differs across identical extractions:\n%+v\nvs\n%+v", i, s1[i], s2[i])
		}
	}
}
