package features

import (
	"testing"

	"memfp/internal/trace"
)

func TestInstantsThinning(t *testing.T) {
	l := testLog(t)
	for i := 0; i < 100; i++ {
		addCE(l, trace.Minutes(i), 1, i)
	}
	cfg := SamplerConfig{MinGap: 10, MaxPerDIMM: 0}
	ins := cfg.Instants(l)
	for i := 1; i < len(ins); i++ {
		if ins[i]-ins[i-1] < 10 {
			t.Fatalf("instants %d and %d closer than MinGap", i-1, i)
		}
	}
}

func TestInstantsStopAtUE(t *testing.T) {
	l := testLog(t)
	addCE(l, 100, 1, 1)
	addCE(l, 5000, 1, 2)
	l.Events = append(l.Events, trace.Event{Time: 3000, Type: trace.TypeUE, DIMM: l.ID})
	l.SortEvents()
	cfg := SamplerConfig{MinGap: 1}
	for _, ts := range cfg.Instants(l) {
		if ts >= 3000 {
			t.Fatalf("instant %v at/after UE", ts)
		}
	}
}

func TestInstantsCap(t *testing.T) {
	l := testLog(t)
	for i := 0; i < 500; i++ {
		addCE(l, trace.Minutes(i*100), 1, i)
	}
	cfg := SamplerConfig{MinGap: 1, MaxPerDIMM: 10}
	ins := cfg.Instants(l)
	if len(ins) != 10 {
		t.Fatalf("capped instants = %d, want 10", len(ins))
	}
	// The last (most informative) instant must be retained.
	if ins[len(ins)-1] != 499*100 {
		t.Errorf("final instant %v, want %v", ins[len(ins)-1], 499*100)
	}
}

func TestBuildSamplesDropsLeadGap(t *testing.T) {
	l := testLog(t)
	ue := trace.Minutes(60 * trace.Day)
	// One CE safely early, one inside the lead gap.
	addCE(l, ue-10*trace.Day, 1, 1)
	addCE(l, ue-30, 1, 2)
	l.Events = append(l.Events, trace.Event{Time: ue, Type: trace.TypeUE, DIMM: l.ID})
	l.SortEvents()
	samples := BuildSamples(SamplerConfig{MinGap: 1}, l)
	for _, s := range samples {
		if s.Label == LabelDropped {
			t.Fatal("dropped sample leaked into output")
		}
		if s.Time == ue-30 {
			t.Fatal("lead-gap sample should have been dropped")
		}
	}
	if len(samples) != 1 || samples[0].Label != LabelPositive {
		t.Fatalf("samples: %+v", samples)
	}
}

func TestBuildSamplesNegativeDIMM(t *testing.T) {
	l := testLog(t)
	addCE(l, 1000, 1, 1)
	addCE(l, 100000, 1, 2)
	samples := BuildSamples(DefaultSamplerConfig(), l)
	if len(samples) == 0 {
		t.Fatal("no samples for healthy DIMM")
	}
	for _, s := range samples {
		if s.Label != LabelNegative {
			t.Errorf("healthy DIMM sample labeled %v", s.Label)
		}
		if len(s.X) != Dim() {
			t.Errorf("sample dim %d", len(s.X))
		}
	}
}
