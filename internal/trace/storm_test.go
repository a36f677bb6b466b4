package trace

import (
	"testing"

	"memfp/internal/platform"
)

func stormCEs(times ...Minutes) []Event {
	id := DIMMID{Platform: platform.Purley, Server: 0, Slot: 0}
	out := make([]Event, len(times))
	for i, tm := range times {
		out[i] = Event{Time: tm, Type: TypeCE, DIMM: id}
	}
	return out
}

func TestDetectStormsBasic(t *testing.T) {
	cfg := StormConfig{Threshold: 3, Window: 10, Cooldown: 100}
	// Three CEs within 10 minutes → one storm.
	storms := DetectStorms(stormCEs(0, 5, 9), cfg)
	if len(storms) != 1 {
		t.Fatalf("storms = %d, want 1", len(storms))
	}
	if storms[0].Time != 9 || storms[0].Type != TypeStorm {
		t.Errorf("storm event wrong: %+v", storms[0])
	}
}

func TestDetectStormsBelowThreshold(t *testing.T) {
	cfg := StormConfig{Threshold: 3, Window: 10, Cooldown: 100}
	if storms := DetectStorms(stormCEs(0, 5, 20, 40), cfg); len(storms) != 0 {
		t.Errorf("sparse CEs produced %d storms", len(storms))
	}
}

func TestDetectStormsCooldown(t *testing.T) {
	cfg := StormConfig{Threshold: 3, Window: 10, Cooldown: 60}
	// Two bursts 30 minutes apart: second suppressed by cooldown.
	var times []Minutes
	times = append(times, 0, 2, 4)
	times = append(times, 30, 32, 34)
	times = append(times, 100, 102, 104) // past cooldown → second storm
	storms := DetectStorms(stormCEs(times...), cfg)
	if len(storms) != 2 {
		t.Fatalf("storms = %d, want 2 (cooldown should suppress middle burst)", len(storms))
	}
	if storms[1].Time != 104 {
		t.Errorf("second storm at %v, want 104", storms[1].Time)
	}
}

func TestDetectStormsDegenerateConfig(t *testing.T) {
	if DetectStorms(stormCEs(1, 2, 3), StormConfig{Threshold: 1, Window: 10}) != nil {
		t.Error("threshold ≤1 should disable detection")
	}
	if DetectStorms(nil, DefaultStormConfig()) != nil {
		t.Error("no CEs → no storms")
	}
}

func TestAnnotateStorms(t *testing.T) {
	s := NewStore()
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	id := DIMMID{Platform: platform.Purley, Server: 0, Slot: 0}
	if _, err := s.Register(id, part); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.Append(Event{Time: Minutes(i), Type: TypeCE, DIMM: id}); err != nil {
			t.Fatal(err)
		}
	}
	s.SortAll()
	n := AnnotateStorms(s, DefaultStormConfig())
	if n != 1 {
		t.Fatalf("annotated %d storms, want 1", n)
	}
	if s.CountEvents(TypeStorm) != 1 {
		t.Errorf("store storm count %d", s.CountEvents(TypeStorm))
	}
	// Log must remain sorted after annotation.
	l := s.Get(id)
	for i := 1; i < len(l.Events); i++ {
		if l.Events[i].Time < l.Events[i-1].Time {
			t.Fatal("log unsorted after AnnotateStorms")
		}
	}
}
