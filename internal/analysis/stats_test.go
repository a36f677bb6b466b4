package analysis

import (
	"strings"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

func mkStore(t *testing.T) (*trace.Store, platform.DIMMPart) {
	t.Helper()
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewStore(), part
}

func addDIMM(t *testing.T, s *trace.Store, part platform.DIMMPart, server int, events ...trace.Event) trace.DIMMID {
	t.Helper()
	id := trace.DIMMID{Platform: platform.Purley, Server: server, Slot: 0}
	if _, err := s.Register(id, part); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		e.DIMM = id
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	s.Get(id).SortEvents()
	return id
}

func ceAt(tm trace.Minutes, row, col int) trace.Event {
	bits := dram.NewErrorBits(dram.X4)
	bits.Set(0, 0)
	return trace.Event{Time: tm, Type: trace.TypeCE,
		Addr: dram.Addr{Rank: 0, Device: 1, Bank: 1, Row: uint32(row), Column: uint16(col)}, Bits: bits}
}

func ueAt(tm trace.Minutes) trace.Event {
	return trace.Event{Time: tm, Type: trace.TypeUE,
		Addr: dram.Addr{Rank: 0, Device: 1, Bank: 1, Row: 1, Column: 1}}
}

func TestTableIClassification(t *testing.T) {
	s, part := mkStore(t)
	// DIMM 0: CEs only.
	addDIMM(t, s, part, 0, ceAt(10, 1, 1), ceAt(20, 1, 2))
	// DIMM 1: predictable UE (CE before UE).
	addDIMM(t, s, part, 1, ceAt(10, 2, 1), ueAt(100))
	// DIMM 2: sudden UE (no CEs).
	addDIMM(t, s, part, 2, ueAt(50))
	// DIMM 3: UE before first CE → counted sudden.
	addDIMM(t, s, part, 3, ueAt(5), ceAt(10, 3, 1))

	st := TableI(s)
	if st.DIMMsWithCEs != 3 {
		t.Errorf("CE DIMMs %d, want 3", st.DIMMsWithCEs)
	}
	if st.DIMMsWithUEs != 3 {
		t.Errorf("UE DIMMs %d, want 3", st.DIMMsWithUEs)
	}
	if st.PredictableUEs != 1 || st.SuddenUEs != 2 {
		t.Errorf("predictable=%d sudden=%d, want 1/2", st.PredictableUEs, st.SuddenUEs)
	}
	if st.TotalPopulation != 4 {
		t.Errorf("population %d", st.TotalPopulation)
	}
}

func TestFigure4UsesPreUEEvidence(t *testing.T) {
	s, part := mkStore(t)
	// A row fault visible only BEFORE the UE plus post-UE noise that
	// would classify differently (post-UE CEs must be ignored).
	events := []trace.Event{}
	for col := 0; col < 6; col++ {
		events = append(events, ceAt(trace.Minutes(10+col), 42, col*7))
	}
	events = append(events, ueAt(100))
	addDIMM(t, s, part, 0, events...)
	// Benign cell-fault DIMM.
	addDIMM(t, s, part, 1, ceAt(10, 9, 9), ceAt(20, 9, 9), ceAt(30, 9, 9))

	cats := Figure4(s)
	byCat := map[FaultCategory]CategoryStats{}
	for _, c := range cats {
		byCat[c.Category] = c
	}
	if byCat[CatRow].UEDIMMs != 1 {
		t.Errorf("row category UE DIMMs = %d, want 1", byCat[CatRow].UEDIMMs)
	}
	if byCat[CatRow].RelativeUEPct != 100 {
		t.Errorf("row attribution %.1f%%, want 100%%", byCat[CatRow].RelativeUEPct)
	}
	if byCat[CatCell].UEDIMMs != 0 {
		t.Errorf("cell category should have no UE DIMMs")
	}
	if byCat[CatSingleDevice].DIMMs != 2 {
		t.Errorf("single-device DIMMs = %d, want 2", byCat[CatSingleDevice].DIMMs)
	}
}

func TestFigure5BucketsByDominantSignature(t *testing.T) {
	s, part := mkStore(t)
	// DIMM with a consistent 2-DQ/beat-interval-4 signature, then a UE.
	events := []trace.Event{}
	for i := 0; i < 5; i++ {
		bits := dram.NewErrorBits(dram.X4)
		bits.Set(0, 1)
		bits.Set(2, 5)
		events = append(events, trace.Event{Time: trace.Minutes(10 + i), Type: trace.TypeCE,
			Addr: dram.Addr{Rank: 0, Device: 1, Bank: 1, Row: 1, Column: uint16(i)}, Bits: bits})
	}
	events = append(events, ueAt(100))
	addDIMM(t, s, part, 0, events...)
	// Benign single-bit DIMM.
	addDIMM(t, s, part, 1, ceAt(10, 1, 1), ceAt(20, 1, 2))

	panels := Figure5(s)
	dq := panels[StatDQCount]
	var dq2 *BitBucket
	for i := range dq {
		if dq[i].Value == 2 {
			dq2 = &dq[i]
		}
	}
	if dq2 == nil || dq2.DIMMs != 1 || dq2.UEDIMMs != 1 {
		t.Fatalf("DQ=2 bucket wrong: %+v", dq2)
	}
	var bi4 *BitBucket
	for i := range panels[StatBeatInterval] {
		if panels[StatBeatInterval][i].Value == 4 {
			bi4 = &panels[StatBeatInterval][i]
		}
	}
	if bi4 == nil || bi4.RelativeUERate != 1 {
		t.Fatalf("beat-interval=4 bucket wrong: %+v", bi4)
	}
}

func TestFigure5SkipsX8(t *testing.T) {
	s := trace.NewStore()
	part, err := platform.PartByNumber("A8-2666-16") // x8 part
	if err != nil {
		t.Fatal(err)
	}
	id := trace.DIMMID{Platform: platform.Purley, Server: 0, Slot: 0}
	if _, err := s.Register(id, part); err != nil {
		t.Fatal(err)
	}
	bits := dram.NewErrorBits(dram.X8)
	bits.Set(0, 0)
	if err := s.Append(trace.Event{Time: 1, Type: trace.TypeCE, DIMM: id,
		Addr: dram.Addr{Device: 1, Bank: 1, Row: 1, Column: 1}, Bits: bits}); err != nil {
		t.Fatal(err)
	}
	panels := Figure5(s)
	for _, buckets := range panels {
		for _, b := range buckets {
			if b.DIMMs != 0 {
				t.Fatal("x8 DIMMs must be excluded from Figure 5")
			}
		}
	}
}

func TestFormatters(t *testing.T) {
	s, part := mkStore(t)
	addDIMM(t, s, part, 0, ceAt(10, 1, 1), ueAt(100))
	st := TableI(s)
	if out := FormatTableI([]DatasetStats{st}); !strings.Contains(out, "Intel_Purley") {
		t.Error("FormatTableI missing platform name")
	}
	if out := FormatFigure4("X", Figure4(s)); !strings.Contains(out, "Single device") {
		t.Error("FormatFigure4 missing category")
	}
	if out := FormatFigure5("X", Figure5(s)); !strings.Contains(out, "DQ count") {
		t.Error("FormatFigure5 missing panel")
	}
}
